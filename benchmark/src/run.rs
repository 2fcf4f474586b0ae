//! One benchmark run: set-up, warm-up, then rounds of
//! [closed-loop window | open-loop window | one more full set-up], and the
//! result line. The traced variant of a run lives in `layers.rs`.

use crate::json::Json;
use crate::load::{closed_window, open_window, Tally, Window};
use crate::spec::{Metric, Workload, END_TO_END};
use crate::stats::{best, median, quantile, tail, Better};
use crate::system::{set_up, Checker, Inputs, SetupTiming, System};
use crate::{procstat, system};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where the trace file goes.
    pub out_dir: PathBuf,
    pub worker_binary: PathBuf,
}

/// Rounds of a full-length run; shorter runs get as many as fit.
const ROUNDS: usize = 12;
/// Shortest window worth measuring, seconds.
const MIN_WINDOW_S: f64 = 0.2;
/// Blocks an open-loop window's latencies are cut into (≈ 0.5 s each at full
/// length): each block's median is one candidate for `latency_p50_ms`.
const LATENCY_BLOCKS: usize = 4;

/// Request counts per phase, printed at the end of every run.
#[derive(Default)]
pub struct Phases(pub Vec<(&'static str, Tally)>);

impl Phases {
    pub fn add(&mut self, phase: &'static str, tally: &Tally) {
        match self.0.iter_mut().find(|(name, _)| *name == phase) {
            Some((_, total)) => total.add(tally),
            None => self.0.push((phase, *tally)),
        }
    }

    pub fn total(&self) -> Tally {
        let mut total = Tally::default();
        self.0.iter().for_each(|(_, t)| total.add(t));
        total
    }

    pub fn print(&self) {
        for (name, t) in &self.0 {
            println!(
                "phase {name}: attempted={} succeeded={} failed={} mismatched={} shed={}",
                t.attempted, t.succeeded, t.failed, t.mismatched, t.shed
            );
        }
    }
}

/// How a run of `seconds` is cut into windows once the first set-up is done.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    pub rounds: usize,
    pub window: Duration,
}

/// Splits what is left of the run into a warm-up and `rounds` × (closed
/// window + open window + set-up), all windows equal, keeping a reserve for
/// tear-down and the transcript audit.
pub fn plan(seconds: f64, spent_s: f64, setup_s: f64) -> Plan {
    let rounds = ((seconds / 4.0).floor() as usize).clamp(1, ROUNDS);
    let reserve = 0.4 + 0.03 * seconds;
    let left = seconds - spent_s - reserve - rounds as f64 * (setup_s * 1.15 + 0.1);
    let window = (left / (2 * rounds + 1) as f64).max(MIN_WINDOW_S);
    Plan {
        rounds,
        window: Duration::from_secs_f64(window),
    }
}

/// The result line, the last line of standard output.
pub fn result_line(correct: bool, tally: &Tally, metrics: &[(&str, f64, &str)]) -> String {
    let metrics = metrics.iter().map(|(name, value, unit)| {
        (
            *name,
            Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
        )
    });
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(tally.attempted.max(1) as f64)),
        ("failed", Json::Num(tally.not_ok() as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .compact()
}

/// The first set-up of a run plus everything later phases need from it.
pub struct Live {
    pub inputs: Inputs,
    pub system: System,
    pub checker: Checker,
    pub phases: Phases,
    pub problems: Vec<String>,
    pub setups: Vec<SetupTiming>,
}

impl Live {
    /// Generates the inputs from the seed, brings the system up and checks
    /// its first answer.
    pub fn start(args: &RunArgs) -> Result<Live, String> {
        let inputs = Inputs::generate(args.workload, args.seed, args.worker_binary.clone())?;
        let system = set_up(args.workload, &inputs)?;
        let checker = Checker::new(args.workload, &inputs, &system.partition_set)?;
        let mut live = Live {
            inputs,
            system,
            checker,
            phases: Phases::default(),
            problems: Vec::new(),
            setups: Vec::new(),
        };
        let first_ok = live.checker.matches(0, &live.system.first_output);
        live.note_setup(live.system.timing, first_ok);
        Ok(live)
    }

    fn note_setup(&mut self, timing: SetupTiming, first_ok: bool) {
        self.setups.push(timing);
        let tally = Tally {
            attempted: 1,
            succeeded: u64::from(first_ok),
            mismatched: u64::from(!first_ok),
            ..Tally::default()
        };
        self.phases.add("setup", &tally);
    }

    /// One more full set-up on a scratch registry and pool, torn down again.
    pub fn scratch_setup(&mut self, workload: &Workload) {
        match set_up(workload, &self.inputs) {
            Ok(scratch) => {
                let first_ok = self.checker.matches(0, &scratch.first_output);
                self.note_setup(scratch.timing, first_ok);
                self.problems.extend(scratch.tear_down(self.inputs.seed));
            }
            Err(e) => {
                self.problems.push(format!("scratch set-up failed: {e}"));
                self.phases.add(
                    "setup",
                    &Tally {
                        attempted: 1,
                        failed: 1,
                        ..Tally::default()
                    },
                );
            }
        }
    }

    pub fn closed(&mut self, workload: &Workload, duration: Duration, salt: u64) -> Window {
        closed_window(
            &self.system.handle,
            &self.inputs,
            &self.checker,
            workload.closed_outstanding,
            duration,
            self.inputs.seed ^ (salt << 8) ^ 0xc105ed,
        )
    }

    pub fn open(&mut self, workload: &Workload, duration: Duration, salt: u64) -> Window {
        open_window(
            &self.system.handle,
            &self.inputs,
            &self.checker,
            workload.open_rate_rps,
            duration,
            self.inputs.seed ^ (salt << 8) ^ 0x09e4,
        )
    }

    /// Tears the main system down and audits its transcripts.
    pub fn finish(self) -> (Inputs, Phases, Vec<String>, Vec<SetupTiming>) {
        let Live {
            inputs,
            system,
            phases,
            mut problems,
            setups,
            ..
        } = self;
        problems.extend(system.tear_down(inputs.seed));
        (inputs, phases, problems, setups)
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("metric {name} = {value:.4} {unit}  {note}");
}

fn fmt_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
    format!("[{}]", items.join(" "))
}

/// An untraced run: the five end-to-end metrics. Returns the process exit code.
pub fn run_end_to_end(args: &RunArgs) -> i32 {
    let run_start = Instant::now();
    let w = args.workload;
    let mut live = match Live::start(args) {
        Ok(live) => live,
        Err(e) => return fail_before_measuring(&e, &END_TO_END),
    };
    let spent = run_start.elapsed().as_secs_f64();
    let plan = plan(args.seconds, spent, live.system.timing.total_s);
    println!(
        "run {}: seed={} seconds={} nproc={} rounds={} window={:.2}s closed_outstanding={} open_rate={} rps",
        w.name,
        args.seed,
        args.seconds,
        std::thread::available_parallelism().map_or(0, usize::from),
        plan.rounds,
        plan.window.as_secs_f64(),
        w.closed_outstanding,
        w.open_rate_rps,
    );

    let warm = live.closed(w, plan.window, 0);
    live.phases.add("warmup", &warm.tally);

    let mut closed: Vec<Window> = Vec::new();
    let mut open: Vec<Window> = Vec::new();
    let mut cpu_ms_per_request: Vec<f64> = Vec::new();
    for round in 1..=plan.rounds as u64 {
        let c = live.closed(w, plan.window, round);
        live.phases.add("closed", &c.tally);
        closed.push(c);

        let cpu_before = procstat::cpu_seconds(&live.system.worker_pids);
        let o = live.open(w, plan.window, round);
        let cpu = procstat::cpu_seconds(&live.system.worker_pids) - cpu_before;
        live.phases.add("open", &o.tally);
        if o.tally.succeeded > 0 {
            cpu_ms_per_request.push(cpu * 1e3 / o.tally.succeeded as f64);
        }
        open.push(o);

        live.scratch_setup(w);
    }
    let peak_rss_mb = procstat::peak_rss_mb(&live.system.worker_pids);
    let (inputs, phases, problems, setups) = live.finish();
    let blob_mb = inputs.blob_bytes as f64 / 1e6;

    // Per-block values and the best of each (see `stats::best`).
    let thr: Vec<f64> = closed.iter().map(Window::throughput_rps).collect();
    let p50: Vec<f64> = open
        .iter()
        .flat_map(|o| o.latency_block_medians(LATENCY_BLOCKS))
        .collect();
    let upload: Vec<f64> = setups.iter().map(|s| blob_mb / s.upload_s).collect();
    let setup: Vec<f64> = setups.iter().map(|s| s.total_s).collect();
    let values = [
        best(&thr, Better::Higher),
        best(&p50, Better::Lower),
        best(&upload, Better::Higher),
        best(&setup, Better::Lower),
        peak_rss_mb,
    ];
    let notes = [
        format!("closed-loop windows {}", fmt_list(&thr)),
        format!("open-loop blocks {}", fmt_list(&p50)),
        format!("{blob_mb:.2} MB model, set-ups {}", fmt_list(&upload)),
        format!("set-ups {}", fmt_list(&setup)),
        "VmHWM of this process plus live workers".to_string(),
    ];
    for ((m, value), note) in END_TO_END.iter().zip(values).zip(&notes) {
        print_metric(m.name, value, m.unit, note);
    }

    // The plain whole-run values, for comparison with the estimates above.
    let all_closed: Vec<f64> = closed
        .iter()
        .flat_map(|c| c.latencies_ms.iter().copied())
        .collect();
    let all_open: Vec<f64> = open
        .iter()
        .flat_map(|o| o.latencies_ms.iter().copied())
        .collect();
    let late: Vec<f64> = open
        .iter()
        .flat_map(|o| o.lateness_ms.iter().copied())
        .collect();
    let closed_done: u64 = closed.iter().map(|c| c.completed_in_window).sum();
    let closed_s: f64 = closed.iter().map(|c| c.seconds).sum();
    let (tail_label, tail_ms) = tail(&all_open);
    let late_p95 = quantile(&late, 0.95);
    let n_open = all_open.len();
    for (name, value, unit, note) in [
        (
            "load.throughput_rps.all",
            closed_done as f64 / closed_s,
            "1/s",
            "all closed-loop windows".to_string(),
        ),
        (
            "load.latency_p50_ms.all",
            median(&all_open),
            "ms",
            format!("n={n_open}"),
        ),
        (
            "load.latency_p95_ms",
            tail_ms,
            "ms",
            format!("reported percentile: {tail_label}, n={n_open}"),
        ),
        (
            "load.closed_latency_p50_ms",
            median(&all_closed),
            "ms",
            format!("n={}", all_closed.len()),
        ),
        (
            "load.open_late_p95_ms",
            late_p95,
            "ms",
            format!("n={}", late.len()),
        ),
        (
            "load.cpu_ms_per_request",
            median(&cpu_ms_per_request),
            "ms",
            format!("open-loop windows {}", fmt_list(&cpu_ms_per_request)),
        ),
    ] {
        print_metric(name, value, unit, &note);
    }
    if late_p95 > 1.0 {
        println!("WARNING: the open-loop generator ran {late_p95:.2} ms late at p95 (limit 1 ms)");
    }
    let parts = setups.iter().fold([0.0; 4], |acc, s| {
        [
            acc[0] + s.upload_s,
            acc[1] + s.checkout_s,
            acc[2] + s.build_s,
            acc[3] + s.first_response_s,
        ]
    });
    let n = setups.len() as f64;
    println!(
        "setup parts (mean of {} set-ups): upload {:.1} ms, checkout {:.1} ms, pool build {:.1} ms, first response {:.1} ms",
        setups.len(),
        parts[0] / n * 1e3,
        parts[1] / n * 1e3,
        parts[2] / n * 1e3,
        parts[3] / n * 1e3
    );

    phases.print();
    for p in &problems {
        println!("PROBLEM: {p}");
    }
    let tally = phases.total();
    let correct = problems.is_empty() && tally.not_ok() == 0;
    println!("wall {:.2} s", run_start.elapsed().as_secs_f64());
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, v)| (m.name, v, m.unit))
        .collect();
    println!("{}", result_line(correct, &tally, &metrics));
    0
}

/// The system could not be brought up: report it as one failed attempt, with
/// every metric present so the line keeps its shape.
pub fn fail_before_measuring(reason: &str, expected: &[Metric]) -> i32 {
    println!("PROBLEM: {reason}");
    system::kill_live_workers();
    let tally = Tally {
        attempted: 1,
        failed: 1,
        ..Tally::default()
    };
    let metrics: Vec<(&str, f64, &str)> = expected.iter().map(|m| (m.name, 0.0, m.unit)).collect();
    println!("{}", result_line(false, &tally, &metrics));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fills_the_run_and_never_overshoots() {
        let p = plan(60.0, 0.5, 0.1);
        assert_eq!(p.rounds, 12);
        let used = 0.5 + p.window.as_secs_f64() * 25.0 + 12.0 * 0.1;
        assert!(used < 60.0 && used > 54.0, "{used}");
        // A 3-second smoke still measures one round.
        let p = plan(3.0, 0.3, 0.1);
        assert_eq!(p.rounds, 1);
        assert!(p.window.as_secs_f64() >= MIN_WINDOW_S);
        // A set-up slower than the run leaves the minimum window.
        assert_eq!(
            plan(3.0, 4.0, 4.0).window,
            Duration::from_secs_f64(MIN_WINDOW_S)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let tally = Tally {
            attempted: 12,
            succeeded: 11,
            failed: 1,
            ..Tally::default()
        };
        let line = result_line(false, &tally, &[("latency_p50_ms", 5.9123456789, "ms")]);
        let doc = crate::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(1.0));
        let m = doc
            .get("metrics")
            .and_then(|m| m.get("latency_p50_ms"))
            .unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(5.9123456789));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("ms"));
        assert!(!line.contains('\n'));
    }
}
