//! `bench noise`: the A/A study the bounds are set from, and `bench compare`:
//! two saved run sets held against those bounds.

use crate::json::{self, Json};
use crate::spec::{all_workloads, Metric, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{iqr_share, median, quartiles_exclusive, worsening, Better};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One finished run as saved in a run-set file.
struct SavedRun {
    workload: String,
    seed: u64,
    /// `--seconds` of the run.
    seconds: u64,
    result: Json,
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn set_from_json(doc: &Json) -> Result<Vec<SavedRun>, String> {
    doc.as_array()
        .ok_or("expected an array of runs")?
        .iter()
        .map(|run| {
            let workload = run
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("run without a workload")?;
            let result = run.get("result").ok_or("run without a result")?;
            let number = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
            Ok(SavedRun {
                workload: workload.to_string(),
                seed: number("seed"),
                seconds: number("seconds"),
                result: result.clone(),
            })
        })
        .collect()
}

fn load_set(path: &str) -> Result<Vec<SavedRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    set_from_json(&doc).map_err(|e| format!("{path}: {e}"))
}

fn set_to_json(runs: &[SavedRun]) -> Json {
    Json::Arr(
        runs.iter()
            .map(|run| {
                Json::obj([
                    ("workload", Json::str(run.workload.as_str())),
                    ("seed", Json::Num(run.seed as f64)),
                    ("seconds", Json::Num(run.seconds as f64)),
                    ("result", run.result.clone()),
                ])
            })
            .collect(),
    )
}

fn values(runs: &[SavedRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload)
        .filter_map(|r| metric_value(&r.result, metric))
        .collect()
}

/// How a metric moved from set `a` to set `b`, by the rules of the
/// choosing-metrics guide: a regression is a median worse by more than the
/// bound; a gain needs nine tenths of the pairs and a median shift beyond the
/// parent's own quartile distance; a spread wider than the bound resolves
/// nothing.
pub fn verdict(a: &[f64], b: &[f64], m: &Metric) -> &'static str {
    let worse = worsening(median(a), median(b), m.better);
    if worse > m.bound {
        return "regressed";
    }
    if iqr_share(a) > m.bound || iqr_share(b) > m.bound {
        return "unresolved";
    }
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| match m.better {
            Better::Higher => y > x,
            Better::Lower => y < x,
        })
        .count();
    let spread = quartiles_exclusive(a).map_or(0.0, |(q1, q3)| q3 - q1);
    if pairs > 0 && wins * 10 >= pairs * 9 && (median(a) - median(b)).abs() > spread && worse < 0.0
    {
        "improved"
    } else {
        "unchanged"
    }
}

fn quartile_text(v: &[f64]) -> String {
    match quartiles_exclusive(v) {
        Some((q1, q3)) => format!("{:.4} [{q1:.4} .. {q3:.4}]", median(v)),
        None => format!("{:.4}", median(v)),
    }
}

/// `bench compare A.json B.json`.
pub fn run_compare(args: &[String]) -> i32 {
    let [a_path, b_path] = args else {
        eprintln!("usage: bench compare A.json B.json");
        return 2;
    };
    let (a, b) = match (load_set(a_path), load_set(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<18} {:<20} {:<34} {:<34} {:>8}  verdict",
        "workload", "metric", "A median [q1 .. q3]", "B median [q1 .. q3]", "change"
    );
    let mut regressed = 0;
    // The by-hand workload too, when the sets hold runs of it.
    for w in all_workloads() {
        for m in &END_TO_END {
            let (va, vb) = (values(&a, w.name, m.name), values(&b, w.name, m.name));
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            if va.is_empty() || vb.is_empty() {
                println!("{:<18} {:<20} no runs in one of the sets", w.name, m.name);
                continue;
            }
            let v = verdict(&va, &vb, m);
            regressed += usize::from(v == "regressed");
            println!(
                "{:<18} {:<20} {:<34} {:<34} {:>+7.1}%  {v} (bound {:.0}%, {} is better)",
                w.name,
                m.name,
                quartile_text(&va),
                quartile_text(&vb),
                (median(&vb) - median(&va)) / median(&va) * 100.0,
                m.bound * 100.0,
                m.better.as_str(),
            );
        }
    }
    i32::from(regressed > 0)
}

/// Runs one workload in a child process, keeps what it printed (the per-block
/// lists) in `log_dir`, and returns its result line.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    log_dir: &Path,
) -> Result<Json, String> {
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let _ = std::fs::create_dir_all(log_dir).and_then(|()| {
        std::fs::write(
            log_dir.join(format!("{workload}-{seed}.txt")),
            stdout.as_bytes(),
        )
    });
    let line = stdout.lines().last().ok_or("the run printed nothing")?;
    let result = json::parse(line).map_err(|e| format!("bad result line: {e}"))?;
    if !out.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run failed or incorrect: {line}"));
    }
    Ok(result)
}

/// The NOISE.md table from two run sets of the same code.
fn noise_table(a: &[SavedRun], b: &[SavedRun]) -> (String, usize) {
    let runs = (a.len() + b.len()) / WORKLOADS.len();
    let seconds = a.first().map_or(0, |r| r.seconds);
    let mut out = String::new();
    let mut violations = 0;
    let _ = writeln!(out, "# A/A noise study\n");
    let _ = writeln!(
        out,
        "{runs} runs of {seconds} s per workload on the same code, each with its own seed; odd runs form\n\
         set A and even runs set B, interleaved across workloads. `A-vs-B` is how much worse B's median is\n\
         than A's (negative = better) and must stay within half the bound; `IQR/median` is over all runs\n\
         (quartiles as Python's `statistics.quantiles(v, n=4)`) and must stay within the bound. Written by\n\
         `benchmark/run.sh noise`; the bounds in `BENCHMARK.json` are set from this table (README, \"Bounds\").\n"
    );
    let _ = writeln!(
        out,
        "| workload | metric | median A | median B | A-vs-B | IQR/median | bound | ok |"
    );
    let _ = writeln!(out, "|---|---|---:|---:|---:|---:|---:|---|");
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values(a, w.name, m.name), values(b, w.name, m.name));
            let all: Vec<f64> = va.iter().chain(&vb).copied().collect();
            let diff = worsening(median(&va), median(&vb), m.better);
            let spread = iqr_share(&all);
            let ok = diff.abs() <= m.bound / 2.0 && spread <= m.bound;
            violations += usize::from(!ok);
            let _ = writeln!(
                out,
                "| {} | {} | {:.4} | {:.4} | {:+.1}% | {:.1}% | {:.0}% | {} |",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                diff * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                if ok { "yes" } else { "NO" },
            );
        }
    }
    (out, violations)
}

/// `bench noise [--runs N] [--seconds S] [--reuse]`: N runs per workload,
/// written to `NOISE.md` in the benchmark directory, the two sets saved beside
/// the binaries for `bench compare`. With `--reuse` nothing is run: the table
/// is rebuilt from the saved sets (after a bound was changed).
pub fn run_noise(args: &[String]) -> i32 {
    let number = |name: &str, default: u64| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map_or(Ok(default), |v| v.parse::<u64>())
    };
    let (Ok(runs), Ok(seconds)) = (number("--runs", 10), number("--seconds", RUN_SECONDS)) else {
        eprintln!("usage: bench noise [--runs N] [--seconds S] [--reuse]");
        return 2;
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("bench noise: cannot resolve this executable");
        return 2;
    };
    let bench_dir =
        std::env::var_os("MVTEE_BENCH_DIR").map_or_else(|| PathBuf::from("."), PathBuf::from);
    let out_dir = std::env::var_os("MVTEE_BENCH_OUT")
        .map(PathBuf::from)
        .or_else(|| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let paths = [out_dir.join("noise-A.json"), out_dir.join("noise-B.json")];
    let mut sets: [Vec<SavedRun>; 2] = [Vec::new(), Vec::new()];
    if args.iter().any(|a| a == "--reuse") {
        for (set, path) in sets.iter_mut().zip(&paths) {
            match load_set(&path.to_string_lossy()) {
                Ok(runs) => *set = runs,
                Err(e) => {
                    eprintln!("bench noise: {e}");
                    return 2;
                }
            }
        }
    } else {
        for run in 1..=runs {
            for w in &WORKLOADS {
                let seed = 1000 + run;
                match child_run(&exe, w.name, seed, seconds, &out_dir.join("noise-logs")) {
                    Ok(result) => {
                        eprintln!("noise run {run}/{runs} {}: ok", w.name);
                        sets[usize::from(run % 2 == 0)].push(SavedRun {
                            workload: w.name.to_string(),
                            seed,
                            seconds,
                            result,
                        });
                    }
                    Err(e) => {
                        eprintln!("bench noise: run {run} of {}: {e}", w.name);
                        return 1;
                    }
                }
            }
        }
    }
    let (table, violations) = noise_table(&sets[0], &sets[1]);
    print!("{table}");
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&paths[0], set_to_json(&sets[0]).pretty()))
        .and_then(|()| std::fs::write(&paths[1], set_to_json(&sets[1]).pretty()))
        .and_then(|()| std::fs::write(bench_dir.join("NOISE.md"), &table));
    if let Err(e) = written {
        eprintln!("bench noise: cannot write results: {e}");
        return 1;
    }
    eprintln!(
        "wrote {} and {}/noise-{{A,B}}.json; {violations} row(s) outside the rule",
        bench_dir.join("NOISE.md").display(),
        out_dir.display()
    );
    i32::from(violations > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAT: Metric = Metric {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_guide() {
        let a: Vec<f64> = (0..10).map(|i| 6.0 + 0.01 * f64::from(i)).collect();
        let same: Vec<f64> = a.iter().map(|v| v + 0.005).collect();
        assert_eq!(verdict(&a, &same, &LAT), "unchanged");
        let slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&a, &slower, &LAT), "regressed");
        let faster: Vec<f64> = a.iter().map(|v| v * 0.9).collect();
        assert_eq!(verdict(&a, &faster, &LAT), "improved");
        // A spread wider than the bound resolves nothing.
        let noisy: Vec<f64> = (0..10).map(|i| 5.0 + 0.3 * f64::from(i)).collect();
        assert_eq!(verdict(&noisy, &noisy, &LAT), "unresolved");
    }

    #[test]
    fn run_sets_round_trip_through_their_file_format() {
        let result = json::parse(
            r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"latency_p50_ms": {"value": 6.25, "unit": "ms"}}}"#,
        )
        .unwrap();
        let run = SavedRun {
            workload: "serve-small".into(),
            seed: 7,
            seconds: 30,
            result,
        };
        let text = set_to_json(&[run]).pretty();
        let loaded = set_from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!((loaded[0].seed, loaded[0].seconds), (7, 30));
        assert_eq!(values(&loaded, "serve-small", "latency_p50_ms"), [6.25]);
        assert!(values(&loaded, "serve-compute", "latency_p50_ms").is_empty());
        assert!(set_from_json(&Json::Null).is_err());
    }
}
