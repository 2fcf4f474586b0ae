//! `bench`: the repository benchmark. See README.md.
//!
//! ```text
//! bench --workload NAME --seed N --seconds S --trace 0|1   one run
//! bench spec                                               the BENCHMARK.json body
//! bench noise [--runs N] [--seconds S] [--reuse]         the A/A study (NOISE.md)
//! bench compare A.json B.json                              two saved run sets
//! ```

mod alloc;
mod chain;
mod json;
mod layers;
mod load;
mod micro;
mod noise;
mod procstat;
mod run;
mod span;
mod spec;
mod stats;
mod system;

use run::RunArgs;
use spec::Workload;
use std::path::PathBuf;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: bench --workload NAME --seed N --seconds S --trace 0|1
       bench spec
       bench noise [--runs N] [--seconds S] [--reuse]
       bench compare A.json B.json";

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = spec::all_workloads().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let seed = flag(args, "--seed")
        .ok_or("missing --seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(args, "--seconds")
        .ok_or("missing --seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s >= 1.0 && *s <= 600.0)
        .ok_or("--seconds must be a number from 1 to 600")?;
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    // `run.sh` says where it built the binaries; run by hand, the worker is
    // the sibling of this executable.
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .ok_or("cannot resolve the directory of this executable")?;
    let worker_binary = exe_dir.join("mvtee-variantd");
    if !worker_binary.is_file() {
        return Err(format!(
            "worker binary {} not found; build with run.sh",
            worker_binary.display()
        ));
    }
    let out_dir = std::env::var_os("MVTEE_BENCH_OUT").map_or(exe_dir, PathBuf::from);
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
        worker_binary,
    })
}

/// Fails the run with a one-line reason instead of hanging: twice the run
/// length, plus a grace period for set-up and tear-down.
fn arm_watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64(2.0 * seconds + 15.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!(
            "bench: watchdog: the run did not finish within {:.0} s; aborting",
            limit.as_secs_f64()
        );
        system::kill_live_workers();
        std::process::exit(3);
    });
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            0
        }
        Some("noise") => noise::run_noise(&args[1..]),
        Some("compare") => noise::run_compare(&args[1..]),
        Some(first) if first.starts_with("--") && first != "--help" => match parse_run(&args) {
            Ok(run_args) => {
                // A panic anywhere must not leave worker processes behind.
                let default_hook = std::panic::take_hook();
                std::panic::set_hook(Box::new(move |info| {
                    default_hook(info);
                    system::kill_live_workers();
                    std::process::exit(4);
                }));
                arm_watchdog(run_args.seconds);
                if run_args.trace {
                    layers::run_traced(&run_args)
                } else {
                    run::run_end_to_end(&run_args)
                }
            }
            Err(e) => {
                eprintln!("bench: {e}\n{USAGE}");
                2
            }
        },
        _ => {
            eprintln!("{USAGE}");
            2
        }
    };
    std::process::exit(code);
}
