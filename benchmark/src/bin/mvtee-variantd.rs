//! The variant worker the `dist-loopback` workload spawns: the benchmark's
//! own copy of the launcher, so a run never depends on the root package's
//! `target/` directory. All behaviour lives in `mvtee::worker::run_worker`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (addr, resume) = match args.as_slice() {
        [_, flag, addr] if flag == "--connect" => (addr, false),
        [_, flag, addr, resume] if flag == "--connect" && resume == "--resume" => (addr, true),
        _ => {
            eprintln!("usage: mvtee-variantd --connect HOST:PORT [--resume]");
            return ExitCode::from(2);
        }
    };
    match mvtee::worker::run_worker(addr, resume) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mvtee-variantd: {e}");
            ExitCode::FAILURE
        }
    }
}
