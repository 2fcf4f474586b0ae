//! The MVTEE experiment harness: the paper's tables and figures, and the
//! system's gates as subcommands. `experiments --help` prints what there
//! is to run; it, and the error for an unknown name, are generated from
//! [`SUBCOMMANDS`] and [`FIGURES`], so a new row is a new entry there and
//! nothing else. What each subcommand checks is its module's documentation
//! (`mvtee_bench::{chaos, perf, serve, trace, dist, netchaos, coldstart}`).
//!
//! Shared flags: `--seed N`, `--quick` (Test-scale models and a subset,
//! the CI smoke), `--out PATH`, `--quiet`; the figures take `--markdown`
//! (GitHub tables for `EXPERIMENTS.md`) and default to `all`.
//!
//! Output discipline: stdout carries only the deliverables — JSON
//! reports, figure tables, the audit summary — via `report!`; progress,
//! human summaries and telemetry go to stderr via `CommonArgs::status`,
//! which `--quiet` silences. Errors always reach stderr. Exit status: 0,
//! 1 when a gate failed or an artifact could not be written, 2 on a usage
//! error.

use mvtee_bench::cli::{self, CommonArgs, Outcome};
use mvtee_bench::experiments::{
    ablation_metric, ablation_weight_fn, fig10, fig11, fig12, fig13, fig14, fig9,
    security_faults, table1, telemetry_report, Settings,
};
use mvtee_bench::fixture::Json;
use mvtee_bench::table::Table;
use mvtee_bench::{chaos, coldstart, dist, netchaos, perf, serve, trace};

/// A machine payload or figure table: always printed, always stdout —
/// never interleaved with chatter.
macro_rules! report {
    ($($arg:tt)*) => { println!($($arg)*) };
}

/// One row of the subcommand table.
struct Subcommand {
    name: &'static str,
    /// One line of `--help`.
    summary: &'static str,
    /// The flags it takes, as `--help` prints them.
    usage: &'static str,
    /// Default paths of the artifacts it writes, `--out` first.
    artifacts: &'static [&'static str],
    /// Runs it: the shared flags, then every argument after the name.
    run: fn(&CommonArgs, &[String]) -> Outcome,
}

/// Every subcommand, in `--help` order.
const SUBCOMMANDS: [Subcommand; 9] = [
    Subcommand {
        name: "campaign",
        summary: "seeded fault-injection campaign; prints its JSON report; fails on any MISSED scenario",
        usage: "[--seed N] [--count N] [--no-shrink]",
        artifacts: &[],
        run: campaign,
    },
    Subcommand {
        name: "chaos",
        summary: "self-healing storms (bit flip + hang + lossy channel at once); fails unless every storm heals",
        usage: "[--seed N] [--scenarios N] [--quick]",
        artifacts: &[],
        run: chaos::command,
    },
    Subcommand {
        name: "perf",
        summary: "runtime byte-identity sweep over threads, families and kernel strategies; fails on any mismatch",
        usage: "[--quick] [--out PATH]",
        artifacts: &[perf::ARTIFACT],
        run: perf::command,
    },
    Subcommand {
        name: "serve",
        summary: "multi-tenant load under quarantine/recovery; fails on a wrong, lost or double-served request",
        usage: "[--seed N] [--quick] [--out PATH]",
        artifacts: &[serve::ARTIFACT],
        run: serve::command,
    },
    Subcommand {
        name: "trace",
        summary: "traced vs untraced runs and the flight recorder; fails unless transcripts and outputs are identical",
        usage: "[--seed N] [--quick] [--out PATH] [--trace-out PATH]",
        artifacts: &trace::ARTIFACTS,
        run: trace::command,
    },
    Subcommand {
        name: "dist",
        summary: "out-of-process workers vs in-process reference, and a worker kill; needs mvtee-variantd built",
        usage: "[--seed N] [--quick] [--out PATH]",
        artifacts: &[dist::ARTIFACT],
        run: dist::command,
    },
    Subcommand {
        name: "netchaos",
        summary: "eight wire-fault classes, flap and reconnect probes; fails on a missed detection or failed heal",
        usage: "[--seed N] [--quick] [--out PATH]",
        artifacts: &[netchaos::ARTIFACT],
        run: netchaos::command,
    },
    Subcommand {
        name: "coldstart",
        summary: "encrypted registry provisioning and cold-start serving; fails on plaintext, corruption or mismatch",
        usage: "[--seed N] [--quick] [--out PATH]",
        artifacts: &[coldstart::ARTIFACT],
        run: coldstart::command,
    },
    Subcommand {
        name: "audit",
        summary: "replays a transcript's hash chain; fails on any tamper or gap",
        usage: "TRANSCRIPT",
        artifacts: &[],
        run: audit,
    },
];

type Figure = fn(&Settings) -> Table;

/// The paper's tables and figures: name, then the tables it renders.
const FIGURES: [(&str, &[Figure]); 9] = [
    ("fig9", &[fig9]),
    ("fig10", &[fig10]),
    ("fig11", &[fig11]),
    ("fig12", &[fig12]),
    ("fig13", &[fig13]),
    ("fig14", &[fig14]),
    ("table1", &[table1]),
    ("security", &[security_faults]),
    ("ablation", &[ablation_weight_fn, ablation_metric]),
];

/// The `campaign` subcommand (`mvtee-campaign`): the JSON report goes to
/// stdout.
fn campaign(common: &CommonArgs, args: &[String]) -> Outcome {
    let count = cli::flag_value(args, "--count", 64);
    let mut cfg = mvtee_campaign::CampaignConfig::new(common.seed, count);
    cfg.shrink = !cli::has_flag(args, "--no-shrink");
    let report = mvtee_campaign::run_campaign(&cfg);
    let missed = report.matrix.total_missed();
    let failure = format!("{missed} scenario(s) violated the detection invariant");
    Outcome {
        status: report.render_text(),
        report: report.render_json(),
        failures: (missed > 0).then_some(failure).into_iter().collect(),
        ..Outcome::default()
    }
}

/// The `audit` subcommand: verifies the transcript at the first
/// positional argument.
fn audit(_common: &CommonArgs, args: &[String]) -> Outcome {
    let Some(path) = args.iter().find(|a| !a.starts_with("--")) else {
        eprintln!("usage: experiments audit TRANSCRIPT");
        std::process::exit(2);
    };
    let verdict = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {path}: {e}"))
        .and_then(|text| {
            mvtee::transcript::verify_transcript(&text).map_err(|e| format!("audit failed: {e}"))
        });
    match verdict {
        Err(failure) => Outcome { failures: vec![failure], ..Outcome::default() },
        Ok(summary) => Outcome {
            status: format!(
                "# audit ok: {} entries over {} partition(s), {} pass / {} diverged",
                summary.entries, summary.partitions, summary.passes, summary.divergences
            ),
            report: Json::obj([
                ("audit", "ok".into()),
                ("seed", summary.seed.into()),
                ("fingerprint", summary.fingerprint.as_str().into()),
                ("entries", summary.entries.into()),
                ("partitions", summary.partitions.into()),
                ("passes", summary.passes.into()),
                ("divergences", summary.divergences.into()),
                ("head", summary.head.as_str().into()),
            ])
            .render(),
            ..Outcome::default()
        },
    }
}

fn figure_names() -> Vec<&'static str> {
    FIGURES.iter().map(|(name, _)| *name).collect()
}

/// The `--help` text.
fn usage() -> String {
    let mut text = format!(
        "usage: experiments [--quick] [--markdown] [--quiet] [{}|all]\n",
        figure_names().join("|")
    );
    for sub in &SUBCOMMANDS {
        text.push_str(&format!("       experiments {} {}\n", sub.name, sub.usage));
    }
    text.push('\n');
    for sub in &SUBCOMMANDS {
        text.push_str(&format!("  {:<10} {}", sub.name, sub.summary));
        if !sub.artifacts.is_empty() {
            text.push_str(&format!(" (writes {})", sub.artifacts.join(", ")));
        }
        text.push('\n');
    }
    text
}

/// Runs one subcommand: print, write the artifacts, judge the gates.
fn drive(sub: &Subcommand, args: &[String]) -> i32 {
    let common = CommonArgs::parse(args, 7);
    let scale = if common.quick { "quick" } else { "full" };
    common.status(&format!("# running {} (seed={}, {scale}) …", sub.name, common.seed));
    let outcome = (sub.run)(&common, args);
    if !outcome.status.is_empty() {
        common.status(&outcome.status);
    }
    if !outcome.report.is_empty() {
        report!("{}", outcome.report.trim_end());
    }
    for (path, contents) in &outcome.artifacts {
        if let Err(e) = std::fs::write(path, contents) {
            eprintln!("error: could not write {path}: {e}");
            return 1;
        }
        common.status(&format!("# wrote {path}"));
    }
    // What the instrumented pipeline recorded during the run, with every
    // metric registered up front so "never fired" shows as a zero.
    common.status(&telemetry_report());
    for failure in &outcome.failures {
        eprintln!("error: {failure}");
    }
    i32::from(!outcome.failures.is_empty())
}

/// Renders the selected tables and figures (default: all).
fn figures(args: &[String]) -> i32 {
    let common = CommonArgs::parse(args, 7);
    let figures = figure_names();
    let selected: Vec<&str> =
        args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if let Some(unknown) = selected.iter().find(|s| **s != "all" && !figures.contains(s)) {
        let subs: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        eprintln!(
            "error: unknown experiment '{unknown}' (expected one of {figures:?} or \"all\", \
             or a subcommand: {subs:?})"
        );
        return 2;
    }
    let settings = if common.quick { Settings::quick() } else { Settings::full() };
    common.status(&format!(
        "# MVTEE experiments ({} scale, models: {:?}, {} batches/stream)\n\
         # methodology: measured component costs composed by a calibrated pipeline model;\n\
         # Table 1 and the security experiments run the real threaded system.\n",
        if common.quick { "test" } else { "bench" },
        settings.models.iter().map(|m| m.display_name()).collect::<Vec<_>>(),
        settings.batches,
    ));
    let run_all = selected.is_empty() || selected.contains(&"all");
    let mut tables: Vec<Table> = Vec::new();
    for (name, renderers) in FIGURES.iter().filter(|(n, _)| run_all || selected.contains(n)) {
        common.status(&format!("running {name} …"));
        tables.extend(renderers.iter().map(|render| render(&settings)));
    }
    let markdown = cli::has_flag(args, "--markdown");
    for t in &tables {
        report!("{}", if markdown { t.render_markdown() } else { t.render() });
    }
    common.status(&telemetry_report());
    0
}

/// The whole program but the exit: a subcommand when the first argument
/// names one, the figures otherwise.
fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", usage());
        return 0;
    }
    // Which AES-GCM and SHA-256 cores this host runs: without them a run on
    // a CPU that fell back to a portable core reads as an unexplained
    // slowdown.
    if !cli::has_flag(args, "--quiet") {
        eprintln!("# aes-gcm core: {}", mvtee_crypto::gcm::core_name());
        eprintln!("# sha-256 core: {}", mvtee_crypto::sha256::core_name());
    }
    match args.first().and_then(|name| SUBCOMMANDS.iter().find(|s| s.name == name)) {
        Some(sub) => drive(sub, &args[1..]),
        None => figures(args),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(run(&args));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn every_name_is_unique_and_appears_in_the_usage() {
        let mut names: Vec<&str> = SUBCOMMANDS.iter().map(|s| s.name).collect();
        names.extend(figure_names());
        let text = usage();
        for (i, name) in names.iter().enumerate() {
            assert!(!names[..i].contains(name), "{name} is listed twice");
            assert!(text.contains(name), "{name} missing from --help:\n{text}");
        }
        for sub in &SUBCOMMANDS {
            let line = format!("experiments {} {}\n", sub.name, sub.usage);
            assert!(text.contains(&line), "{} has no usage line:\n{text}", sub.name);
            // A row that writes artifacts must say where, and take --out.
            assert_eq!(sub.usage.contains("--out PATH"), !sub.artifacts.is_empty(), "{}", sub.name);
            assert!(sub.artifacts.iter().all(|path| text.contains(path)), "{}", sub.name);
        }
    }

    #[test]
    fn an_unknown_name_is_a_usage_error_and_help_is_not() {
        assert_eq!(run(&args(&["bogus"])), 2);
        assert_eq!(run(&args(&["--quick", "fig9", "nope"])), 2);
        assert_eq!(run(&args(&["--help"])), 0);
        assert_eq!(run(&args(&["perf", "--help"])), 0);
    }

    #[test]
    fn audit_fails_on_an_unreadable_transcript_without_running_anything() {
        let missing = args(&["audit", "/nonexistent/transcript.jsonl", "--quiet"]);
        assert_eq!(run(&missing), 1);
    }
}
