//! The `experiments` shell's vocabulary: the flags every subcommand
//! shares and what one hands back (`bin/experiments.rs` holds the table).
//!
//! [`CommonArgs::parse`] is the single parser of `--seed N`, `--quick`,
//! `--out PATH` and `--quiet`; subcommand-specific flags (`--count`,
//! `--scenarios`, `--trace-out`) use [`flag_value`]/[`flag_path`].

/// What a subcommand hands back for the shell to print, write and judge.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The human summary (stderr, silenced by `--quiet`).
    pub status: String,
    /// The machine payload (stdout); empty when there is none.
    pub report: String,
    /// `(path, contents)` of each artifact to write.
    pub artifacts: Vec<(String, String)>,
    /// Every gate that failed; non-empty means exit status 1.
    pub failures: Vec<String>,
}

/// The flags shared by every `experiments` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonArgs {
    /// `--seed N` (subcommand-chosen default).
    pub seed: u64,
    /// `--quick` — CI-smoke scale.
    pub quick: bool,
    /// `--quiet` — suppress status chatter.
    pub quiet: bool,
    /// `--out PATH`, when given.
    pub out: Option<String>,
}

impl CommonArgs {
    /// Parses the shared flags; exits with a usage error (status 2) on a
    /// malformed value, like the per-flag helpers always did.
    pub fn parse(args: &[String], default_seed: u64) -> Self {
        CommonArgs {
            seed: flag_value(args, "--seed", default_seed),
            quick: has_flag(args, "--quick"),
            quiet: has_flag(args, "--quiet"),
            out: args
                .iter()
                .any(|a| a == "--out")
                .then(|| flag_path(args, "--out", "")),
        }
    }

    /// The `--out` path, or `default` when the flag was absent.
    pub fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_string())
    }

    /// The CI-smoke settings under `--quick`, else the full ones, of
    /// this run's seed.
    pub fn pick<S>(&self, quick: fn(u64) -> S, full: fn(u64) -> S) -> S {
        if self.quick { quick(self.seed) } else { full(self.seed) }
    }

    /// Progress chatter: stderr, silenced by `--quiet`.
    pub fn status(&self, text: &str) {
        if !self.quiet {
            eprintln!("{text}");
        }
    }
}

/// True when `flag` appears anywhere in the argument list.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Parses `--flag N` from the argument list; exits with a usage error on
/// a malformed value.
pub fn flag_value(args: &[String], flag: &str, default: u64) -> u64 {
    match args.iter().position(|a| a == flag) {
        None => default,
        Some(i) => match args.get(i + 1).map(|v| v.parse::<u64>()) {
            Some(Ok(v)) => v,
            _ => {
                eprintln!("error: {flag} requires an unsigned integer value");
                std::process::exit(2);
            }
        },
    }
}

/// Parses `--flag PATH` from the argument list; exits with a usage error
/// when the path is missing.
pub fn flag_path(args: &[String], flag: &str, default: &str) -> String {
    match args.iter().position(|a| a == flag) {
        None => default.to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("error: {flag} requires a path");
                std::process::exit(2);
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn defaults_apply_when_flags_are_absent() {
        let c = CommonArgs::parse(&args(&[]), 7);
        assert_eq!(c, CommonArgs { seed: 7, quick: false, quiet: false, out: None });
        assert_eq!(c.out_or("BENCH_x.json"), "BENCH_x.json");
    }

    #[test]
    fn every_shared_flag_parses() {
        let c = CommonArgs::parse(
            &args(&["--seed", "42", "--quick", "--quiet", "--out", "report.json"]),
            7,
        );
        assert_eq!(
            c,
            CommonArgs {
                seed: 42,
                quick: true,
                quiet: true,
                out: Some("report.json".into())
            }
        );
        assert_eq!(c.out_or("BENCH_x.json"), "report.json");
    }

    #[test]
    fn pick_follows_quick_and_passes_the_seed() {
        let quick = CommonArgs::parse(&args(&["--quick", "--seed", "9"]), 7);
        assert_eq!(quick.pick(|s| ("quick", s), |s| ("full", s)), ("quick", 9));
        let full = CommonArgs::parse(&args(&[]), 7);
        assert_eq!(full.pick(|s| ("quick", s), |s| ("full", s)), ("full", 7));
    }

    #[test]
    fn subcommand_specific_flags_pass_through() {
        let a = args(&["--count", "16", "--trace-out", "t.json"]);
        assert_eq!(flag_value(&a, "--count", 64), 16);
        assert_eq!(flag_path(&a, "--trace-out", "d.json"), "t.json");
        assert_eq!(flag_value(&a, "--scenarios", 8), 8);
    }
}
