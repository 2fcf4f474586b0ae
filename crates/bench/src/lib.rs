//! The MVTEE experiment harness: reproduces the paper's evaluation (§6)
//! and holds the system's *gates*. How fast the system runs is measured in
//! one place, `benchmark/` (`BENCHMARK.json`); nothing here reads a clock
//! for a result except [`costs`] (the figures' inputs) and the heal
//! latencies of [`dist`] and [`netchaos`], which no benchmark row covers.
//!
//! # The paper's figures
//!
//! The paper's testbed is a dual-socket 72-core Xeon; this reproduction
//! runs on whatever machine builds it (often a single core), where genuine
//! multi-core pipeline parallelism is unavailable. The figures therefore
//! separate *measurement* from *composition*:
//!
//! * [`costs`] measures every cost component **for real** through the real
//!   code paths — per-stage per-variant inference times on the diversified
//!   engines, AES-GCM-256 seal/open of the actual checkpoint payload
//!   bytes, serialization, and consistency-metric evaluation;
//! * [`sim`] composes those measured costs with a discrete-event pipeline
//!   simulator under the paper's resource model (each TEE on its own
//!   core, the monitor's coordinator a serial resource per stage), with
//!   per-batch jitter, for sequential and pipelined execution in sync and
//!   async cross-validation modes.
//!
//! # The gates
//!
//! Table 1, the fault-injection runs and every `experiments` subcommand
//! ([`chaos`], [`perf`], [`serve`], [`trace`], [`dist`], [`netchaos`],
//! [`coldstart`]) run the **real threaded system** from the `mvtee` crate
//! and exit non-zero when an invariant breaks: byte identity, exactly-once
//! accounting, detection, healing. They share their inputs, oracle and
//! JSON writer through [`fixture`], and one shell ([`cli`]) runs them all.
//!
//! Run `cargo run --release -p mvtee-bench --bin experiments -- --help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod coldstart;
pub mod costs;
pub mod dist;
pub mod experiments;
pub mod fixture;
pub mod netchaos;
pub mod perf;
pub mod serve;
pub mod sim;
pub mod table;
pub mod trace;
