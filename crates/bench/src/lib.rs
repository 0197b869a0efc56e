//! Experiment harness for the `bagsched` reproduction.
//!
//! The paper (Grage, Jansen, Klein; SPAA 2019) is theory-only, so the
//! "tables and figures" regenerated here are the executable versions of
//! its illustrative figures plus the evaluation suite derived from its
//! quantitative claims; `experiments list` prints the experiment index.
//!
//! Run everything in parallel and emit machine-readable perf reports:
//! ```text
//! cargo run --release -p bagsched-bench --bin experiments -- \
//!     all --quick --jobs 2 --json bench-out --compare BENCH_baseline.json
//! ```
//! or a single experiment by id (`fig1`, `ratio-small`, `scaling-n`, ...).
//!
//! * [`runner`] shards experiment cells across worker threads; output is
//!   byte-identical to a sequential run for any `--jobs`.
//! * [`json`] defines the `BENCH_*.json` schema and the `--compare`
//!   regression gate CI enforces.

pub mod experiments;
pub mod json;
pub mod runner;
pub mod table;

pub use json::{Baseline, BenchRecord, Comparison};
pub use runner::{run_experiments, ExperimentOutcome};
pub use table::Table;
