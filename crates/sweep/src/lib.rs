//! # cheri-sweep — the parallel experiment-sweep engine
//!
//! The paper's evaluation is a matrix: workload × pointer strategy ×
//! capability width × tag-cache configuration. This crate owns that
//! matrix end to end:
//!
//! * [`matrix`] — the canonical axes ([`StrategyKind`], the per-figure
//!   strategy lists, [`heapsize_sweep`], [`profile_matrix`]) and the
//!   one job runner ([`run`] with its [`RunOpts`], and the parallel
//!   [`run_many`]), so every harness iterates the same lists in the same
//!   order and executes them the same way;
//! * [`engine`] — a deterministic work-stealing executor: each job owns
//!   its own `Machine`, workers steal indices from an atomic cursor,
//!   and results are reassembled in index order, so output is
//!   bit-identical at any `--jobs` count;
//! * [`report`] — the integer-only JSON sweep report
//!   (`results/sweep.json`), every reproduced number as a named,
//!   versioned datum;
//! * [`check`] — the CI regression gate: report-vs-baseline diffing
//!   under a per-metric absolute/relative tolerance policy.
//!
//! The `xsweep` binary in `cheri-bench` is the command-line front end;
//! the figure/ablation harnesses are thin text views over the same job
//! results.

pub mod check;
pub mod engine;
pub mod matrix;
pub mod report;

pub use check::{check_reports, comparisons, render_drifts, tolerance_for, Drift, Tolerance};
pub use engine::{default_threads, run_indexed};
pub use matrix::check_tag_cache_kb;
pub use matrix::{
    heapsize_sweep, profile_matrix, run, run_many, run_spec_with_sink, Capture, JobResult, JobSpec,
    Profile, RunOpts, RunOutput, Start, StrategyKind, CAPWIDTH_STRATEGIES, DEFAULT_TAG_CACHE_KB,
    ELISION_STRATEGIES, FIGURE4_STRATEGIES, HEAPSIZE_STRATEGIES, MAX_TAG_CACHE_KB, TAG_ABLATION_KB,
    WARM_SNAPSHOT_PHASE,
};
pub use report::{hit_rate_bp, JobRecord, SweepReport, ARCH_COUNTERS, SCHEMA_VERSION};

/// Runs a whole profile at the given thread count and returns the
/// report (the library form of `xsweep`'s default mode).
///
/// # Errors
///
/// The first failed job's error, prefixed with its key.
pub fn run_matrix(profile: Profile, threads: usize) -> Result<SweepReport, String> {
    let outs = run_many(&profile_matrix(profile), threads, |_| RunOpts::default());
    let results = outs.into_iter().map(|r| r.map(|o| o.result)).collect::<Result<Vec<_>, _>>()?;
    Ok(SweepReport::from_results(profile.name(), &results))
}
