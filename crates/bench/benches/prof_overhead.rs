//! Profiling overhead: end-to-end job throughput with the guest
//! profiler detached (the shipping configuration) vs attached, in both
//! simulator execution modes.
//!
//! The design target: with no profiler attached the only added cost is
//! one `Option::is_some()` branch per retired instruction, so the
//! detached numbers must sit within noise of the pre-profiler
//! `sim_throughput` baselines recorded in EXPERIMENTS.md. An attached
//! profiler pays for real per-PC counter updates and stack tracking and
//! is expected to be measurably slower. Both modes are asserted
//! architecturally identical on every sample — profiling is
//! observational.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cheri_olden::OldenParams;
use cheri_sweep::{JobSpec, RunOpts, StrategyKind};
use cheri_work::Workload;

fn spec(workload: Workload, strategy: StrategyKind) -> JobSpec {
    JobSpec::new(workload, strategy, OldenParams::scaled())
}

/// Runs `spec` (block cache forced to `enabled`) with or without a
/// profiler; returns (instructions, cycles) for the throughput
/// denominator and the transparency assertion.
fn run(spec: &JobSpec, enabled: bool, profiled: bool) -> (u64, u64) {
    let opts = RunOpts { block_cache: Some(enabled), profile: profiled, ..RunOpts::default() };
    let out = cheri_sweep::run(spec, opts).expect("bench workload runs");
    let stats = out.result.run.outcome.stats;
    if let Some(profile) = out.profile {
        assert_eq!(
            profile.total.retired, stats.instructions,
            "profile must account for every retired instruction"
        );
    }
    (stats.instructions, stats.cycles)
}

fn bench_prof_overhead(c: &mut Criterion) {
    let jobs = [
        ("treeadd/mips", spec(Workload::Treeadd, StrategyKind::Mips)),
        ("treeadd/cheri", spec(Workload::Treeadd, StrategyKind::Cheri256)),
    ];
    let mut g = c.benchmark_group("prof_overhead");
    for (name, job) in &jobs {
        let expect = run(job, true, false);
        assert_eq!(expect, run(job, true, true), "profiling must be transparent");
        g.throughput(Throughput::Elements(expect.0));
        for (mode, enabled) in [("block_cache", true), ("interpreter", false)] {
            g.bench_function(&format!("{name}/{mode}/prof_off"), |b| {
                b.iter(|| {
                    let got = run(job, enabled, false);
                    assert_eq!(got, expect);
                    got
                })
            });
            g.bench_function(&format!("{name}/{mode}/prof_on"), |b| {
                b.iter(|| {
                    let got = run(job, enabled, true);
                    assert_eq!(got, expect);
                    got
                })
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_prof_overhead
}
criterion_main!(benches);
