//! End-to-end simulator throughput: host time to run a Figure 4-style
//! workload (an Olden benchmark compiled under a pointer strategy and
//! executed under the OS substrate) with the predecoded basic-block
//! cache on vs off.
//!
//! This is the bench behind the block-cache speedup claims in
//! EXPERIMENTS.md: both configurations execute the exact same guest
//! work (the block cache is architecturally transparent — asserted
//! here on every sample), so the throughput ratio is the interpreter
//! overhead the cache removes. `xsweep --perf` measures the same
//! quantity over the whole experiment matrix.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use cheri_olden::OldenParams;
use cheri_sweep::{JobSpec, RunOpts, StrategyKind};
use cheri_work::Workload;

/// One fig4-style job: workload × strategy at smoke-profile size (small
/// enough for Criterion's sample counts, big enough that the guest loop
/// dominates compile/boot).
fn spec(workload: Workload, strategy: StrategyKind) -> JobSpec {
    JobSpec::new(workload, strategy, OldenParams::scaled())
}

/// Runs `spec` with the block cache forced to `enabled`; returns
/// (instructions, cycles) for the throughput denominator and the
/// transparency assertion.
fn run(spec: &JobSpec, enabled: bool) -> (u64, u64) {
    let opts = RunOpts { block_cache: Some(enabled), ..RunOpts::default() };
    let stats = cheri_sweep::run(spec, opts).expect("bench workload runs").result.run.outcome.stats;
    (stats.instructions, stats.cycles)
}

fn bench_sim_throughput(c: &mut Criterion) {
    let jobs = [
        ("treeadd/mips", spec(Workload::Treeadd, StrategyKind::Mips)),
        ("treeadd/cheri", spec(Workload::Treeadd, StrategyKind::Cheri256)),
        ("mst/cheri", spec(Workload::Mst, StrategyKind::Cheri256)),
    ];
    let mut g = c.benchmark_group("sim_throughput");
    for (name, job) in &jobs {
        // The guest retires the same instruction stream either way; use
        // it as the element count so Criterion reports guest
        // instructions per host second.
        let (instructions, cycles) = run(job, true);
        assert_eq!((instructions, cycles), run(job, false), "block cache must be transparent");
        g.throughput(Throughput::Elements(instructions));
        g.bench_function(&format!("{name}/block_cache"), |b| {
            b.iter(|| {
                let got = run(job, true);
                assert_eq!(got, (instructions, cycles));
                got
            })
        });
        g.bench_function(&format!("{name}/interpreter"), |b| {
            b.iter(|| {
                let got = run(job, false);
                assert_eq!(got, (instructions, cycles));
                got
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(10);
    targets = bench_sim_throughput
}
criterion_main!(benches);
