//! Tracing must be observation-only: attaching a sink (disabled or
//! live) must not perturb the simulated machine. A treeadd run with no
//! sink, with a `NullSink`, and with a live `AggregateSink` must reach
//! bit-identical architectural end-states — same registers, same cycle
//! count, same physical memory image.

use cheri_olden::dsl::{compile_bench, machine_config, DslBench};
use cheri_olden::OldenParams;
use cheri_os::{boot, KernelConfig, RunOutcome};
use cheri_sweep::StrategyKind;
use cheri_trace::{names, shared, AggregateSink, AnySink, NullSink, SharedSink};

/// FNV-1a over the whole physical memory image.
fn mem_digest(machine: &beri_sim::Machine) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut buf = [0u8; 4096];
    let mut addr = 0u64;
    while addr < machine.mem.size() {
        machine.mem.read_bytes(addr, &mut buf).unwrap();
        for b in buf {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3);
        }
        addr += buf.len() as u64;
    }
    hash
}

/// End-state of one instrumented (or not) treeadd run.
struct EndState {
    outcome: RunOutcome,
    gpr: [u64; 32],
    digest: u64,
}

fn run_treeadd(sink: Option<SharedSink>) -> EndState {
    let bench = DslBench::Treeadd;
    let params = OldenParams::scaled();
    let strategy = StrategyKind::Cheri256.strategy();
    let program = compile_bench(bench, &params, strategy.as_ref()).unwrap();
    let machine = machine_config(bench, &params, strategy.as_ref());
    let user_top = (machine.mem_bytes as u64).max(16 << 20) + (16 << 20);
    let layout = cheri_os::ProcessLayout {
        stack_top: user_top - 4096,
        user_top,
        ..cheri_os::ProcessLayout::default()
    };
    let mut kernel = boot(KernelConfig { machine, layout, ..KernelConfig::default() });
    kernel.set_trace_sink(sink);
    let outcome = kernel.exec_and_run(&program).unwrap();
    EndState { outcome, gpr: kernel.machine().cpu.gpr, digest: mem_digest(kernel.machine()) }
}

#[test]
fn sinks_do_not_perturb_the_machine() {
    let bare = run_treeadd(None);
    let null = run_treeadd(Some(shared(AnySink::Null(NullSink))));
    let agg_sink = shared(AnySink::Aggregate(AggregateSink::new()));
    let agg = run_treeadd(Some(agg_sink.clone()));

    for other in [&null, &agg] {
        assert_eq!(bare.outcome.exit, other.outcome.exit);
        assert_eq!(bare.outcome.stats.cycles, other.outcome.stats.cycles);
        assert_eq!(bare.outcome.stats.instructions, other.outcome.stats.instructions);
        assert_eq!(bare.outcome.prints, other.outcome.prints);
        assert_eq!(bare.gpr, other.gpr);
        assert_eq!(bare.digest, other.digest, "physical memory images diverged");
    }

    // And the live sink must have aggregated exactly what the legacy
    // counters recorded.
    let streamed = match &*agg_sink.borrow() {
        AnySink::Aggregate(a) => a.snapshot(),
        _ => unreachable!(),
    };
    let legacy = &agg.outcome.metrics;
    for name in [
        names::INSTRUCTIONS,
        names::L1D_HITS,
        names::L1D_MISSES,
        names::L2_MISSES,
        names::TLB_REFILLS,
        names::TAG_CACHE_HITS,
        names::TAG_TABLE_WRITES,
        names::LOADS,
        names::STORES,
        names::SYSCALLS,
    ] {
        assert_eq!(streamed.counter(name), legacy.counter(name), "parity broke for {name}");
    }
    assert!(streamed.counter(names::INSTRUCTIONS) > 0);
}
