//! Tracing overhead: simulator throughput with no sink attached (the
//! common production configuration: one `Option` branch per emission
//! site) and with a live [`JsonlSink`] rendering every event into
//! `io::sink()`, which pays for event construction and JSON rendering
//! but no I/O.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use beri_sim::{Machine, MachineConfig, StepResult};
use cheri_asm::{reg, Asm};
use cheri_trace::{shared, JsonlSink, SharedSink};

/// A memory-heavy loop: every iteration is a load + store + ALU work,
/// exercising the cache/tag emission paths, ending in a syscall.
fn mem_loop(iters: i64) -> cheri_asm::Program {
    let mut a = Asm::new(0x1000);
    let top = a.new_label();
    a.li64(reg::T1, 0x8000);
    a.li64(reg::T0, iters);
    a.bind(top).unwrap();
    a.sd(reg::T0, reg::T1, 0);
    a.ld(reg::V0, reg::T1, 8);
    a.daddu(reg::V1, reg::V0, reg::T0);
    a.daddiu(reg::T0, reg::T0, -1);
    a.bgtz(reg::T0, top);
    a.syscall(0);
    a.finalize().unwrap()
}

fn run_to_syscall(m: &mut Machine) {
    loop {
        match m.step().unwrap() {
            StepResult::Continue => {}
            StepResult::Syscall => break,
            other => panic!("{other:?}"),
        }
    }
}

fn run_with_sink(prog: &cheri_asm::Program, sink: Option<SharedSink>) -> u64 {
    let mut m = Machine::new(MachineConfig { mem_bytes: 1 << 20, ..MachineConfig::default() });
    m.set_trace_sink(sink);
    m.load_code(prog.base, &prog.words).unwrap();
    m.cpu.jump_to(prog.entry);
    run_to_syscall(&mut m);
    m.stats.instructions
}

fn bench_trace_overhead(c: &mut Criterion) {
    const ITERS: i64 = 20_000;
    let prog = mem_loop(ITERS);
    let mut g = c.benchmark_group("trace_overhead");
    g.throughput(Throughput::Elements(ITERS as u64 * 6));

    g.bench_function("baseline_no_sink", |b| b.iter(|| run_with_sink(&prog, None)));
    g.bench_function("jsonl_sink", |b| {
        b.iter(|| run_with_sink(&prog, Some(shared(JsonlSink::new(Box::new(std::io::sink()))))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200))
        .sample_size(20);
    targets = bench_trace_overhead
}
criterion_main!(benches);
