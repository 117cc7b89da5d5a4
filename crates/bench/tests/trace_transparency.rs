//! Tracing must be observation-only and complete. A run with a live
//! `JsonlSink` must reach the same architectural end-state as a run
//! with no sink — same registers, same cycle count, same physical
//! memory image — and its event stream, folded back into counters, must
//! equal the snapshot `Kernel::metrics` exports from the per-struct
//! counters. Two programs are traced: scaled treeadd, and a
//! protection-domain program that makes a domain call and return and
//! then takes a capability exception, so every counted row is
//! exercised by at least one of them.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;

use cheri_asm::{reg, Asm};
use cheri_olden::dsl::{compile_bench, machine_config, DslBench};
use cheri_olden::OldenParams;
use cheri_os::{abi, boot, ExitReason, Kernel, KernelConfig, RunOutcome};
use cheri_sweep::StrategyKind;
use cheri_trace::json::{self, Json};
use cheri_trace::{names, shared, JsonlSink, SharedSink};

/// Counter rows the folded stream must reproduce exactly.
const PARITY: &[&str] = &[
    names::INSTRUCTIONS,
    names::CAP_INSTRUCTIONS,
    names::L1I_HITS,
    names::L1I_MISSES,
    names::L1I_WRITEBACKS,
    names::L1D_HITS,
    names::L1D_MISSES,
    names::L1D_WRITEBACKS,
    names::L2_HITS,
    names::L2_MISSES,
    names::L2_WRITEBACKS,
    names::TLB_REFILLS,
    names::TAG_TABLE_READS,
    names::TAG_TABLE_WRITES,
    names::TAG_CACHE_HITS,
    names::TAG_CACHE_MISSES,
    names::TAG_CACHE_WRITEBACKS,
    names::LOADS,
    names::STORES,
    names::CAP_EXCEPTIONS,
    names::SYSCALLS,
    names::CONTEXT_SWITCHES,
    names::DOMAIN_CALLS,
    names::DOMAIN_RETURNS,
];

type Tally = BTreeMap<&'static str, u64>;

/// A writer that folds the JSONL stream into counters one line at a
/// time, keeping only the current partial line.
struct Fold {
    line: Vec<u8>,
    tally: Rc<RefCell<Tally>>,
}

impl Write for Fold {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        for &b in data {
            if b == b'\n' {
                let line = std::str::from_utf8(&self.line).expect("stream is UTF-8");
                tally(&mut self.tally.borrow_mut(), line);
                self.line.clear();
            } else {
                self.line.push(b);
            }
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Counts one event line under the canonical counter names: each event
/// counts one row, plus a writeback row when it carries `"wb":true`.
fn tally(t: &mut Tally, line: &str) {
    use cheri_trace::names::*;
    let v = json::parse(line).expect("stream line is JSON");
    let ev = v.as_obj().expect("stream line is an object");
    let flag = |k: &str| matches!(ev.get(k), Some(Json::Bool(true)));
    let pick = |k: &str, yes: &'static str, no: &'static str| if flag(k) { yes } else { no };
    let (row, extra) = match ev.get("ev").and_then(Json::as_str).expect("every line is an event") {
        "retire" => (INSTRUCTIONS, flag("cap").then_some(CAP_INSTRUCTIONS)),
        "cache" => {
            let (h, m, w) = match ev.get("level").and_then(Json::as_str) {
                Some("l1i") => (L1I_HITS, L1I_MISSES, L1I_WRITEBACKS),
                Some("l1d") => (L1D_HITS, L1D_MISSES, L1D_WRITEBACKS),
                Some("l2") => (L2_HITS, L2_MISSES, L2_WRITEBACKS),
                other => panic!("unknown cache level {other:?}"),
            };
            (pick("hit", h, m), flag("wb").then_some(w))
        }
        "tag_cache" => (
            pick("hit", TAG_CACHE_HITS, TAG_CACHE_MISSES),
            flag("wb").then_some(TAG_CACHE_WRITEBACKS),
        ),
        "data" => (pick("write", STORES, LOADS), None),
        "domain" => (pick("enter", DOMAIN_CALLS, DOMAIN_RETURNS), None),
        "tlb_refill" => (TLB_REFILLS, None),
        "tag_read" => (TAG_TABLE_READS, None),
        "tag_write" => (TAG_TABLE_WRITES, None),
        "cap_exc" => (CAP_EXCEPTIONS, None),
        "syscall" => (SYSCALLS, None),
        "ctx_switch" => (CONTEXT_SWITCHES, None),
        other => panic!("unknown event kind {other:?}"),
    };
    for name in std::iter::once(row).chain(extra) {
        *t.entry(name).or_insert(0) += 1;
    }
}

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

/// One program, booted and run with `sink` attached before its exec.
type Job = fn(Option<SharedSink>) -> (Kernel, RunOutcome);

fn treeadd(sink: Option<SharedSink>) -> (Kernel, RunOutcome) {
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
    (kernel, outcome)
}

/// Stores once into each of 640 fresh heap pages — 2.5 MB of frames,
/// more than the 2 MB the default tag cache covers, so dirty tag lines
/// are evicted — then calls domain 0 (doubles its argument, returns)
/// and domain 1, which reads past its compartment's C0 and faults.
fn domains(sink: Option<SharedSink>) -> (Kernel, RunOutcome) {
    let mut kernel = boot(KernelConfig::default());
    kernel.set_trace_sink(sink);
    let layout = kernel.layout();
    let (doubler, nosy) = (0x40_0000u64, 0x40_1000u64);

    let mut a = Asm::new(layout.text_base);
    let top = a.new_label();
    a.li64(reg::T0, layout.heap_base as i64);
    a.li64(reg::T1, 640);
    a.bind(top).unwrap();
    a.sd(reg::T1, reg::T0, 0);
    a.daddiu(reg::T0, reg::T0, 4096);
    a.daddiu(reg::T1, reg::T1, -1);
    a.bgtz(reg::T1, top);
    for domain in [0, 1] {
        a.li64(reg::A0, domain);
        a.li64(reg::A1, 21);
        a.li64(reg::V0, abi::SYS_DCALL as i64);
        a.syscall(0);
    }
    a.li64(reg::V0, abi::SYS_EXIT as i64);
    a.syscall(0);
    kernel.exec(&a.finalize().unwrap()).unwrap();

    let mut d = Asm::new(doubler);
    d.daddu(reg::A0, reg::A0, reg::A0);
    d.li64(reg::V0, abi::SYS_DRETURN as i64);
    d.syscall(0);
    kernel.load_image(&d.finalize().unwrap()).unwrap();
    let mut n = Asm::new(nosy);
    n.li64(reg::T0, (layout.heap_base.wrapping_sub(nosy)) as i64);
    n.ld(reg::A0, reg::T0, 0);
    n.li64(reg::V0, abi::SYS_DRETURN as i64);
    n.syscall(0);
    kernel.load_image(&n.finalize().unwrap()).unwrap();
    kernel.register_domain("doubler", doubler, doubler, 0x1000).unwrap();
    kernel.register_domain("nosy", nosy, nosy, 0x1000).unwrap();

    let outcome = kernel.run().unwrap();
    assert!(matches!(outcome.exit, ExitReason::CapFault { .. }), "{:?}", outcome.exit);
    (kernel, outcome)
}

/// Runs `job` bare and traced, asserts the two end-states are
/// identical and the folded stream equals the exported counters, and
/// returns the fold.
fn traced_equals_bare(job: Job) -> Tally {
    let (bare_kernel, bare) = job(None);
    let folded: Rc<RefCell<Tally>> = Rc::default();
    let sink = JsonlSink::new(Box::new(Fold { line: Vec::new(), tally: folded.clone() }));
    let (kernel, traced) = job(Some(shared(sink)));

    assert_eq!(bare.exit, traced.exit);
    assert_eq!(bare.stats.cycles, traced.stats.cycles);
    assert_eq!(bare.stats.instructions, traced.stats.instructions);
    assert_eq!(bare.prints, traced.prints);
    assert_eq!(bare_kernel.machine().cpu.gpr, kernel.machine().cpu.gpr);
    assert_eq!(
        mem_digest(bare_kernel.machine()),
        mem_digest(kernel.machine()),
        "physical memory images diverged"
    );

    let folded = folded.take();
    for name in PARITY {
        let streamed = folded.get(name).copied().unwrap_or(0);
        assert_eq!(streamed, traced.metrics.counter(name), "stream incomplete for {name}");
    }
    folded
}

#[test]
fn sinks_do_not_perturb_the_machine() {
    let runs = [traced_equals_bare(treeadd), traced_equals_bare(domains)];
    // The instruction cache is never written, so it never writes back:
    // that row is zero by construction. Every other row must be
    // exercised, or its parity check above compared 0 with 0.
    for name in PARITY.iter().filter(|&&n| n != names::L1I_WRITEBACKS) {
        assert!(runs.iter().any(|r| r.get(name).is_some_and(|&v| v > 0)), "{name} never counted");
    }
}
