//! The host TLB in front of the architectural TLB must be invisible: it
//! may never answer a lookup the architectural TLB would fault, and it
//! must forget everything whenever the TLB, the translation mode or the
//! whole machine state changes. Each scenario runs a translated guest
//! under a tiny host "kernel" (refills from a fixed page table), with the
//! block cache on and off, and again with a snapshot taken after the
//! first serviced trap and restored at the end — onto the same machine,
//! whose host TLB is then warm with later state. Every run must produce
//! exactly the expected traps, refill and exception counts and GPRs.
//! In debug builds each host-TLB hit is also checked against the
//! architectural TLB by the machine itself.

use std::collections::BTreeMap;

use beri_sim::cpu::cp0reg;
use beri_sim::decode::encode;
use beri_sim::inst::{AluImmOp, AluOp, BranchCond, CheriInst, Inst, Width};
use beri_sim::tlb::TlbFlags;
use beri_sim::{Machine, MachineConfig, Stats, StepResult, TrapKind};
use cheri_core::{CapExcCode, Capability, Perms};

const CODE: u64 = 0x1000;
const PAGE: u64 = 0x1000;
/// `$v0` selects the host service at a `SYSCALL`: 0 ends the run, 1
/// invalidates the page holding the address in `$a0`.
const V0: u8 = 2;
const A0: u8 = 4;

const RW: TlbFlags = TlbFlags::rw();
const CLEAN: TlbFlags = TlbFlags { dirty: false, ..TlbFlags::rw() };

/// The host side of a scenario: fixed mappings, so trap service is a
/// pure function of the trap and a restored run replays identically.
struct Kernel {
    /// Virtual page → (physical page, flags), installed on `TlbRefill`
    /// and `TlbInvalid` (the other page of a pair), and, made dirty, on
    /// `TlbModified`.
    pages: BTreeMap<u64, (u64, TlbFlags)>,
    /// Virtual page → physical page installed instead on `TlbInvalid`
    /// (a page the guest asked to unmap).
    remap: BTreeMap<u64, u64>,
}

impl Kernel {
    fn new(pages: &[(u64, u64, TlbFlags)]) -> Kernel {
        let mut k = Kernel { pages: BTreeMap::new(), remap: BTreeMap::new() };
        k.pages.insert(CODE, (CODE, RW));
        for &(va, pa, flags) in pages {
            k.pages.insert(va, (pa, flags));
        }
        k
    }

    /// Services one trap; returns false once the guest asks to stop.
    fn service(&self, m: &mut Machine, result: StepResult, log: &mut Vec<TrapKind>) -> bool {
        match result {
            StepResult::Continue => {}
            StepResult::Syscall => {
                match m.cpu.gpr[usize::from(V0)] {
                    0 => return false,
                    1 => m.tlb_invalidate_page(m.cpu.gpr[usize::from(A0)]),
                    other => panic!("unknown service {other}"),
                }
                m.advance_past_trap();
            }
            StepResult::Trap(e) => {
                log.push(e.kind);
                match e.kind {
                    TrapKind::TlbRefill { vaddr, .. } => {
                        let (pa, flags) = self.pages[&(vaddr & !(PAGE - 1))];
                        m.tlb_install(vaddr & !(PAGE - 1), pa, flags);
                    }
                    TrapKind::TlbModified { vaddr } => {
                        let (pa, flags) = self.pages[&(vaddr & !(PAGE - 1))];
                        m.tlb_install(vaddr & !(PAGE - 1), pa, TlbFlags { dirty: true, ..flags });
                    }
                    TrapKind::TlbInvalid { vaddr, .. } => {
                        let page = vaddr & !(PAGE - 1);
                        let (pa, flags) = match self.remap.get(&page) {
                            Some(&pa) => (pa, RW),
                            None => self.pages[&page],
                        };
                        m.tlb_install(page, pa, flags);
                    }
                    _ => m.advance_past_trap(),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        true
    }
}

/// What a run leaves behind.
#[derive(Debug, PartialEq)]
struct Run {
    traps: Vec<TrapKind>,
    gpr: [u64; 32],
    stats: Stats,
}

/// Builds the guest: `words` at [`CODE`], `init` GPRs, `data` words and
/// tagged `caps` stored at physical addresses, translation on, and the
/// `preinstall` mappings written in order.
struct Guest<'a> {
    tlb_entries: usize,
    words: &'a [u32],
    init: &'a [(u8, u64)],
    data: &'a [(u64, u64)],
    caps: &'a [u64],
    preinstall: &'a [u64],
}

impl Guest<'_> {
    fn boot(&self, kernel: &Kernel, block_cache: bool) -> Machine {
        let mut m = Machine::new(MachineConfig {
            mem_bytes: 8 << 20,
            tlb_entries: self.tlb_entries,
            block_cache,
            ..MachineConfig::default()
        });
        m.load_code(CODE, self.words).unwrap();
        for &(pa, v) in self.data {
            m.mem.write_u64(pa, v).unwrap();
        }
        let cap = Capability::new(0x1000, 0x100, Perms::LOAD).unwrap();
        for &pa in self.caps {
            m.mem.write_cap(pa, &cap).unwrap();
        }
        m.enable_translation();
        for &va in self.preinstall {
            let (pa, flags) = kernel.pages[&va];
            m.tlb_install(va, pa, flags);
        }
        for &(r, v) in self.init {
            m.cpu.set_gpr(r, v);
        }
        m.cpu.jump_to(CODE);
        m
    }

    /// Runs to the final `SYSCALL` in chunks of 3 instructions (so block
    /// runs stop mid-block too). With `restore`, a snapshot is taken
    /// after the first serviced trap; the finished run is then rolled
    /// back to it on the same machine and finished again, and both
    /// finishes must agree.
    fn run(&self, kernel: &Kernel, block_cache: bool, restore: bool) -> Run {
        let mut m = self.boot(kernel, block_cache);
        let mut traps = Vec::new();
        let mut snap = None;
        finish(&mut m, kernel, &mut traps, &mut |m, traps| {
            if restore && snap.is_none() && !traps.is_empty() {
                snap = Some((m.snapshot(), traps.len()));
            }
        });
        let first = Run { traps, gpr: m.cpu.gpr, stats: m.stats };
        if let Some((state, len)) = snap {
            m.restore(&state).unwrap();
            let mut traps = first.traps[..len].to_vec();
            finish(&mut m, kernel, &mut traps, &mut |_, _| {});
            let again = Run { traps, gpr: m.cpu.gpr, stats: m.stats };
            assert_eq!(again, first, "the restored run diverged");
        }
        first
    }

    /// Every execution mode must produce `expected`.
    fn check(&self, kernel: &Kernel, expected: impl Fn(&Run)) {
        let reference = self.run(kernel, false, false);
        expected(&reference);
        for (block_cache, restore) in [(true, false), (false, true), (true, true)] {
            let run = self.run(kernel, block_cache, restore);
            assert_eq!(run, reference, "block cache {block_cache}, restore {restore}");
        }
    }
}

fn finish(
    m: &mut Machine,
    kernel: &Kernel,
    traps: &mut Vec<TrapKind>,
    after_service: &mut dyn FnMut(&Machine, &[TrapKind]),
) {
    for _ in 0..100_000 {
        let result = m.run(3).unwrap();
        if !kernel.service(m, result, traps) {
            return;
        }
        after_service(m, traps);
    }
    panic!("guest did not finish");
}

fn ld(rt: u8, base: u8, imm: i16) -> u32 {
    encode(&Inst::Load { width: Width::Double, rt, base, imm, unsigned: false })
}

fn sd(rt: u8, base: u8, imm: i16) -> u32 {
    encode(&Inst::Store { width: Width::Double, rt, base, imm })
}

fn li(rt: u8, imm: u16) -> u32 {
    encode(&Inst::AluImm { op: AluImmOp::Ori, rt, rs: 0, imm })
}

fn syscall() -> u32 {
    encode(&Inst::Syscall { code: 0 })
}

fn refill(vaddr: u64, write: bool) -> TrapKind {
    TrapKind::TlbRefill { vaddr, write }
}

/// EntryLo for a valid, dirty page at `pa`.
fn entrylo(pa: u64) -> u64 {
    (pa >> 12 << 6) | 0b110
}

/// A 4-entry TLB where the guest's own `TLBWR` evicts a page the host
/// TLB has just served: the next access to it must refill. The refills
/// that follow evict round-robin too, including the code page, so fetch
/// refills interleave with data refills.
#[test]
fn tlbwr_eviction_in_a_four_entry_tlb() {
    const A: u64 = 0x10000;
    const B: u64 = 0x14000;
    const C: u64 = 0x18000;
    const D: u64 = 0x1c000;
    let kernel =
        Kernel::new(&[(A, 0x40000, RW), (B, 0x44000, RW), (C, 0x48000, RW), (D, 0x4c000, RW)]);
    let mtc0 = |rt, rd| encode(&Inst::Mtc0 { rt, rd });
    let words = [
        ld(10, 20, 0),             // A: fills the host TLB
        ld(11, 20, 8),             // A: host-TLB hit
        mtc0(22, cp0reg::ENTRYHI), // D's pair ...
        mtc0(23, cp0reg::ENTRYLO0),
        mtc0(24, cp0reg::ENTRYLO1),
        encode(&Inst::Tlbwr), // ... into slot 0, replacing A
        ld(12, 20, 0),        // A: refill (slot 1, evicting the code), fetch refill (slot 2)
        ld(13, 25, 0),        // D: hit
        ld(14, 21, 0),        // B: evicted by the code refill; refill (slot 3)
        ld(15, 26, 0),        // C: refill (slot 0, evicting D)
        ld(16, 25, 0),        // D: refill (slot 1, evicting A)
        ld(17, 20, 8),        // A: refill (slot 2, evicting the code), fetch refill
        li(V0, 0),
        syscall(),
    ];
    let guest = Guest {
        tlb_entries: 4,
        words: &words,
        init: &[
            (20, A),
            (21, B),
            (25, D),
            (26, C),
            (22, D & !0x1fff),
            (23, entrylo(0x4c000)),
            (24, entrylo(0x4d000)),
        ],
        data: &[
            (0x40000, 0xa0),
            (0x40008, 0xa8),
            (0x44000, 0xb0),
            (0x48000, 0xc0),
            (0x4c000, 0xd0),
        ],
        // Slot 0 = A, 1 = code, 2 = B, 3 = C; the next write goes to 0.
        caps: &[],
        preinstall: &[A, CODE, B, C],
    };
    guest.check(&kernel, |run| {
        assert_eq!(
            run.traps,
            [
                refill(A, false),
                refill(CODE + 4 * 6, false),
                refill(B, false),
                refill(C, false),
                refill(D, false),
                refill(A + 8, false),
                refill(CODE + 4 * 11, false),
            ]
        );
        assert_eq!(run.stats.tlb_refills, 7);
        assert_eq!(run.stats.exceptions, 7);
        assert_eq!(run.gpr[10..18], [0xa0, 0xa8, 0xa0, 0xd0, 0xb0, 0xc0, 0xd0, 0xa8]);
    });
}

/// 600 pages, far more than the host table's slots, read twice in a
/// loop: pages 256 apart share a host slot and evict each other on every
/// access. The 512-entry architectural TLB holds all of them, so only
/// the first pass faults: a refill for the even page of each pair, then
/// `TlbInvalid` for its odd partner, which the refill left unmapped.
#[test]
fn six_hundred_pages_alias_in_the_host_table() {
    const BASE: u64 = 0x100000;
    const N: u64 = 600;
    // A permuted page-to-frame map, and a distinct value in each frame.
    let frame = |i: u64| 0x200000 + (i * 7 % N) * PAGE;
    let mappings: Vec<(u64, u64, TlbFlags)> =
        (0..N).map(|i| (BASE + i * PAGE, frame(i), RW)).collect();
    let data: Vec<(u64, u64)> = (0..N).map(|i| (frame(i), (i + 1) * 0x1_0001)).collect();
    let kernel = Kernel::new(&mappings);
    let words = [
        ld(10, 20, 0), // loop: read page i
        encode(&Inst::Alu { op: AluOp::Daddu, rd: 22, rs: 22, rt: 10 }),
        encode(&Inst::AluImm { op: AluImmOp::Daddiu, rt: 21, rs: 21, imm: 0xffff }),
        encode(&Inst::Branch { cond: BranchCond::Ne, rs: 21, rt: 0, offset: -4 }),
        encode(&Inst::AluImm { op: AluImmOp::Daddiu, rt: 20, rs: 20, imm: PAGE as u16 }),
        encode(&Inst::AluImm { op: AluImmOp::Daddiu, rt: 23, rs: 23, imm: 0xffff }),
        encode(&Inst::Alu { op: AluOp::Or, rd: 20, rs: 24, rt: 0 }),
        encode(&Inst::Branch { cond: BranchCond::Ne, rs: 23, rt: 0, offset: -8 }),
        li(21, N as u16), // delay slot: next pass
        li(V0, 0),
        syscall(),
    ];
    let guest = Guest {
        tlb_entries: 512,
        words: &words,
        init: &[(20, BASE), (21, N), (23, 2), (24, BASE)],
        data: &data,
        caps: &[],
        preinstall: &[CODE],
    };
    let expected_sum: u64 = 2 * (1..=N).map(|i| i * 0x1_0001).sum::<u64>();
    guest.check(&kernel, |run| {
        let want: Vec<TrapKind> = (0..N)
            .map(|i| match BASE + i * PAGE {
                vaddr if i % 2 == 0 => refill(vaddr, false),
                vaddr => TrapKind::TlbInvalid { vaddr, write: false },
            })
            .collect();
        assert_eq!(run.traps, want);
        assert_eq!(run.stats.tlb_refills, N / 2);
        assert_eq!(run.stats.exceptions, N);
        assert_eq!(run.stats.loads, 2 * N);
        assert_eq!(run.gpr[22], expected_sum);
    });
}

/// Revocation by unmapping between two loads of the same page: the
/// first load leaves a host-TLB entry, the kernel invalidates the page,
/// and the second load must fault `TlbInvalid` rather than hit.
#[test]
fn invalidate_page_right_after_a_hit() {
    const A: u64 = 0x20000;
    let mut kernel = Kernel::new(&[(A, 0x50000, RW)]);
    kernel.remap.insert(A, 0x60000);
    let words = [
        ld(10, 20, 0),
        ld(11, 20, 0), // a host-TLB hit
        li(V0, 1),
        syscall(), // the kernel invalidates A
        ld(12, 20, 0),
        li(V0, 0),
        syscall(),
    ];
    let guest = Guest {
        tlb_entries: 8,
        words: &words,
        init: &[(20, A), (A0, A)],
        data: &[(0x50000, 0x5), (0x60000, 0x6)],
        caps: &[],
        preinstall: &[CODE, A],
    };
    guest.check(&kernel, |run| {
        assert_eq!(run.traps, [TrapKind::TlbInvalid { vaddr: A, write: false }]);
        assert_eq!(run.stats.tlb_refills, 0);
        assert_eq!(run.stats.exceptions, 1);
        assert_eq!(run.gpr[10..13], [0x5, 0x5, 0x6]);
    });
}

/// A load fills the host TLB's load table for a clean page; the store
/// that follows must still raise `TlbModified` (a store slot is only
/// ever filled by a store that the architectural TLB allowed).
#[test]
fn store_after_load_to_a_clean_page_traps_modified() {
    const A: u64 = 0x30000;
    let kernel = Kernel::new(&[(A, 0x70000, CLEAN)]);
    let words = [
        ld(10, 20, 0),
        ld(11, 20, 0), // a host-TLB hit
        sd(13, 20, 0), // TlbModified; the kernel marks the page dirty
        ld(12, 20, 0),
        li(V0, 0),
        syscall(),
    ];
    let guest = Guest {
        tlb_entries: 8,
        words: &words,
        init: &[(20, A), (13, 0x1234)],
        data: &[(0x70000, 0x77)],
        caps: &[],
        preinstall: &[CODE, A],
    };
    guest.check(&kernel, |run| {
        assert_eq!(run.traps, [TrapKind::TlbModified { vaddr: A }]);
        assert_eq!(run.stats.tlb_refills, 0);
        assert_eq!(run.stats.exceptions, 1);
        assert_eq!(run.stats.stores, 1);
        assert_eq!(run.gpr[10..13], [0x77, 0x77, 0x1234]);
    });
}

/// Capability page permissions come through a host-TLB hit intact: on a
/// page without capability-load/store rights a `CLC` strips the tag and
/// a tagged `CSC` traps, while on an ordinary page both keep the tag.
#[test]
fn capability_page_flags_after_a_hit() {
    const SHARED: u64 = 0x40000; // no capability traffic
    const PLAIN: u64 = 0x48000;
    let kernel = Kernel::new(&[(SHARED, 0x80000, TlbFlags::rw_no_caps()), (PLAIN, 0x88000, RW)]);
    let clc = |cd: u8, rt: u8| encode(&Inst::Cheri(CheriInst::CLC { cd, cb: 2, rt, imm: 0 }));
    let csc = |cs: u8, rt: u8| encode(&Inst::Cheri(CheriInst::CSC { cs, cb: 2, rt, imm: 0 }));
    let gettag = |rd: u8, cb: u8| encode(&Inst::Cheri(CheriInst::CGetTag { rd, cb }));
    let words = [
        ld(10, 20, 64), // fills the load table for SHARED
        sd(10, 20, 64), // fills the store table for SHARED
        ld(10, 21, 64), // ... and both for PLAIN
        sd(10, 21, 64),
        clc(3, 20), // SHARED: loaded without its tag
        gettag(12, 3),
        clc(4, 21), // PLAIN: tag kept
        gettag(13, 4),
        csc(1, 20), // SHARED: TlbProhibitStoreCap, skipped
        csc(1, 21), // PLAIN: stored
        clc(5, 21),
        gettag(14, 5),
        li(V0, 0),
        syscall(),
    ];
    let guest = Guest {
        tlb_entries: 8,
        words: &words,
        init: &[(20, SHARED), (21, PLAIN)],
        data: &[],
        caps: &[0x80000, 0x88000],
        preinstall: &[CODE, SHARED, PLAIN],
    };
    guest.check(&kernel, |run| {
        match run.traps[..] {
            [TrapKind::CapViolation(cause)] => {
                assert_eq!(cause.code(), CapExcCode::TlbProhibitStoreCap);
                assert_eq!(cause.reg(), 1);
            }
            ref other => panic!("expected one capability-store trap, got {other:?}"),
        }
        assert_eq!(run.stats.exceptions, 1);
        assert_eq!(run.stats.cap_violations, 1);
        assert_eq!(run.stats.tlb_refills, 0);
        assert_eq!(run.gpr[12..15], [0, 1, 1]);
    });
}
