//! The host-level kernel: exec, demand paging, syscall dispatch, and the
//! run loop.

use std::collections::HashMap;

use beri_sim::tlb::{TlbFlags, PAGE_SIZE};
use beri_sim::{Exception, Machine, MachineConfig, Stats, StepResult, TrapKind};
use cheri_asm::Program;
use cheri_core::{CapCause, Capability, Perms};
use cheri_mem::MemError;
use cheri_trace::{emit, names, SharedSink, Snapshot, TraceEvent};

use crate::abi;
use crate::layout::ProcessLayout;

/// Kernel configuration.
#[derive(Clone, Debug)]
pub struct KernelConfig {
    /// Machine configuration used by [`crate::boot`].
    pub machine: MachineConfig,
    /// User address-space layout.
    pub layout: ProcessLayout,
    /// Cycles charged for the software TLB-refill handler (a hand-tuned
    /// MIPS refill handler runs in a few tens of cycles).
    pub tlb_refill_cycles: u64,
    /// Cycles charged per syscall (kernel entry + service + exit).
    pub syscall_cycles: u64,
    /// Abort a run after this many instructions (runaway guard).
    pub max_instructions: u64,
}

impl Default for KernelConfig {
    fn default() -> KernelConfig {
        KernelConfig {
            machine: MachineConfig::default(),
            layout: ProcessLayout::default(),
            tlb_refill_cycles: 30,
            syscall_cycles: 120,
            max_instructions: 4_000_000_000,
        }
    }
}

// (re-exported from the crate root)
/// Why a process stopped.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExitReason {
    /// `SYS_EXIT` with this value.
    Exit(u64),
    /// An unhandled CHERI capability violation (the hardware caught a
    /// safety error); the PC of the faulting instruction is included.
    CapFault {
        /// The capability cause register.
        cause: CapCause,
        /// Faulting PC.
        pc: u64,
    },
    /// A software bounds check (CCured-style instrumentation) failed.
    SoftBoundsFault {
        /// PC of the failing check.
        pc: u64,
    },
    /// `BREAK` with an application-defined code.
    Break(u32),
    /// Any other fatal exception (address error, reserved instruction,
    /// integer overflow, wild access outside the user space).
    Fatal(Exception),
}

/// A phase-boundary record: the statistics snapshot taken when the
/// process issued `SYS_PHASE`.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRecord {
    /// Application-chosen phase id.
    pub id: u64,
    /// Machine statistics at the boundary.
    pub stats: Stats,
}

/// The result of running a process to completion.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Why it stopped.
    pub exit: ExitReason,
    /// Final machine statistics.
    pub stats: Stats,
    /// Phase boundaries in program order.
    pub phases: Vec<PhaseRecord>,
    /// Values recorded via `SYS_PRINT`.
    pub prints: Vec<u64>,
    /// Console output from `SYS_PUTCHAR`.
    pub console: String,
    /// Distinct virtual pages faulted in (the process's memory
    /// footprint in pages).
    pub pages_touched: u64,
    /// Tag-controller statistics (capability tag traffic, Section 4.2).
    pub tag_stats: cheri_mem::TagCacheStats,
    /// A unified metrics snapshot: every machine, cache, tag, and OS
    /// counter under its canonical [`cheri_trace::names`] key. The
    /// legacy fields above are thin views onto the same quantities.
    pub metrics: Snapshot,
}

impl RunOutcome {
    /// The exit value, if the process exited normally.
    #[must_use]
    pub fn exit_value(&self) -> Option<u64> {
        match self.exit {
            ExitReason::Exit(v) => Some(v),
            _ => None,
        }
    }
}

/// Kernel-level errors (distinct from guest-visible exceptions).
#[derive(Debug)]
#[non_exhaustive]
pub enum OsError {
    /// The simulator reported a physical-memory fault (kernel bug or
    /// too-small DRAM).
    Sim(MemError),
    /// Physical memory exhausted by demand paging.
    OutOfMemory,
    /// The process exceeded [`KernelConfig::max_instructions`].
    Runaway {
        /// Instructions executed when the guard fired.
        executed: u64,
    },
}

impl core::fmt::Display for OsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OsError::Sim(e) => write!(f, "simulator fault: {e}"),
            OsError::OutOfMemory => write!(f, "out of physical memory"),
            OsError::Runaway { executed } => {
                write!(f, "process exceeded instruction budget ({executed} executed)")
            }
        }
    }
}

impl std::error::Error for OsError {}

/// When [`Kernel::run_inner`] hands control back to the caller before
/// the process exits.
#[derive(Clone, Copy, Debug)]
enum StopWhen {
    /// Run to completion.
    Never,
    /// Stop once the process issues `SYS_PHASE` with this id.
    PhaseId(u64),
    /// Stop after this many retired instructions.
    Steps(u64),
}

impl From<MemError> for OsError {
    fn from(e: MemError) -> OsError {
        OsError::Sim(e)
    }
}

/// The kernel.
pub struct Kernel {
    pub(crate) machine: Machine,
    pub(crate) cfg: KernelConfig,
    pub(crate) page_table: HashMap<u64, u64>,
    pub(crate) next_frame: u64,
    pub(crate) phases: Vec<PhaseRecord>,
    pub(crate) prints: Vec<u64>,
    pub(crate) console: String,
    pub(crate) brk: u64,
    pub(crate) domains: Vec<crate::domains::DomainSpec>,
    pub(crate) domain_stack: Vec<crate::context::Context>,
    // Domain ids mirroring `domain_stack` (for DomainCross attribution).
    pub(crate) domain_id_stack: Vec<u64>,
    pub(crate) execs: u64,
    pub(crate) domain_calls: u64,
    pub(crate) domain_returns: u64,
    pub(crate) sink: Option<SharedSink>,
}

impl Kernel {
    /// Wraps a machine (translation should already be enabled; see
    /// [`crate::boot`]).
    #[must_use]
    pub fn new(machine: Machine, cfg: KernelConfig) -> Kernel {
        cfg.layout.validate();
        Kernel {
            machine,
            cfg,
            page_table: HashMap::new(),
            next_frame: 16, // leave the low 64 KB of DRAM to the "firmware"
            phases: Vec::new(),
            prints: Vec::new(),
            console: String::new(),
            brk: 0,
            domains: Vec::new(),
            domain_stack: Vec::new(),
            domain_id_stack: Vec::new(),
            execs: 0,
            domain_calls: 0,
            domain_returns: 0,
            sink: None,
        }
    }

    /// Attaches (or with `None`, detaches) a trace sink to the kernel
    /// and the whole machine beneath it: the pipeline, the cache
    /// hierarchy, and the tag controller all share the handle, so one
    /// call instruments every layer.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.machine.set_trace_sink(sink.clone());
        self.sink = sink;
    }

    /// The underlying machine (e.g. for statistics or capability
    /// inspection).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the machine (tests and examples that want to
    /// poke registers between runs).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The process layout in force.
    #[must_use]
    pub fn layout(&self) -> ProcessLayout {
        self.cfg.layout
    }

    fn alloc_frame(&mut self) -> Result<u64, OsError> {
        let frames = self.machine.mem.size() / PAGE_SIZE;
        if self.next_frame >= frames {
            return Err(OsError::OutOfMemory);
        }
        let f = self.next_frame;
        self.next_frame += 1;
        Ok(f)
    }

    /// Maps the page containing `vaddr`, allocating a zeroed frame on
    /// first touch, and installs it in the TLB.
    ///
    /// # Errors
    ///
    /// [`OsError::OutOfMemory`] when DRAM is exhausted.
    pub fn map_page(&mut self, vaddr: u64, flags: TlbFlags) -> Result<u64, OsError> {
        let vpage = vaddr / PAGE_SIZE;
        let frame = match self.page_table.get(&vpage) {
            Some(f) => *f,
            None => {
                let f = self.alloc_frame()?;
                self.page_table.insert(vpage, f);
                f
            }
        };
        self.machine.tlb_install(vpage * PAGE_SIZE, frame * PAGE_SIZE, flags);
        Ok(frame * PAGE_SIZE)
    }

    /// Loads `program`, delegates the address space, and prepares the
    /// first thread — the `execve()` path of Section 4.3.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn exec(&mut self, program: &Program) -> Result<(), OsError> {
        let layout = self.cfg.layout;
        // Fresh address space.
        self.page_table.clear();
        self.machine.tlb_flush();
        self.machine.hierarchy.flush();
        self.phases.clear();
        self.prints.clear();
        self.console.clear();
        self.brk = layout.heap_base;
        self.domains.clear();
        self.domain_stack.clear();
        self.domain_id_stack.clear();
        self.execs += 1;
        let pid = self.execs;
        emit(&self.sink, || TraceEvent::ContextSwitch { pid });
        let ts = self.machine.stats.cycles;
        if let Some(p) = self.machine.profiler_mut() {
            p.on_exec(pid, ts);
        }

        // Copy text through the page tables. These writes bypass the
        // machine's store path, so drop any predecoded blocks (frames
        // may be recycled from the previous address space).
        for (i, w) in program.words.iter().enumerate() {
            let vaddr = program.base + 4 * i as u64;
            let pbase = self.map_page(vaddr, TlbFlags::rw())?;
            self.machine.mem.write_u32(pbase + (vaddr & (PAGE_SIZE - 1)), *w)?;
        }
        self.machine.invalidate_block_cache();
        // Initialise the heap bump pointer used by generated allocators.
        let cell = layout.heap_ptr_cell();
        let pbase = self.map_page(cell, TlbFlags::rw())?;
        self.machine.mem.write_u64(pbase + (cell & (PAGE_SIZE - 1)), layout.heap_base)?;

        // Register state: stack pointer (32-byte aligned so capability
        // spills are representable), entry PC.
        let cpu = &mut self.machine.cpu;
        cpu.gpr = [0; 32];
        cpu.hi = 0;
        cpu.lo = 0;
        cpu.ll_reservation = None;
        cpu.set_gpr(beri_sim::reg::SP, layout.stack_top & !31);
        cpu.jump_to(program.entry);

        // Capability delegation: C0 and PCC span the user space; every
        // other capability register is nulled so the process's initial
        // authority is exactly its address space.
        let user =
            Capability::new(0, layout.user_top, Perms::ALL).expect("user_top is far below 2^64");
        cpu.caps = cheri_core::CapRegFile::empty();
        cpu.caps.set_c0(user);
        cpu.caps.set_pcc(user);
        Ok(())
    }

    fn handle_refill(&mut self, vaddr: u64) -> Result<Option<ExitReason>, OsError> {
        if vaddr >= self.cfg.layout.user_top {
            // Wild access outside the delegated space: fatal. (Normally
            // unreachable: C0 bounds catch it first.)
            return Ok(Some(ExitReason::Fatal(Exception {
                kind: TrapKind::TlbRefill { vaddr, write: false },
                pc: self.machine.cpu.pc,
            })));
        }
        self.map_page(vaddr, TlbFlags::rw())?;
        self.machine.charge_cycles(self.cfg.tlb_refill_cycles);
        Ok(None)
    }

    fn handle_syscall(&mut self) -> Option<ExitReason> {
        self.machine.charge_cycles(self.cfg.syscall_cycles);
        let num = self.machine.cpu.gpr[usize::from(beri_sim::reg::V0)];
        let a0 = self.machine.cpu.gpr[usize::from(beri_sim::reg::A0)];
        let tariff = self.cfg.syscall_cycles;
        // Timeline entries place the syscall at its pre-charge cycle
        // count with the tariff as its duration. (The tariff is charged
        // *before* dispatch because SYS_GETCOUNT's return value
        // includes it — that ordering is guest-visible and must not
        // change.)
        let ts = self.machine.stats.cycles - tariff;
        emit(&self.sink, || TraceEvent::Syscall { nr: num, cycles: tariff });
        if let Some(p) = self.machine.profiler_mut() {
            p.on_syscall(num, ts, tariff);
        }
        let result = match num {
            abi::SYS_EXIT => {
                self.close_spans(ts);
                return Some(ExitReason::Exit(a0));
            }
            abi::SYS_PHASE => {
                self.phases.push(PhaseRecord { id: a0, stats: self.machine.stats });
                if let Some(p) = self.machine.profiler_mut() {
                    p.on_phase(a0, ts);
                }
                None
            }
            abi::SYS_PRINT => {
                self.prints.push(a0);
                None
            }
            abi::SYS_PUTCHAR => {
                self.console.push(a0 as u8 as char);
                None
            }
            abi::SYS_BRK => {
                if a0 > self.brk && a0 < self.cfg.layout.stack_top {
                    self.brk = a0;
                }
                Some(self.brk)
            }
            abi::SYS_GETCOUNT => Some(self.machine.stats.cycles),
            abi::SYS_DCALL => {
                let a1 = self.machine.cpu.gpr[usize::from(beri_sim::reg::A1)];
                if self.domain_call(a0, a1) {
                    if let Some(p) = self.machine.profiler_mut() {
                        p.on_domain_call(a0, ts);
                    }
                    // The callee is installed; do not advance (already
                    // positioned at the entry point).
                    return None;
                }
                Some(u64::MAX)
            }
            abi::SYS_DRETURN => {
                if self.domain_return(a0) {
                    if let Some(p) = self.machine.profiler_mut() {
                        p.on_domain_return(ts);
                    }
                    return None; // caller context restored, v0 set
                }
                // A return with no caller ends the process.
                self.close_spans(ts);
                return Some(ExitReason::Exit(a0));
            }
            unknown => {
                // Unknown service: fail the call with all-ones, as a
                // real kernel returns ENOSYS.
                let _ = unknown;
                Some(u64::MAX)
            }
        };
        if let Some(v) = result {
            self.machine.cpu.set_gpr(beri_sim::reg::V0, v);
        }
        self.machine.advance_past_trap();
        None
    }

    /// Closes every open profiler timeline span at cycle `ts` — the
    /// process is exiting, and a balanced timeline renders correctly in
    /// Perfetto.
    fn close_spans(&mut self, ts: u64) {
        if let Some(p) = self.machine.profiler_mut() {
            p.on_exit(ts);
        }
    }

    /// Runs the current process to completion.
    ///
    /// # Errors
    ///
    /// [`OsError::Runaway`] if the instruction budget is exhausted,
    /// [`OsError::OutOfMemory`] if paging fails, or [`OsError::Sim`] for
    /// simulator-level faults.
    pub fn run(&mut self) -> Result<RunOutcome, OsError> {
        let out = self.run_inner(StopWhen::Never)?;
        Ok(out.expect("a run with no stop condition always ends with an outcome"))
    }

    /// Runs until the process issues `SYS_PHASE` with `phase_id`
    /// (returning `Ok(None)` with the machine positioned just *after*
    /// the syscall — the natural snapshot point for warm-started
    /// sweeps), or to completion (`Ok(Some(outcome))`) if the phase
    /// never arrives.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run`]. The instruction budget applies per call.
    pub fn run_until_phase(&mut self, phase_id: u64) -> Result<Option<RunOutcome>, OsError> {
        self.run_inner(StopWhen::PhaseId(phase_id))
    }

    /// Runs for at most `steps` retired instructions, returning
    /// `Ok(None)` if the budget elapsed with the process still live or
    /// `Ok(Some(outcome))` if it finished first. Stopping is exact —
    /// precisely `steps` instructions retire — which is what
    /// `snapreplay`'s divergence bisection depends on.
    ///
    /// # Errors
    ///
    /// As [`Kernel::run`]. The instruction budget applies per call.
    pub fn run_for(&mut self, steps: u64) -> Result<Option<RunOutcome>, OsError> {
        self.run_inner(StopWhen::Steps(steps))
    }

    fn run_inner(&mut self, stop: StopWhen) -> Result<Option<RunOutcome>, OsError> {
        let start_instructions = self.machine.stats.instructions;
        let mut phase_mark = self.phases.len();
        let exit = loop {
            let executed = self.machine.stats.instructions - start_instructions;
            if executed >= self.cfg.max_instructions {
                return Err(OsError::Runaway { executed });
            }
            // Hand the machine the whole remaining budget: `run` takes
            // the predecoded fast path where possible and returns on
            // any kernel-visible event (or with `Continue` once the
            // budget is spent, which the loop head converts to
            // `Runaway` — the same boundary the per-step loop had).
            let mut budget = self.cfg.max_instructions - executed;
            if let StopWhen::Steps(n) = stop {
                if executed >= n {
                    return Ok(None);
                }
                budget = budget.min(n - executed);
            }
            match self.machine.run(budget).map_err(OsError::Sim)? {
                StepResult::Continue => {}
                StepResult::Syscall => {
                    if let Some(reason) = self.handle_syscall() {
                        break reason;
                    }
                    if let StopWhen::PhaseId(id) = stop {
                        if self.phases.len() > phase_mark {
                            phase_mark = self.phases.len();
                            if self.phases[phase_mark - 1].id == id {
                                return Ok(None);
                            }
                        }
                    }
                }
                StepResult::Break(code) => {
                    break if code == crate::SOFT_BOUNDS_BREAK_CODE {
                        ExitReason::SoftBoundsFault { pc: self.machine.cpu.pc }
                    } else {
                        ExitReason::Break(code)
                    };
                }
                #[allow(unreachable_patterns)]
                StepResult::Trap(e) => match e.kind {
                    TrapKind::TlbRefill { vaddr, .. } => {
                        // Emit only for true refill misses — TlbInvalid
                        // and TlbModified are serviced by the same
                        // handler but are not counted as refills by
                        // `Stats::tlb_refills`, and the event stream
                        // must aggregate to the same totals.
                        let tariff = self.cfg.tlb_refill_cycles;
                        emit(&self.sink, || TraceEvent::TlbRefill { vaddr, cycles: tariff });
                        if let Some(reason) = self.handle_refill(vaddr)? {
                            break reason;
                        }
                    }
                    TrapKind::TlbInvalid { vaddr, .. } => {
                        if let Some(reason) = self.handle_refill(vaddr)? {
                            break reason;
                        }
                    }
                    TrapKind::TlbModified { vaddr } => {
                        // All anonymous pages are writable; re-map dirty.
                        if let Some(reason) = self.handle_refill(vaddr)? {
                            break reason;
                        }
                    }
                    TrapKind::CapViolation(cause) => {
                        break ExitReason::CapFault { cause, pc: e.pc };
                    }
                    _ => break ExitReason::Fatal(e),
                },
                // StepResult is non-exhaustive; treat future variants as
                // fatal rather than silently continuing.
                _ => {
                    break ExitReason::Fatal(Exception {
                        kind: TrapKind::ReservedInstruction { word: 0 },
                        pc: self.machine.cpu.pc,
                    });
                }
            }
        };
        Ok(Some(RunOutcome {
            exit,
            stats: self.machine.stats,
            phases: self.phases.clone(),
            prints: self.prints.clone(),
            console: self.console.clone(),
            pages_touched: self.page_table.len() as u64,
            tag_stats: self.machine.mem.tag_stats(),
            metrics: self.metrics(),
        }))
    }

    /// A unified snapshot of every counter the kernel and the machine
    /// beneath it maintain, keyed by the canonical
    /// [`cheri_trace::names`] constants — the one counter source for
    /// reports, baselines and `trace_report`.
    #[must_use]
    pub fn metrics(&self) -> Snapshot {
        let mut snap = self.machine.metrics();
        snap.set_counter(names::CONTEXT_SWITCHES, self.execs);
        snap.set_counter(names::DOMAIN_CALLS, self.domain_calls);
        snap.set_counter(names::DOMAIN_RETURNS, self.domain_returns);
        snap.set_counter("os.pages_touched", self.page_table.len() as u64);
        snap
    }

    /// Loads an additional code image into the current address space
    /// (e.g. a protected domain's compartment) without resetting it.
    ///
    /// # Errors
    ///
    /// Propagates paging failures.
    pub fn load_image(&mut self, program: &Program) -> Result<(), OsError> {
        for (i, w) in program.words.iter().enumerate() {
            let vaddr = program.base + 4 * i as u64;
            let pbase = self.map_page(vaddr, TlbFlags::rw())?;
            self.machine.mem.write_u32(pbase + (vaddr & (PAGE_SIZE - 1)), *w)?;
        }
        // Direct `mem` writes are invisible to the block cache.
        self.machine.invalidate_block_cache();
        Ok(())
    }

    /// Kernel-side address translation for the GC scan (no TLB, no
    /// faults, no statistics).
    #[must_use]
    pub(crate) fn translate_for_gc(&self, vaddr: u64) -> Option<u64> {
        let frame = self.page_table.get(&(vaddr / PAGE_SIZE))?;
        Some(frame * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1)))
    }

    /// Reads the physical tag bit directly from the tag table (no cache
    /// modelling).
    #[must_use]
    pub(crate) fn tag_at(&self, paddr: u64) -> bool {
        self.machine.mem.tag_controller().table().get(paddr)
    }

    /// Reads a capability image without touching the tag cache.
    pub(crate) fn read_cap_raw_for_gc(
        &self,
        paddr: u64,
    ) -> Result<cheri_core::Capability, MemError> {
        let mut bytes = [0u8; cheri_core::CAP_SIZE_BYTES];
        self.machine.mem.read_bytes(paddr, &mut bytes)?;
        Ok(cheri_core::Capability::from_bytes(&bytes, self.tag_at(paddr)))
    }

    /// Reads a 64-bit word from the process's virtual address space
    /// through the kernel's page tables (a debugger-style peek).
    ///
    /// Returns `None` if the page was never touched.
    #[must_use]
    pub fn read_user_u64(&self, vaddr: u64) -> Option<u64> {
        let frame = self.page_table.get(&(vaddr / PAGE_SIZE))?;
        self.machine.mem.read_u64(frame * PAGE_SIZE + (vaddr & (PAGE_SIZE - 1))).ok()
    }

    /// Bytes of heap the current process has bump-allocated (the
    /// generated allocator's pointer cell minus the heap base).
    #[must_use]
    pub fn heap_used(&self) -> Option<u64> {
        let cell = self.read_user_u64(self.cfg.layout.heap_ptr_cell())?;
        Some(cell.saturating_sub(self.cfg.layout.heap_base))
    }

    /// Execs `program` and runs it to completion (the common harness
    /// path).
    ///
    /// # Errors
    ///
    /// As [`Kernel::exec`] and [`Kernel::run`].
    pub fn exec_and_run(&mut self, program: &Program) -> Result<RunOutcome, OsError> {
        self.exec(program)?;
        self.run()
    }
}

impl core::fmt::Debug for Kernel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "Kernel(pages={}, brk={:#x}, phases={})",
            self.page_table.len(),
            self.brk,
            self.phases.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abi;
    use cheri_asm::{reg, Asm};

    fn kernel() -> Kernel {
        crate::boot(KernelConfig {
            machine: MachineConfig { mem_bytes: 8 << 20, ..MachineConfig::default() },
            ..KernelConfig::default()
        })
    }

    fn exit_with(a: &mut Asm, reg_holding_value: u8) {
        a.move_(reg::A0, reg_holding_value);
        a.li64(reg::V0, abi::SYS_EXIT as i64);
        a.syscall(0);
    }

    #[test]
    fn exec_and_run_simple_exit() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::T0, 42);
        exit_with(&mut a, reg::T0);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(42));
        assert!(out.stats.instructions > 0);
        assert!(out.pages_touched >= 2, "text + globals pages at least");
    }

    #[test]
    fn demand_paging_grows_footprint() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        // Touch 20 pages of heap.
        let heap = k.layout().heap_base;
        let top = a.new_label();
        a.li64(reg::T0, heap as i64);
        a.li64(reg::T1, 20);
        a.bind(top).unwrap();
        a.sd(reg::ZERO, reg::T0, 0);
        a.daddiu(reg::T0, reg::T0, 4096i16);
        a.daddiu(reg::T1, reg::T1, -1);
        a.bgtz(reg::T1, top);
        exit_with(&mut a, reg::ZERO);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(0));
        assert!(out.pages_touched >= 20, "got {}", out.pages_touched);
        // Each touched page faults once: even pages as refills, odd pages
        // as invalid-hits on the shared paired entry.
        assert!(out.stats.tlb_refills >= 10);
        assert!(out.stats.exceptions >= 20);
    }

    #[test]
    fn stack_is_demand_paged_and_writable() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.daddiu(reg::SP, reg::SP, -64);
        a.sd(reg::RA, reg::SP, 0);
        a.ld(reg::T0, reg::SP, 0);
        exit_with(&mut a, reg::T0);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(0));
    }

    #[test]
    fn phase_markers_snapshot_stats() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::A0, 1);
        a.li64(reg::V0, abi::SYS_PHASE as i64);
        a.syscall(0);
        for _ in 0..50 {
            a.nop();
        }
        a.li64(reg::A0, 2);
        a.li64(reg::V0, abi::SYS_PHASE as i64);
        a.syscall(0);
        exit_with(&mut a, reg::ZERO);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.phases.len(), 2);
        assert_eq!(out.phases[0].id, 1);
        assert_eq!(out.phases[1].id, 2);
        assert!(
            out.phases[1].stats.instructions >= out.phases[0].stats.instructions + 50,
            "second phase must come after the 50 nops"
        );
    }

    #[test]
    fn prints_and_console_are_captured() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::A0, 777);
        a.li64(reg::V0, abi::SYS_PRINT as i64);
        a.syscall(0);
        a.li64(reg::A0, i64::from(b'h'));
        a.li64(reg::V0, abi::SYS_PUTCHAR as i64);
        a.syscall(0);
        exit_with(&mut a, reg::ZERO);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.prints, vec![777]);
        assert_eq!(out.console, "h");
    }

    #[test]
    fn capability_fault_terminates_process() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        // Bound C1 to 16 bytes of heap, then read past it.
        a.li64(reg::T0, k.layout().heap_base as i64);
        a.cincbase(1, 0, reg::T0);
        a.li64(reg::T1, 16);
        a.csetlen(1, 1, reg::T1);
        a.li64(reg::T2, 16);
        a.cld(reg::T3, reg::T2, 0, 1);
        exit_with(&mut a, reg::ZERO);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        match out.exit {
            ExitReason::CapFault { cause, .. } => {
                assert_eq!(cause.code(), cheri_core::CapExcCode::LengthViolation);
                assert_eq!(cause.reg(), 1);
            }
            other => panic!("expected CapFault, got {other:?}"),
        }
    }

    #[test]
    fn soft_bounds_break_is_reported() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.break_(crate::SOFT_BOUNDS_BREAK_CODE);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert!(matches!(out.exit, ExitReason::SoftBoundsFault { .. }));
    }

    #[test]
    fn process_starts_with_only_user_space_authority() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.cgetlen(reg::T0, 0);
        exit_with(&mut a, reg::T0);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(k.layout().user_top));
        // All non-C0 registers were nulled by exec.
        assert!(!k.machine().cpu.caps.get(5).tag());
    }

    #[test]
    fn wild_jump_outside_pcc_faults() {
        let mut k = kernel();
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::T0, (k.layout().user_top + 0x1000) as i64);
        a.jr(reg::T0);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert!(
            matches!(out.exit, ExitReason::CapFault { .. }),
            "PCC must catch the wild jump: {:?}",
            out.exit
        );
    }

    #[test]
    fn runaway_guard_fires() {
        let mut k = crate::boot(KernelConfig {
            machine: MachineConfig { mem_bytes: 8 << 20, ..MachineConfig::default() },
            max_instructions: 1000,
            ..KernelConfig::default()
        });
        let mut a = Asm::new(k.layout().text_base);
        let spin = a.new_label();
        a.bind(spin).unwrap();
        a.b(spin);
        match k.exec_and_run(&a.finalize().unwrap()) {
            Err(OsError::Runaway { .. }) => {}
            other => panic!("expected runaway, got {other:?}"),
        }
    }

    #[test]
    fn heap_ptr_cell_initialised_on_exec() {
        let mut k = kernel();
        let cell = k.layout().heap_ptr_cell();
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::T0, cell as i64);
        a.ld(reg::T1, reg::T0, 0);
        exit_with(&mut a, reg::T1);
        let out = k.exec_and_run(&a.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(k.layout().heap_base));
    }

    #[test]
    fn exec_twice_gives_fresh_address_space() {
        let mut k = kernel();
        // First program dirties the heap.
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::T0, k.layout().heap_base as i64);
        a.li64(reg::T1, 123);
        a.sd(reg::T1, reg::T0, 0);
        exit_with(&mut a, reg::ZERO);
        k.exec_and_run(&a.finalize().unwrap()).unwrap();
        // Second program must see zeroed heap (fresh frames).
        let mut b = Asm::new(k.layout().text_base);
        b.li64(reg::T0, k.layout().heap_base as i64);
        b.ld(reg::T1, reg::T0, 0);
        exit_with(&mut b, reg::T1);
        let out = k.exec_and_run(&b.finalize().unwrap()).unwrap();
        assert_eq!(out.exit_value(), Some(0));
    }
}
