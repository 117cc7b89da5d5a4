//! Kernel snapshot and restore — the OS half of `cheri-snap`.
//!
//! [`Kernel::snapshot`] pairs the machine's complete state (see
//! `beri_sim::Machine::snapshot`) with everything the host-level kernel
//! itself holds: the page table, frame allocator, heap break, phase /
//! print / console records, registered protection domains, and the
//! saved-context stack of outstanding `SYS_DCALL`s. Restoring the pair
//! resumes a process mid-flight with results and cycle counts
//! bit-identical to a run that never stopped.
//!
//! Harness attachments (trace sinks) and per-run knobs (the runaway
//! instruction budget) are deliberately not part of the snapshot, so the
//! same snapshot hashes identically however the harness was configured.

use std::collections::HashMap;

use beri_sim::{cap_from_state, cap_to_state, Machine, Stats};
use cheri_core::CapRegFile;
use cheri_snap::{ContextState, DomainState, KernelState, PhaseState, SnapError, Snapshot};

use crate::context::Context;
use crate::domains::DomainSpec;
use crate::kernel::{Kernel, KernelConfig, PhaseRecord};
use crate::layout::ProcessLayout;

fn context_to_state(c: &Context) -> ContextState {
    let mut caps = Vec::with_capacity(33);
    for i in 0..32u8 {
        caps.push(cap_to_state(c.caps.get(i)));
    }
    caps.push(cap_to_state(c.caps.pcc()));
    ContextState { gpr: c.gpr, hi: c.hi, lo: c.lo, pc: c.pc, next_pc: c.next_pc, caps }
}

fn context_from_state(s: &ContextState) -> Result<Context, SnapError> {
    if s.caps.len() != 33 {
        return Err(SnapError(format!(
            "saved context needs 33 capability registers (c0..c31 + PCC), snapshot has {}",
            s.caps.len()
        )));
    }
    let mut caps = CapRegFile::empty();
    for i in 0..32u8 {
        caps.set(i, cap_from_state(&s.caps[usize::from(i)]));
    }
    caps.set_pcc(cap_from_state(&s.caps[32]));
    Ok(Context { gpr: s.gpr, hi: s.hi, lo: s.lo, pc: s.pc, next_pc: s.next_pc, caps })
}

fn domain_to_state(d: &DomainSpec) -> DomainState {
    DomainState {
        name: d.name.to_string(),
        entry: d.entry,
        c0: cap_to_state(&d.c0),
        pcc: cap_to_state(&d.pcc),
        stack_top: d.stack_top,
    }
}

fn domain_from_state(s: &DomainState) -> DomainSpec {
    DomainSpec {
        // DomainSpec carries a `&'static str` diagnostic name; restoring
        // leaks one small allocation per domain per restore, bounded by
        // the handful of domains any experiment registers.
        name: Box::leak(s.name.clone().into_boxed_str()),
        entry: s.entry,
        c0: cap_from_state(&s.c0),
        pcc: cap_from_state(&s.pcc),
        stack_top: s.stack_top,
    }
}

fn layout_array(l: &ProcessLayout) -> [u64; 5] {
    [l.text_base, l.globals_base, l.heap_base, l.stack_top, l.user_top]
}

impl Kernel {
    /// Captures the full machine + kernel state as a deterministic,
    /// versioned [`Snapshot`].
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        Snapshot { machine: self.machine.snapshot(), kernel: Some(self.export_state()) }
    }

    fn export_state(&self) -> KernelState {
        let mut page_table: Vec<(u64, u64)> =
            self.page_table.iter().map(|(&v, &f)| (v, f)).collect();
        // HashMap iteration order is nondeterministic; the snapshot is
        // canonical, so sort by virtual page.
        page_table.sort_unstable();
        KernelState {
            layout: layout_array(&self.cfg.layout),
            tlb_refill_cycles: self.cfg.tlb_refill_cycles,
            syscall_cycles: self.cfg.syscall_cycles,
            page_table,
            next_frame: self.next_frame,
            brk: self.brk,
            execs: self.execs,
            domain_calls: self.domain_calls,
            domain_returns: self.domain_returns,
            phases: self
                .phases
                .iter()
                .map(|p| PhaseState { id: p.id, stats: p.stats.to_array() })
                .collect(),
            prints: self.prints.clone(),
            console: self.console.clone(),
            domains: self.domains.iter().map(domain_to_state).collect(),
            domain_stack: self.domain_stack.iter().map(context_to_state).collect(),
            domain_id_stack: self.domain_id_stack.clone(),
        }
    }

    fn import_state(&mut self, s: &KernelState) -> Result<(), SnapError> {
        if layout_array(&self.cfg.layout) != s.layout {
            return Err(SnapError(format!(
                "process layout mismatch: running {:?}, snapshot {:?}",
                layout_array(&self.cfg.layout),
                s.layout
            )));
        }
        if self.cfg.tlb_refill_cycles != s.tlb_refill_cycles
            || self.cfg.syscall_cycles != s.syscall_cycles
        {
            return Err(SnapError(format!(
                "kernel cycle tariffs mismatch: running refill={}/syscall={}, \
                 snapshot refill={}/syscall={}",
                self.cfg.tlb_refill_cycles,
                self.cfg.syscall_cycles,
                s.tlb_refill_cycles,
                s.syscall_cycles
            )));
        }
        self.page_table = s.page_table.iter().copied().collect::<HashMap<u64, u64>>();
        self.next_frame = s.next_frame;
        self.brk = s.brk;
        self.execs = s.execs;
        self.domain_calls = s.domain_calls;
        self.domain_returns = s.domain_returns;
        self.phases = s
            .phases
            .iter()
            .map(|p| PhaseRecord { id: p.id, stats: Stats::from_array(p.stats) })
            .collect();
        self.prints = s.prints.clone();
        self.console = s.console.clone();
        self.domains = s.domains.iter().map(domain_from_state).collect();
        self.domain_stack =
            s.domain_stack.iter().map(context_from_state).collect::<Result<Vec<_>, _>>()?;
        self.domain_id_stack = s.domain_id_stack.clone();
        Ok(())
    }

    /// Restores a [`Kernel::snapshot`] onto this kernel. The machine
    /// identity and the kernel's layout / cycle tariffs must match; the
    /// attached trace sink and the runaway budget are left as they are
    /// (they are harness knobs, not process state).
    ///
    /// # Errors
    ///
    /// [`SnapError`] naming the first mismatch, or if the snapshot is
    /// machine-only (no kernel section); on error the kernel may be
    /// partially restored and must not be resumed.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapError> {
        let Some(k) = &snap.kernel else {
            return Err(SnapError(
                "snapshot has no kernel section (machine-only snapshot)".to_string(),
            ));
        };
        self.machine.restore(&snap.machine)?;
        self.import_state(k)
    }

    /// Resurrects a kernel from a snapshot alone: rebuilds the machine
    /// and the kernel configuration from the snapshot's identity
    /// sections, then restores the state. `block_cache` and
    /// `max_instructions` are caller decisions (neither is recorded in
    /// the snapshot). This is the `snapreplay` entry point — no help
    /// from the harness that took the snapshot is needed.
    ///
    /// # Errors
    ///
    /// [`SnapError`] if the snapshot is machine-only or malformed.
    pub fn resume(
        snap: &Snapshot,
        block_cache: bool,
        max_instructions: u64,
    ) -> Result<Kernel, SnapError> {
        let Some(ks) = &snap.kernel else {
            return Err(SnapError(
                "snapshot has no kernel section (machine-only snapshot)".to_string(),
            ));
        };
        let machine = Machine::from_state(&snap.machine, block_cache)?;
        let cfg = KernelConfig {
            machine: machine.config().clone(),
            layout: ProcessLayout {
                text_base: ks.layout[0],
                globals_base: ks.layout[1],
                heap_base: ks.layout[2],
                stack_top: ks.layout[3],
                user_top: ks.layout[4],
            },
            tlb_refill_cycles: ks.tlb_refill_cycles,
            syscall_cycles: ks.syscall_cycles,
            max_instructions,
        };
        let mut kernel = Kernel::new(machine, cfg);
        kernel.import_state(ks)?;
        Ok(kernel)
    }
}

#[cfg(test)]
mod tests {
    use cheri_asm::{reg, Asm};

    use crate::abi;
    use crate::kernel::KernelConfig;
    use beri_sim::MachineConfig;

    fn kernel() -> crate::Kernel {
        crate::boot(KernelConfig {
            machine: MachineConfig { mem_bytes: 8 << 20, ..MachineConfig::default() },
            ..KernelConfig::default()
        })
    }

    fn phase_program(k: &crate::Kernel) -> cheri_asm::Program {
        let mut a = Asm::new(k.layout().text_base);
        a.li64(reg::A0, 2);
        a.li64(reg::V0, abi::SYS_PHASE as i64);
        a.syscall(0);
        // Some work after the phase so there is something left to run.
        let heap = k.layout().heap_base;
        let top = a.new_label();
        a.li64(reg::T0, heap as i64);
        a.li64(reg::T1, 64);
        a.bind(top).unwrap();
        a.sd(reg::T1, reg::T0, 0);
        a.daddiu(reg::T0, reg::T0, 8);
        a.daddiu(reg::T1, reg::T1, -1);
        a.bgtz(reg::T1, top);
        a.li64(reg::A0, 7);
        a.li64(reg::V0, abi::SYS_EXIT as i64);
        a.syscall(0);
        a.finalize().unwrap()
    }

    #[test]
    fn snapshot_at_phase_then_restore_matches_straight_run() {
        let prog = {
            let k = kernel();
            phase_program(&k)
        };
        // Straight-through run.
        let mut straight = kernel();
        straight.exec(&prog).unwrap();
        let out_straight = straight.run().unwrap();
        let final_straight = straight.snapshot();

        // Interrupted run: stop at phase 2, snapshot, restore onto a
        // freshly booted kernel, finish there.
        let mut first = kernel();
        first.exec(&prog).unwrap();
        assert!(first.run_until_phase(2).unwrap().is_none(), "must stop at the phase");
        let snap = first.snapshot();

        let mut second = kernel();
        second.restore(&snap).unwrap();
        let out_resumed = second.run().unwrap();
        let final_resumed = second.snapshot();

        assert_eq!(out_resumed.exit_value(), Some(7));
        assert_eq!(out_straight.stats, out_resumed.stats);
        assert_eq!(final_straight.state_hash(), final_resumed.state_hash());
    }

    #[test]
    fn run_for_stops_exactly() {
        let prog = {
            let k = kernel();
            phase_program(&k)
        };
        let mut k = kernel();
        k.exec(&prog).unwrap();
        let before = k.machine().stats.instructions;
        assert!(k.run_for(10).unwrap().is_none());
        assert_eq!(k.machine().stats.instructions, before + 10);
    }

    #[test]
    fn resume_rebuilds_kernel_from_snapshot_alone() {
        let prog = {
            let k = kernel();
            phase_program(&k)
        };
        let mut k = kernel();
        k.exec(&prog).unwrap();
        assert!(k.run_until_phase(2).unwrap().is_none());
        let snap = k.snapshot();
        let out_direct = k.run().unwrap();

        let mut resumed = crate::Kernel::resume(&snap, true, 4_000_000_000).unwrap();
        let out_resumed = resumed.run().unwrap();
        assert_eq!(out_direct.stats, out_resumed.stats);
        assert_eq!(out_direct.console, out_resumed.console);
        assert_eq!(k.snapshot().state_hash(), resumed.snapshot().state_hash());
    }

    #[test]
    fn restore_rejects_mismatched_layout() {
        let mut k = kernel();
        let prog = phase_program(&k);
        k.exec(&prog).unwrap();
        let mut snap = k.snapshot();
        let ks = snap.kernel.as_mut().unwrap();
        ks.layout[2] += 0x1000;
        let mut other = kernel();
        assert!(other.restore(&snap).is_err());
    }

    #[test]
    fn machine_only_snapshot_is_rejected_by_kernel_restore() {
        let k = kernel();
        let snap = cheri_snap::Snapshot { machine: k.machine().snapshot(), kernel: None };
        let mut other = kernel();
        let err = other.restore(&snap).unwrap_err();
        assert!(err.0.contains("no kernel section"), "{err}");
    }
}
