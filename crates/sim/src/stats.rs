//! Execution statistics.
//!
//! Everything the benchmark harnesses need: retired instructions, cycle
//! counts from the latency model, memory-reference counts and byte
//! volumes (the Figure 3 metrics), and capability-specific event counts.

use core::fmt;

/// Counters accumulated by [`crate::Machine`] while executing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Retired instructions.
    pub instructions: u64,
    /// Cycles charged (base CPI 1 plus memory/branch/muldiv penalties).
    pub cycles: u64,
    /// Scalar + capability loads.
    pub loads: u64,
    /// Scalar + capability stores.
    pub stores: u64,
    /// Bytes read by loads.
    pub bytes_loaded: u64,
    /// Bytes written by stores.
    pub bytes_stored: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Conditional branches mispredicted.
    pub mispredicts: u64,
    /// CHERI (COP2) instructions retired.
    pub cap_instructions: u64,
    /// Capability register loads (`CLC`).
    pub cap_loads: u64,
    /// Capability register stores (`CSC`).
    pub cap_stores: u64,
    /// `SYSCALL`s delivered.
    pub syscalls: u64,
    /// Exceptions delivered (all kinds, including TLB refills).
    pub exceptions: u64,
    /// TLB refill exceptions.
    pub tlb_refills: u64,
    /// Capability violations delivered.
    pub cap_violations: u64,
}

impl Stats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Total memory references (the Figure 3 "Memory references (count)"
    /// metric).
    #[must_use]
    pub fn memory_references(&self) -> u64 {
        self.loads + self.stores
    }

    /// Total bytes moved by the program (the Figure 3 "Memory I/O
    /// (bytes)" metric at the reference level).
    #[must_use]
    pub fn memory_bytes(&self) -> u64 {
        self.bytes_loaded + self.bytes_stored
    }

    /// The fixed field order used by `cheri-snap` serialization. Keep in
    /// sync with [`Stats::from_array`] and the struct declaration.
    #[must_use]
    pub fn to_array(&self) -> [u64; 15] {
        [
            self.instructions,
            self.cycles,
            self.loads,
            self.stores,
            self.bytes_loaded,
            self.bytes_stored,
            self.branches,
            self.mispredicts,
            self.cap_instructions,
            self.cap_loads,
            self.cap_stores,
            self.syscalls,
            self.exceptions,
            self.tlb_refills,
            self.cap_violations,
        ]
    }

    /// Inverse of [`Stats::to_array`].
    #[must_use]
    pub fn from_array(a: [u64; 15]) -> Stats {
        Stats {
            instructions: a[0],
            cycles: a[1],
            loads: a[2],
            stores: a[3],
            bytes_loaded: a[4],
            bytes_stored: a[5],
            branches: a[6],
            mispredicts: a[7],
            cap_instructions: a[8],
            cap_loads: a[9],
            cap_stores: a[10],
            syscalls: a[11],
            exceptions: a[12],
            tlb_refills: a[13],
            cap_violations: a[14],
        }
    }

    /// Difference of two snapshots (`self - earlier`), for phase
    /// decomposition (Figure 4 splits allocation from computation).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is not actually earlier.
    #[must_use]
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            instructions: self.instructions - earlier.instructions,
            cycles: self.cycles - earlier.cycles,
            loads: self.loads - earlier.loads,
            stores: self.stores - earlier.stores,
            bytes_loaded: self.bytes_loaded - earlier.bytes_loaded,
            bytes_stored: self.bytes_stored - earlier.bytes_stored,
            branches: self.branches - earlier.branches,
            mispredicts: self.mispredicts - earlier.mispredicts,
            cap_instructions: self.cap_instructions - earlier.cap_instructions,
            cap_loads: self.cap_loads - earlier.cap_loads,
            cap_stores: self.cap_stores - earlier.cap_stores,
            syscalls: self.syscalls - earlier.syscalls,
            exceptions: self.exceptions - earlier.exceptions,
            tlb_refills: self.tlb_refills - earlier.tlb_refills,
            cap_violations: self.cap_violations - earlier.cap_violations,
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "instructions: {:>12}  cycles: {:>12}  ipc: {:.3}",
            self.instructions,
            self.cycles,
            self.ipc()
        )?;
        writeln!(
            f,
            "loads: {:>12}  stores: {:>12}  bytes: {:>12}",
            self.loads,
            self.stores,
            self.memory_bytes()
        )?;
        write!(
            f,
            "branches: {:>9} (mispred {})  cap-instrs: {}  tlb-refills: {}",
            self.branches, self.mispredicts, self.cap_instructions, self.tlb_refills
        )
    }
}

/// Host-side work counters: what the simulator did to answer the guest,
/// as opposed to what the guest did ([`Stats`]). They depend on host
/// caching decisions, so they never enter [`crate::Machine::metrics`],
/// reports, snapshots or equality checks. Each is bumped on a miss path
/// only, so the hit paths they describe cost nothing extra.
///
/// Host-TLB miss rates follow by dividing by the guest's counts: load
/// and store misses over [`Stats::loads`]/[`Stats::stores`], fetch misses
/// over instructions (per-instruction `step`) or block entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Instruction-fetch translations the host TLB could not answer.
    pub fetch_misses: u64,
    /// Load translations the host TLB could not answer.
    pub load_misses: u64,
    /// Store translations the host TLB could not answer.
    pub store_misses: u64,
    /// Architectural TLB entries compared by those misses' scans.
    pub tlb_entries_scanned: u64,
    /// Times the host TLB was emptied (TLB writes, flushes, mode
    /// changes, restores).
    pub host_tlb_invalidations: u64,
}

impl HostStats {
    /// Scans of the architectural TLB: one per host-TLB miss.
    #[must_use]
    pub fn tlb_scans(&self) -> u64 {
        self.fetch_misses + self.load_misses + self.store_misses
    }
}

impl fmt::Display for HostStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "host TLB misses: fetch {}  load {}  store {}  invalidations {}",
            self.fetch_misses, self.load_misses, self.store_misses, self.host_tlb_invalidations
        )?;
        write!(
            f,
            "architectural TLB scans: {}  entries scanned: {}",
            self.tlb_scans(),
            self.tlb_entries_scanned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(Stats::default().ipc(), 0.0);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = Stats { instructions: 10, cycles: 20, loads: 3, ..Stats::default() };
        let b = Stats { instructions: 25, cycles: 60, loads: 7, ..Stats::default() };
        let d = b.since(&a);
        assert_eq!(d.instructions, 15);
        assert_eq!(d.cycles, 40);
        assert_eq!(d.loads, 4);
    }

    #[test]
    fn display_is_informative() {
        let s = Stats { instructions: 5, cycles: 10, ..Stats::default() };
        let out = s.to_string();
        assert!(out.contains("ipc: 0.500"));
    }
}
