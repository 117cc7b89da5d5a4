//! # cheri-trace — architectural event tracing for the CHERI reproduction
//!
//! Every quantity the paper measures (the Figure 4/5 overheads, the
//! §4.2 tag-cache behaviour, the §8 ablations) is an architectural
//! event count. The per-struct counters (`beri_sim::Stats`, `Cache`
//! hit/miss fields, `TagCacheStats`) are the one source of those
//! counts; `beri_sim::Machine::metrics` exports them as a [`Snapshot`]
//! under the canonical [`names`], with mechanical [`Snapshot::diff`]
//! between runs. This crate also gives the underlying events one
//! vocabulary ([`TraceEvent`]) and one delivery path: a [`JsonlSink`]
//! streaming them as JSON lines.
//!
//! ## Design constraints
//!
//! * **No external dependencies.** JSON lines are written and parsed by
//!   the hand-rolled [`json`] module; no serde.
//! * **Near-zero cost when detached.** Instrumented components hold an
//!   `Option<SharedSink>`; with no sink attached the hot path is one
//!   predictable branch and the event value is never even constructed —
//!   emission sites take an `FnOnce() -> TraceEvent` via [`emit`].
//! * **Observational transparency.** Sinks only observe; nothing in
//!   this crate feeds back into architectural state. An integration
//!   test in `cheri-bench` asserts that traced and un-instrumented runs
//!   reach bit-identical architectural end-states, and that the stream
//!   is complete: folded back into counters, it equals the snapshot the
//!   per-struct counters export.
//!
//! ## Quick use
//!
//! ```
//! use cheri_trace::{emit, shared, CacheLevel, JsonlSink, TraceEvent};
//!
//! let sink = shared(JsonlSink::new(Box::new(Vec::new())));
//! let attached = Some(sink.clone());
//! emit(&attached, || TraceEvent::CacheAccess {
//!     level: CacheLevel::L1D,
//!     write: false,
//!     hit: true,
//!     writeback: false,
//! });
//! assert_eq!(sink.borrow().written(), 1);
//! ```

// Library paths must report errors, not abort: every fallible path
// returns Result or uses expect with a stated invariant. Tests may
// unwrap freely.
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod event;
pub mod json;
mod metrics;
mod sink;

pub use event::{CacheLevel, TraceEvent};
pub use metrics::{Snapshot, SnapshotDiff};
pub use sink::{emit, marker, shared, JsonlSink, SharedSink};

/// Canonical counter names that `beri_sim::Machine::metrics` and
/// `cheri_os::Kernel::metrics` export, and that reports, baselines and
/// the trace-stream completeness test look up.
pub mod names {
    /// Instructions retired.
    pub const INSTRUCTIONS: &str = "sim.instructions";
    /// Capability instructions retired.
    pub const CAP_INSTRUCTIONS: &str = "sim.cap_instructions";
    /// L1 instruction-cache hits/misses/writebacks.
    pub const L1I_HITS: &str = "cache.l1i.hits";
    pub const L1I_MISSES: &str = "cache.l1i.misses";
    pub const L1I_WRITEBACKS: &str = "cache.l1i.writebacks";
    /// L1 data-cache hits/misses/writebacks.
    pub const L1D_HITS: &str = "cache.l1d.hits";
    pub const L1D_MISSES: &str = "cache.l1d.misses";
    pub const L1D_WRITEBACKS: &str = "cache.l1d.writebacks";
    /// Unified L2 hits/misses/writebacks.
    pub const L2_HITS: &str = "cache.l2.hits";
    pub const L2_MISSES: &str = "cache.l2.misses";
    pub const L2_WRITEBACKS: &str = "cache.l2.writebacks";
    /// TLB refills taken.
    pub const TLB_REFILLS: &str = "tlb.refills";
    /// Tag-table (§4.2) reads and writes.
    pub const TAG_TABLE_READS: &str = "tag.table.reads";
    pub const TAG_TABLE_WRITES: &str = "tag.table.writes";
    /// Tag-cache hits/misses/writebacks.
    pub const TAG_CACHE_HITS: &str = "tag.cache.hits";
    pub const TAG_CACHE_MISSES: &str = "tag.cache.misses";
    pub const TAG_CACHE_WRITEBACKS: &str = "tag.cache.writebacks";
    /// Capability exceptions raised.
    pub const CAP_EXCEPTIONS: &str = "cap.exceptions";
    /// Syscalls serviced by the kernel.
    pub const SYSCALLS: &str = "os.syscalls";
    /// Address-space context switches.
    pub const CONTEXT_SWITCHES: &str = "os.context_switches";
    /// Protection-domain calls and returns (CCall/CReturn model).
    pub const DOMAIN_CALLS: &str = "os.domain_calls";
    pub const DOMAIN_RETURNS: &str = "os.domain_returns";
    /// Data-side memory operations observed at retire.
    pub const LOADS: &str = "mem.loads";
    pub const STORES: &str = "mem.stores";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_and_diff() {
        let mut a = Snapshot::default();
        a.set_counter(names::TLB_REFILLS, 7);
        a.set_counter(names::SYSCALLS, 2);
        let mut b = a.clone();
        b.set_counter(names::TLB_REFILLS, 12);

        let text = a.to_json();
        let back = Snapshot::from_json(&text).expect("parse own output");
        assert_eq!(back, a);

        let d = a.diff(&b);
        let tlb = d.entries().iter().find(|e| e.0 == names::TLB_REFILLS).expect("tlb in diff");
        assert_eq!((tlb.1, tlb.2), (7, 12));
        assert_eq!(tlb.3, 5);
        let sys = d.entries().iter().find(|e| e.0 == names::SYSCALLS).unwrap();
        assert_eq!(sys.3, 0);
    }
}
