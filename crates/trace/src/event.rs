//! The architectural event vocabulary.
//!
//! Events are small `Copy` values: emission sites construct them inside
//! an `FnOnce` (see [`crate::emit`]) so a run with no sink attached
//! never pays for the construction.

use crate::json::JsonWriter;

/// Which cache in the modelled hierarchy an access hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache.
    L1D,
    /// Unified L2.
    L2,
}

impl CacheLevel {
    /// Lower-case short name used in metric names and JSON.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            CacheLevel::L1I => "l1i",
            CacheLevel::L1D => "l1d",
            CacheLevel::L2 => "l2",
        }
    }
}

/// One architectural event, as observed by the simulator, the memory
/// hierarchy, the tag controller, or the kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// An instruction retired. `cap` marks capability instructions.
    Retire { pc: u64, cap: bool },
    /// One cache lookup at `level`. `writeback` marks a dirty-victim
    /// eviction triggered by this access.
    CacheAccess { level: CacheLevel, write: bool, hit: bool, writeback: bool },
    /// A data-side access completed; `cycles` is the full hierarchy
    /// charge for the access.
    DataAccess { write: bool, bytes: u64, cycles: u64 },
    /// A TLB refill was taken for `vaddr`; `cycles` is the refill
    /// tariff charged by the kernel handler.
    TlbRefill { vaddr: u64, cycles: u64 },
    /// The tag controller answered a tag lookup (one per
    /// `TagCacheStats::lookups`).
    TagTableRead { addr: u64, tag: bool },
    /// The tag controller updated the tag table (one per
    /// `TagCacheStats::updates`).
    TagTableWrite { addr: u64, tag: bool },
    /// One tag-cache line probe (§4.2): hit or miss, with an optional
    /// dirty writeback.
    TagCache { hit: bool, writeback: bool },
    /// A capability exception was raised (`code`/`reg` follow the
    /// CP2 cause-register encoding of Table 2).
    CapException { code: u8, reg: u8, pc: u64 },
    /// The kernel serviced syscall `nr`, charging `cycles`.
    Syscall { nr: u64, cycles: u64 },
    /// The kernel switched address spaces (process `pid` now running).
    ContextSwitch { pid: u64 },
    /// A protection-domain crossing: `enter` is a domain call into
    /// `to`, `!enter` a return from `from`.
    DomainCross { from: u64, to: u64, enter: bool },
}

impl TraceEvent {
    /// Short kind tag used as the JSON `ev` field.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Retire { .. } => "retire",
            TraceEvent::CacheAccess { .. } => "cache",
            TraceEvent::DataAccess { .. } => "data",
            TraceEvent::TlbRefill { .. } => "tlb_refill",
            TraceEvent::TagTableRead { .. } => "tag_read",
            TraceEvent::TagTableWrite { .. } => "tag_write",
            TraceEvent::TagCache { .. } => "tag_cache",
            TraceEvent::CapException { .. } => "cap_exc",
            TraceEvent::Syscall { .. } => "syscall",
            TraceEvent::ContextSwitch { .. } => "ctx_switch",
            TraceEvent::DomainCross { .. } => "domain",
        }
    }

    /// Renders the event as one JSON object (no trailing newline).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::object();
        w.str_field("ev", self.kind());
        match *self {
            TraceEvent::Retire { pc, cap } => {
                w.hex_field("pc", pc);
                w.bool_field("cap", cap);
            }
            TraceEvent::CacheAccess { level, write, hit, writeback } => {
                w.str_field("level", level.as_str());
                w.bool_field("write", write);
                w.bool_field("hit", hit);
                if writeback {
                    w.bool_field("wb", true);
                }
            }
            TraceEvent::DataAccess { write, bytes, cycles } => {
                w.bool_field("write", write);
                w.u64_field("bytes", bytes);
                w.u64_field("cycles", cycles);
            }
            TraceEvent::TlbRefill { vaddr, cycles } => {
                w.hex_field("vaddr", vaddr);
                w.u64_field("cycles", cycles);
            }
            TraceEvent::TagTableRead { addr, tag } | TraceEvent::TagTableWrite { addr, tag } => {
                w.hex_field("addr", addr);
                w.bool_field("tag", tag);
            }
            TraceEvent::TagCache { hit, writeback } => {
                w.bool_field("hit", hit);
                if writeback {
                    w.bool_field("wb", true);
                }
            }
            TraceEvent::CapException { code, reg, pc } => {
                w.u64_field("code", u64::from(code));
                w.u64_field("reg", u64::from(reg));
                w.hex_field("pc", pc);
            }
            TraceEvent::Syscall { nr, cycles } => {
                w.u64_field("nr", nr);
                w.u64_field("cycles", cycles);
            }
            TraceEvent::ContextSwitch { pid } => {
                w.u64_field("pid", pid);
            }
            TraceEvent::DomainCross { from, to, enter } => {
                w.u64_field("from", from);
                w.u64_field("to", to);
                w.bool_field("enter", enter);
            }
        }
        w.close()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compact_json() {
        let ev = TraceEvent::CacheAccess {
            level: CacheLevel::L2,
            write: true,
            hit: false,
            writeback: true,
        };
        assert_eq!(
            ev.to_json(),
            r#"{"ev":"cache","level":"l2","write":true,"hit":false,"wb":true}"#
        );
        let ev = TraceEvent::Retire { pc: 0x1000, cap: false };
        assert_eq!(ev.to_json(), r#"{"ev":"retire","pc":"0x1000","cap":false}"#);
    }
}
