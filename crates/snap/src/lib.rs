//! **cheri-snap** — versioned, fully deterministic serialization of
//! complete machine state.
//!
//! The paper's evaluation reruns an identical boot + workload-setup
//! prefix for every cell of the workload × strategy × capwidth ×
//! tagcache matrix. This crate is the persistence layer that makes the
//! prefix reusable: a [`Snapshot`] captures *everything* the simulator
//! and the `cheri-os` kernel need to resume a run bit-exactly —
//! GPRs/CP0 and the CP2 capability register file, the TLB, every
//! pipeline/statistics counter, cache and tag-cache contents, tagged
//! physical memory (run-length compressed, with the tag table), and
//! kernel state (page table, domains, saved contexts, phase records).
//!
//! Three invariants define the format:
//!
//! 1. **Deterministic**: a given machine state has exactly one
//!    serialization. Maps are emitted sorted, fields in a fixed order,
//!    numbers as unsigned decimals. Equal states produce equal bytes.
//! 2. **Versioned**: every snapshot carries `schema: "cheri-snap/v1"`
//!    and an integer `version`; the decoder rejects anything else
//!    rather than guessing.
//! 3. **Complete for resumption, silent on harness knobs**: everything
//!    architectural or timing-visible is captured; reconstructible
//!    acceleration state (the host TLB, predecoded block cache) and
//!    harness configuration (trace sinks, runaway budgets, the
//!    block-cache enable flag) are deliberately *excluded*, so the same
//!    snapshot hashes identically whichever way the simulator is
//!    driven.
//!
//! Serialization reuses the workspace's hand-rolled JSON
//! ([`cheri_trace::json`]) — the build is offline, so there is no
//! serde. [`StateHash`] (64-bit FNV-1a over the canonical bytes) gives
//! cheap equality for lockstep comparison and divergence bisection.

mod codec;
mod state;

pub use state::{
    CacheLineState, CacheState, CapState, ConfigState, ContextState, CpuState, DomainState,
    HierarchyState, KernelState, MachineState, MemState, PhaseState, PredictorState, Snapshot,
    TagCacheLineState, TlbEntryState, TlbState,
};

/// Schema identifier written into (and required from) every snapshot.
pub const SCHEMA: &str = "cheri-snap/v1";

/// Format version written into (and required from) every snapshot.
pub const VERSION: u64 = 1;

/// An error from decoding a snapshot or restoring one into a machine
/// whose configuration does not match.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapError(pub String);

impl SnapError {
    /// Builds an error with the given message.
    #[must_use]
    pub fn msg(m: impl Into<String>) -> SnapError {
        SnapError(m.into())
    }
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot error: {}", self.0)
    }
}

impl std::error::Error for SnapError {}

/// A cheap 64-bit digest of a canonical snapshot serialization —
/// FNV-1a, the same construction `cheri-trace` and the block-cache
/// differ use for memory checksums. Two states are equal iff their
/// canonical serializations are equal, so hash inequality proves
/// divergence and hash equality is (for triage purposes) equality.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StateHash(pub u64);

impl StateHash {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Hashes a byte string.
    #[must_use]
    pub fn of_bytes(bytes: &[u8]) -> StateHash {
        let mut h = StateHash::OFFSET;
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(StateHash::PRIME);
        }
        StateHash(h)
    }
}

impl std::fmt::Display for StateHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Run-length encodes a word stream into `(count, value)` pairs.
/// Physical memory and branch-predictor tables are dominated by long
/// runs (zeroes, reset counters), so this keeps multi-megabyte machine
/// images at JSON-able sizes without a compression dependency.
pub fn rle_encode<I: IntoIterator<Item = u64>>(values: I) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for v in values {
        match out.last_mut() {
            Some((count, value)) if *value == v => *count += 1,
            _ => out.push((1, v)),
        }
    }
    out
}

/// Expands `(count, value)` pairs back into the word stream.
#[must_use]
pub fn rle_decode(pairs: &[(u64, u64)]) -> Vec<u64> {
    let mut out = Vec::with_capacity(usize::try_from(rle_len(pairs)).unwrap_or(0));
    for &(count, value) in pairs {
        for _ in 0..count {
            out.push(value);
        }
    }
    out
}

/// Total number of words an RLE stream expands to.
#[must_use]
pub fn rle_len(pairs: &[(u64, u64)]) -> u64 {
    pairs.iter().map(|&(c, _)| c).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip() {
        let data = [0u64, 0, 0, 7, 7, 1, 0, 0, 0, 0, u64::MAX];
        let pairs = rle_encode(data.iter().copied());
        assert_eq!(pairs, vec![(3, 0), (2, 7), (1, 1), (4, 0), (1, u64::MAX)]);
        assert_eq!(rle_decode(&pairs), data);
        assert_eq!(rle_len(&pairs), data.len() as u64);
    }

    #[test]
    fn rle_empty() {
        assert!(rle_encode(std::iter::empty()).is_empty());
        assert_eq!(rle_len(&[]), 0);
        assert!(rle_decode(&[]).is_empty());
    }

    #[test]
    fn fnv_known_values() {
        // FNV-1a reference vectors.
        assert_eq!(StateHash::of_bytes(b"").0, 0xcbf2_9ce4_8422_2325);
        assert_eq!(StateHash::of_bytes(b"a").0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn hash_display_is_fixed_width() {
        assert_eq!(StateHash(0x1a).to_string(), "000000000000001a");
    }
}
