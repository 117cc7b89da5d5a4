//! The cache hierarchy and its latency model.
//!
//! Geometry defaults follow the FPGA platform of the paper (Section 8 /
//! Figure 5): 32-byte lines ("Unsafe nodes are 24-bytes, which fit more
//! efficiently in our 32-byte cache lines"), a 16 KB L1 data cache, a
//! 16 KB L1 instruction cache, and a 64 KB L2. Caches are physically
//! indexed, write-back, write-allocate, with LRU replacement.
//!
//! The hierarchy charges *penalty cycles* on top of the 1-instruction
//! base CPI and counts DRAM traffic, which together drive the Figure 4
//! execution-time decomposition and the Figure 5 heap-size steps.

use cheri_trace::{emit, CacheLevel, SharedSink, TraceEvent};

/// Geometry of one cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size: usize,
    /// Line size in bytes.
    pub line: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheParams {
    /// The paper's L1 geometry: 16 KB, 32-byte lines, 4-way.
    #[must_use]
    pub const fn l1() -> CacheParams {
        CacheParams { size: 16 * 1024, line: 32, ways: 4 }
    }

    /// The paper's L2 geometry: 64 KB, 32-byte lines, 8-way.
    #[must_use]
    pub const fn l2() -> CacheParams {
        CacheParams { size: 64 * 1024, line: 32, ways: 8 }
    }

    /// Number of sets.
    #[must_use]
    pub const fn sets(&self) -> usize {
        self.size / (self.line * self.ways)
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// Outcome of a single-cache lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Hit.
    Hit,
    /// Miss; payload reports whether a dirty victim was evicted.
    Miss {
        /// A dirty line was written back to the next level.
        writeback: bool,
    },
}

/// One set-associative write-back cache.
#[derive(Clone, Debug)]
pub struct Cache {
    params: CacheParams,
    lines: Vec<Line>,
    tick: u64,
    /// Hits observed.
    pub hits: u64,
    /// Misses observed.
    pub misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
    // Precomputed index arithmetic: line size is always a power of two
    // (asserted in `new`), and when the set count is too, indexing is a
    // mask/shift instead of a division. The set count itself is cached
    // so `locate` does not re-derive it (a division) per access.
    line_shift: u32,
    set_shift: Option<u32>,
    sets: usize,
    // Most-recently-touched line. Only accesses through this cache can
    // evict from it, so an access to the same line as the previous one
    // is a guaranteed hit and skips the set scan; the bookkeeping it
    // performs (tick, LRU stamp, dirty, hit count) is identical to the
    // scan path's. `u64::MAX` = none.
    mru_block: u64,
    mru_index: usize,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways or
    /// non-power-of-two line size).
    #[must_use]
    pub fn new(params: CacheParams) -> Cache {
        assert!(params.ways > 0 && params.sets() > 0, "degenerate cache geometry");
        assert!(params.line.is_power_of_two(), "line size must be a power of two");
        Cache {
            params,
            lines: vec![Line::default(); params.sets() * params.ways],
            tick: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            line_shift: params.line.trailing_zeros(),
            set_shift: if params.sets().is_power_of_two() {
                Some(params.sets().trailing_zeros())
            } else {
                None
            },
            sets: params.sets(),
            mru_block: u64::MAX,
            mru_index: 0,
        }
    }

    /// `(first way index, tag)` for the set containing `paddr`.
    #[inline]
    fn locate(&self, paddr: u64) -> (usize, u64) {
        let block = paddr >> self.line_shift;
        let sets = self.sets as u64;
        let (set, tag) = match self.set_shift {
            Some(s) => (block & (sets - 1), block >> s),
            None => (block % sets, block / sets),
        };
        (set as usize * self.params.ways, tag)
    }

    /// The cache geometry.
    #[must_use]
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Looks up (and on miss, fills) the line containing `paddr`,
    /// marking it dirty on writes.
    #[inline]
    pub fn access(&mut self, paddr: u64, write: bool) -> Lookup {
        self.tick += 1;
        if paddr >> self.line_shift == self.mru_block {
            let l = &mut self.lines[self.mru_index];
            l.lru = self.tick;
            if write {
                l.dirty = true;
            }
            self.hits += 1;
            return Lookup::Hit;
        }
        self.access_set(paddr, write)
    }

    /// [`Cache::access`] past the MRU filter: the set scan.
    fn access_set(&mut self, paddr: u64, write: bool) -> Lookup {
        let (base, tag) = self.locate(paddr);
        let ways = &mut self.lines[base..base + self.params.ways];

        if let Some(w) = ways.iter().position(|l| l.valid && l.tag == tag) {
            let l = &mut ways[w];
            l.lru = self.tick;
            if write {
                l.dirty = true;
            }
            self.hits += 1;
            self.mru_block = paddr >> self.line_shift;
            self.mru_index = base + w;
            return Lookup::Hit;
        }
        self.fill(paddr, base, tag, write)
    }

    /// The miss half of [`Cache::access`]: fills the set at `base` over
    /// its LRU way.
    #[cold]
    fn fill(&mut self, paddr: u64, base: usize, tag: u64, write: bool) -> Lookup {
        self.misses += 1;
        let ways = &mut self.lines[base..base + self.params.ways];
        let (w, victim) = ways
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru } else { 0 })
            .expect("ways > 0");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = Line { valid: true, dirty: write, tag, lru: self.tick };
        self.mru_block = paddr >> self.line_shift;
        self.mru_index = base + w;
        Lookup::Miss { writeback }
    }

    /// Records `n` consecutive read hits on the (resident) line
    /// containing `paddr` in one batched update. Equivalent to `n`
    /// [`Cache::access`] read calls that all hit: each such call would
    /// advance the tick, refresh the line's LRU stamp to it, and count
    /// a hit — so only the final LRU stamp is observable. Falls back to
    /// per-access bookkeeping if the line is not resident (the callers'
    /// invariant violated), keeping counters exact either way.
    pub fn record_hits(&mut self, paddr: u64, n: u64) {
        let (base, tag) = self.locate(paddr);
        let ways = &mut self.lines[base..base + self.params.ways];
        if let Some(w) = ways.iter().position(|l| l.valid && l.tag == tag) {
            self.tick += n;
            ways[w].lru = self.tick;
            self.hits += n;
            self.mru_block = paddr >> self.line_shift;
            self.mru_index = base + w;
        } else {
            debug_assert!(false, "record_hits on a non-resident line");
            for _ in 0..n {
                self.access(paddr, false);
            }
        }
    }

    /// Invalidates everything (used on address-space teardown between
    /// benchmark runs).
    pub fn flush(&mut self) {
        for l in &mut self.lines {
            *l = Line::default();
        }
        self.mru_block = u64::MAX;
    }

    /// Exports the complete cache state for `cheri-snap`. The MRU
    /// cursor is included: it is architecturally transparent, but
    /// restoring it makes a restored cache bit-identical to the
    /// original (which the snapshot equality tests assert).
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::CacheState {
        cheri_snap::CacheState {
            lines: self
                .lines
                .iter()
                .map(|l| cheri_snap::CacheLineState {
                    valid: l.valid,
                    dirty: l.dirty,
                    tag: l.tag,
                    lru: l.lru,
                })
                .collect(),
            tick: self.tick,
            hits: self.hits,
            misses: self.misses,
            writebacks: self.writebacks,
            mru_block: self.mru_block,
            mru_index: self.mru_index as u64,
        }
    }

    /// Restores state exported by [`Cache::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the line count does not match this
    /// cache's geometry.
    pub fn import_state(
        &mut self,
        s: &cheri_snap::CacheState,
    ) -> Result<(), cheri_snap::SnapError> {
        if s.lines.len() != self.lines.len() {
            return Err(cheri_snap::SnapError(format!(
                "cache holds {} lines, snapshot has {}",
                self.lines.len(),
                s.lines.len()
            )));
        }
        if (s.mru_index as usize) >= self.lines.len() && s.mru_block != u64::MAX {
            return Err(cheri_snap::SnapError(format!("MRU index {} out of range", s.mru_index)));
        }
        for (l, sl) in self.lines.iter_mut().zip(&s.lines) {
            *l = Line { valid: sl.valid, dirty: sl.dirty, tag: sl.tag, lru: sl.lru };
        }
        self.tick = s.tick;
        self.hits = s.hits;
        self.misses = s.misses;
        self.writebacks = s.writebacks;
        self.mru_block = s.mru_block;
        self.mru_index = (s.mru_index as usize).min(self.lines.len().saturating_sub(1));
        Ok(())
    }
}

/// Latency parameters (penalty cycles beyond the base CPI).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HierarchyParams {
    /// L1 geometries (instruction and data are identical).
    pub l1: CacheParams,
    /// L2 geometry.
    pub l2: CacheParams,
    /// Extra cycles for an L1 miss that hits in L2.
    pub l2_latency: u64,
    /// Extra cycles for an access that goes to DRAM.
    pub dram_latency: u64,
}

impl Default for HierarchyParams {
    /// Latencies are calibrated to the paper's platform: a 100 MHz FPGA
    /// soft core, where an on-chip L2 is ~2 cycles and DRAM only ~6 core
    /// cycles away (60 ns at 100 MHz), unlike a multi-GHz part. These
    /// values reproduce the magnitude of the Figure 4/5 overheads.
    fn default() -> HierarchyParams {
        HierarchyParams {
            l1: CacheParams::l1(),
            l2: CacheParams::l2(),
            l2_latency: 2,
            dram_latency: 6,
        }
    }
}

/// The full hierarchy: split L1 I/D over a unified L2 over DRAM.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    params: HierarchyParams,
    // log2 of the L1 line size (line sizes are asserted powers of two).
    line_shift: u32,
    /// Bytes moved between L2 and DRAM (line fills + writebacks) — the
    /// "Memory I/O (bytes)" quantity of Figure 3.
    pub dram_bytes: u64,
    /// Individual DRAM transactions.
    pub dram_accesses: u64,
    // Trace sink shared with the rest of the machine; one event per
    // counted cache access.
    sink: Option<SharedSink>,
}

impl Hierarchy {
    /// Builds the hierarchy.
    #[must_use]
    pub fn new(params: HierarchyParams) -> Hierarchy {
        Hierarchy {
            l1i: Cache::new(params.l1),
            l1d: Cache::new(params.l1),
            l2: Cache::new(params.l2),
            params,
            line_shift: params.l1.line.trailing_zeros(),
            dram_bytes: 0,
            dram_accesses: 0,
            sink: None,
        }
    }

    /// Attaches (or with `None`, detaches) a trace sink. One
    /// `CacheAccess` event is emitted per [`Cache::access`] call —
    /// including the L2 probe behind an L1 miss and the L2 update
    /// absorbing a dirty L1 victim — so the stream is complete: its
    /// `cache` events, counted, equal the per-cache counters.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// The latency/geometry parameters.
    #[must_use]
    pub fn params(&self) -> HierarchyParams {
        self.params
    }

    fn through_l2(&mut self, paddr: u64, write_into_l2: bool) -> u64 {
        let lookup = self.l2.access(paddr, write_into_l2);
        self.emit_access(CacheLevel::L2, write_into_l2, lookup);
        match lookup {
            Lookup::Hit => self.params.l2_latency,
            Lookup::Miss { writeback } => {
                self.dram_accesses += 1;
                self.dram_bytes += self.params.l2.line as u64;
                if writeback {
                    self.dram_accesses += 1;
                    self.dram_bytes += self.params.l2.line as u64;
                }
                self.params.dram_latency
            }
        }
    }

    #[inline]
    fn emit_access(&mut self, level: CacheLevel, write: bool, lookup: Lookup) {
        emit(&self.sink, || match lookup {
            Lookup::Hit => TraceEvent::CacheAccess { level, write, hit: true, writeback: false },
            Lookup::Miss { writeback } => {
                TraceEvent::CacheAccess { level, write, hit: false, writeback }
            }
        });
    }

    /// One instruction fetch at physical address `paddr`; returns penalty
    /// cycles.
    #[inline]
    pub fn fetch(&mut self, paddr: u64) -> u64 {
        let lookup = self.l1i.access(paddr, false);
        self.emit_access(CacheLevel::L1I, false, lookup);
        match lookup {
            Lookup::Hit => 0,
            Lookup::Miss { .. } => self.through_l2(paddr, false),
        }
    }

    /// `n` instruction fetches that are all guaranteed L1I hits (the
    /// line containing `paddr` was fetched and nothing else touches
    /// L1I), batched: zero penalty cycles, one counter/LRU update, and
    /// the same per-access trace events as [`Hierarchy::fetch`] would
    /// emit.
    pub fn fetch_hits(&mut self, paddr: u64, n: u64) {
        self.l1i.record_hits(paddr, n);
        if self.sink.is_some() {
            for _ in 0..n {
                self.emit_access(CacheLevel::L1I, false, Lookup::Hit);
            }
        }
    }

    /// One data access of `size` bytes at `paddr`; returns penalty
    /// cycles. Accesses crossing a line boundary touch both lines (as the
    /// hardware would take two cache cycles).
    #[inline]
    pub fn data(&mut self, paddr: u64, size: u64, write: bool) -> u64 {
        let first = paddr >> self.line_shift;
        let last = if size == 0 { first } else { (paddr + size - 1) >> self.line_shift };
        if first == last {
            // The overwhelmingly common case: the access fits one line.
            return self.data_line(first << self.line_shift, write);
        }
        let mut penalty = 0;
        for blk in first..=last {
            penalty += self.data_line(blk << self.line_shift, write);
        }
        penalty
    }

    /// One line-sized data access; shared tail of [`Hierarchy::data`].
    #[inline]
    fn data_line(&mut self, addr: u64, write: bool) -> u64 {
        let lookup = self.l1d.access(addr, write);
        self.emit_access(CacheLevel::L1D, write, lookup);
        match lookup {
            Lookup::Hit => 0,
            Lookup::Miss { writeback } => self.data_miss(addr, writeback),
        }
    }

    /// The L1D-miss half of [`Hierarchy::data_line`]: the L2 probe, plus
    /// the L2 update absorbing a dirty L1 victim.
    #[cold]
    fn data_miss(&mut self, addr: u64, writeback: bool) -> u64 {
        let penalty = self.through_l2(addr, false);
        if writeback {
            // Dirty L1 victim lands in L2.
            let victim = self.l2.access(addr, true);
            self.emit_access(CacheLevel::L2, true, victim);
        }
        penalty
    }

    /// Flushes all levels.
    pub fn flush(&mut self) {
        self.l1i.flush();
        self.l1d.flush();
        self.l2.flush();
    }

    /// Exports all three caches and the DRAM counters for `cheri-snap`.
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::HierarchyState {
        cheri_snap::HierarchyState {
            l1i: self.l1i.export_state(),
            l1d: self.l1d.export_state(),
            l2: self.l2.export_state(),
            dram_bytes: self.dram_bytes,
            dram_accesses: self.dram_accesses,
        }
    }

    /// Restores state exported by [`Hierarchy::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if any cache's geometry differs.
    pub fn import_state(
        &mut self,
        s: &cheri_snap::HierarchyState,
    ) -> Result<(), cheri_snap::SnapError> {
        self.l1i.import_state(&s.l1i)?;
        self.l1d.import_state(&s.l1d)?;
        self.l2.import_state(&s.l2)?;
        self.dram_bytes = s.dram_bytes;
        self.dram_accesses = s.dram_accesses;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_defaults_match_paper() {
        let p = HierarchyParams::default();
        assert_eq!(p.l1.size, 16 * 1024);
        assert_eq!(p.l2.size, 64 * 1024);
        assert_eq!(p.l1.line, 32);
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(CacheParams::l1());
        assert!(matches!(c.access(0x100, false), Lookup::Miss { .. }));
        assert_eq!(c.access(0x100, false), Lookup::Hit);
        assert_eq!(c.access(0x11f, false), Lookup::Hit); // same 32-byte line
        assert!(matches!(c.access(0x120, false), Lookup::Miss { .. }));
    }

    #[test]
    fn lru_within_set() {
        // 2-way tiny cache: 2 sets of 2 ways, line 32 => size 128.
        let mut c = Cache::new(CacheParams { size: 128, line: 32, ways: 2 });
        let stride = 64; // same set (2 sets * 32-byte lines)
        c.access(0, false);
        c.access(stride, false);
        c.access(0, false); // refresh line 0
        c.access(2 * stride, false); // evicts `stride`, not 0
        assert_eq!(c.access(0, false), Lookup::Hit);
        assert!(matches!(c.access(stride, false), Lookup::Miss { .. }));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = Cache::new(CacheParams { size: 64, line: 32, ways: 1 });
        c.access(0, true);
        // Same set (direct-mapped, 2 sets): stride = 64.
        match c.access(64, false) {
            Lookup::Miss { writeback } => assert!(writeback),
            Lookup::Hit => panic!("expected miss"),
        }
        assert_eq!(c.writebacks, 1);
    }

    #[test]
    fn working_set_fits_l1_no_dram_traffic_after_warmup() {
        let mut h = Hierarchy::new(HierarchyParams::default());
        // 8 KB working set < 16 KB L1.
        for _ in 0..3 {
            for addr in (0..8192u64).step_by(32) {
                h.data(addr, 8, false);
            }
        }
        let bytes_after_warm = h.dram_bytes;
        for addr in (0..8192u64).step_by(32) {
            h.data(addr, 8, false);
        }
        assert_eq!(h.dram_bytes, bytes_after_warm, "steady state should be DRAM-silent");
    }

    #[test]
    fn working_set_over_l2_streams_from_dram() {
        let mut h = Hierarchy::new(HierarchyParams::default());
        // 256 KB > 64 KB L2: every revisit misses all levels.
        for _ in 0..2 {
            for addr in (0..256 * 1024u64).step_by(32) {
                h.data(addr, 8, false);
            }
        }
        // Second pass alone is 8192 lines of 32 bytes.
        assert!(h.dram_bytes >= 2 * 8192 * 32);
    }

    #[test]
    fn latency_ordering_l1_l2_dram() {
        let mut h = Hierarchy::new(HierarchyParams::default());
        let p_dram = h.data(0x1000, 8, false);
        let p_l1 = h.data(0x1000, 8, false);
        assert_eq!(p_l1, 0);
        assert_eq!(p_dram, h.params().dram_latency);
        // Evict from L1 but not L2, then re-access: L2 latency.
        let mut h2 = Hierarchy::new(HierarchyParams::default());
        h2.data(0, 8, false);
        // Touch 16 KB + of distinct lines mapping over all L1 sets.
        for addr in (32..64 * 1024u64).step_by(32) {
            h2.data(addr, 8, false);
        }
        let p = h2.data(0, 8, false);
        assert_eq!(p, h2.params().l2_latency);
    }

    #[test]
    fn fetch_uses_icache_separately() {
        let mut h = Hierarchy::new(HierarchyParams::default());
        assert!(h.fetch(0x1000) > 0);
        assert_eq!(h.fetch(0x1000), 0);
        // A data access to the same line does not hit in L1I but does in L2.
        assert_eq!(h.data(0x1000, 4, false), h.params().l2_latency);
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut h = Hierarchy::new(HierarchyParams::default());
        let p = h.data(28, 8, false); // crosses 0..32 and 32..64
        assert_eq!(p, 2 * h.params().dram_latency);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_way_cache_rejected() {
        let _ = Cache::new(CacheParams { size: 64, line: 32, ways: 0 });
    }
}
