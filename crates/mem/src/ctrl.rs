//! The tag manager / controller (Section 4.2).
//!
//! "A tag manager below the last level cache presents a 257-bit,
//! tagged-memory interface to the CHERI cache hierarchy. The manager
//! associates each memory transaction with a tag from the table and
//! ensures consistency between memory and tags. ... the current tag
//! controller (which minimizes table lookups using an 8 KB tag cache) does
//! not noticeably degrade performance."
//!
//! The controller here models that design: tag reads/writes go through a
//! direct-mapped write-back cache of tag-table lines, and the controller
//! counts the DRAM traffic the table generates — the quantity the paper's
//! claim (and our tag-cache ablation bench) is about.

use std::cell::Cell;
use std::rc::Rc;

use crate::tags::TagTable;
use crate::{DEFAULT_TAG_CACHE_BYTES, TAG_GRANULE, TAG_LINE_BYTES};
use cheri_trace::{emit, SharedSink, TraceEvent};

/// Statistics maintained by the tag controller.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagCacheStats {
    /// Tag lookups (one per memory transaction through the controller).
    pub lookups: u64,
    /// Tag writes (capability stores and tag-clearing data stores).
    pub updates: u64,
    /// Tag-cache hits.
    pub hits: u64,
    /// Tag-cache misses (each costs a DRAM tag-line read).
    pub misses: u64,
    /// Dirty lines written back to the DRAM tag table.
    pub writebacks: u64,
}

impl TagCacheStats {
    /// Hit rate over all lookups+updates, in [0, 1]; 1.0 for an idle
    /// controller.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Extra DRAM bytes moved on behalf of the tag table.
    #[must_use]
    pub fn dram_tag_bytes(&self) -> u64 {
        (self.misses + self.writebacks) * TAG_LINE_BYTES
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct TagCacheLine {
    valid: bool,
    dirty: bool,
    line_index: u64,
}

/// Whether `cache_bytes` is a tag-cache capacity the controller can
/// model: zero (no cache) or a power-of-two number of [`TAG_LINE_BYTES`]
/// lines, so that a line's slot is a mask of its index.
#[must_use]
pub fn valid_tag_cache_bytes(cache_bytes: usize) -> bool {
    let lines = cache_bytes / TAG_LINE_BYTES as usize;
    lines == 0 || lines.is_power_of_two()
}

/// The tag manager: tag table + direct-mapped write-back tag cache.
///
/// # Example
///
/// ```
/// use cheri_mem::TagController;
///
/// let mut ctl = TagController::new(1 << 20); // 1 MB physical memory
/// ctl.write_tag(0x100, true);
/// assert!(ctl.read_tag(0x100));
/// // The second access to the same granule's line hits the tag cache:
/// assert!(ctl.stats().hits >= 1);
/// ```
#[derive(Clone, Debug)]
pub struct TagController {
    table: TagTable,
    lines: Vec<TagCacheLine>,
    /// `log2(bytes_per_line())` — the line math runs on every data
    /// store, so it shifts instead of dividing.
    line_shift: u32,
    /// `lines.len() - 1` (0 for no lines): the line count is a power of
    /// two, so the slot index is a mask, not a division.
    slot_mask: u64,
    stats: TagCacheStats,
    // Trace sink shared with the rest of the machine (cloning the
    // controller shares the sink handle, which is what snapshot-style
    // clones want).
    sink: Option<SharedSink>,
    // Host-side miss tick shared with a profiler: bumped once per
    // tag-cache miss, never serialized, never guest-visible.
    miss_probe: Option<Rc<Cell<u64>>>,
}

impl TagController {
    /// A controller for `mem_size` bytes of physical memory with the
    /// paper's default 8 KB tag cache.
    #[must_use]
    pub fn new(mem_size: u64) -> TagController {
        TagController::with_cache_bytes(mem_size, DEFAULT_TAG_CACHE_BYTES)
    }

    /// A controller with a custom tag-cache capacity (for the ablation
    /// bench). A capacity of 0 disables caching: every access is a miss.
    ///
    /// # Panics
    ///
    /// As [`TagController::with_config`].
    #[must_use]
    pub fn with_cache_bytes(mem_size: u64, cache_bytes: usize) -> TagController {
        TagController::with_config(mem_size, cache_bytes, TAG_GRANULE)
    }

    /// Full configuration: cache capacity plus tag granule (16 bytes for
    /// the 128-bit capability format).
    ///
    /// # Panics
    ///
    /// Panics unless the capacity holds zero or a power-of-two number of
    /// [`TAG_LINE_BYTES`] lines (see [`valid_tag_cache_bytes`]).
    #[must_use]
    pub fn with_config(mem_size: u64, cache_bytes: usize, granule: u64) -> TagController {
        assert!(valid_tag_cache_bytes(cache_bytes), "tag cache of {cache_bytes} bytes");
        let nlines = cache_bytes / TAG_LINE_BYTES as usize;
        let bytes_per_line = TAG_LINE_BYTES * 8 * granule;
        debug_assert!(bytes_per_line.is_power_of_two());
        TagController {
            table: TagTable::with_granule(mem_size, granule),
            lines: vec![TagCacheLine::default(); nlines],
            line_shift: bytes_per_line.trailing_zeros(),
            slot_mask: (nlines as u64).saturating_sub(1),
            stats: TagCacheStats::default(),
            sink: None,
            miss_probe: None,
        }
    }

    /// Attaches (or with `None`, detaches) a trace sink. One event is
    /// emitted per tag-cache probe and per tag-table read/write, next to
    /// the corresponding [`TagCacheStats`] increment, so the stream is
    /// complete with respect to those statistics.
    pub fn set_trace_sink(&mut self, sink: Option<SharedSink>) {
        self.sink = sink;
    }

    /// Attaches (or with `None`, detaches) a host-side miss probe: a
    /// shared counter bumped once per tag-cache miss. Profilers read it
    /// to attribute tag misses to guest PCs by delta sampling. The
    /// probe is pure observation — it never affects statistics, guest
    /// state, or snapshots.
    pub fn set_miss_probe(&mut self, probe: Option<Rc<Cell<u64>>>) {
        self.miss_probe = probe;
    }

    /// Physical bytes of memory covered by one tag-cache line.
    #[must_use]
    pub fn bytes_per_line(&self) -> u64 {
        TAG_LINE_BYTES * 8 * self.table.granule_size()
    }

    /// The accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> TagCacheStats {
        self.stats
    }

    /// Tag-cache misses so far ([`TagCacheStats::misses`]).
    #[inline]
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.stats.misses
    }

    /// Resets the statistics (not the cache contents).
    pub fn reset_stats(&mut self) {
        self.stats = TagCacheStats::default();
    }

    /// Direct access to the underlying table (no cache modelling) —
    /// used by debugger-style inspection and tests.
    #[must_use]
    pub fn table(&self) -> &TagTable {
        &self.table
    }

    /// Mutable table access for snapshot import (no cache modelling,
    /// no statistics).
    pub(crate) fn table_mut(&mut self) -> &mut TagTable {
        &mut self.table
    }

    /// Tag-cache lines as `(valid, dirty, line_index)`, for snapshot
    /// export.
    pub(crate) fn export_lines(&self) -> Vec<(bool, bool, u64)> {
        self.lines.iter().map(|l| (l.valid, l.dirty, l.line_index)).collect()
    }

    /// Restores tag-cache lines and statistics from a snapshot. The
    /// line count must match this controller's geometry (checked by the
    /// caller, which owns the error path).
    pub(crate) fn import_lines(&mut self, lines: &[(bool, bool, u64)], stats: TagCacheStats) {
        debug_assert_eq!(lines.len(), self.lines.len());
        for (slot, &(valid, dirty, line_index)) in self.lines.iter_mut().zip(lines) {
            *slot = TagCacheLine { valid, dirty, line_index };
        }
        self.stats = stats;
    }

    #[inline]
    fn touch_line(&mut self, paddr: u64, make_dirty: bool) {
        let line_index = paddr >> self.line_shift;
        let slot = (line_index & self.slot_mask) as usize;
        match self.lines.get_mut(slot) {
            Some(line) if line.valid && line.line_index == line_index => {
                self.stats.hits += 1;
                line.dirty |= make_dirty;
                emit(&self.sink, || TraceEvent::TagCache { hit: true, writeback: false });
            }
            _ => self.line_miss(slot, line_index, make_dirty),
        }
    }

    /// The miss half of [`TagController::touch_line`]: fills `slot`
    /// (writing back a dirty victim), or with no cache at all counts a
    /// miss and, for a write, a write-through.
    #[cold]
    fn line_miss(&mut self, slot: usize, line_index: u64, make_dirty: bool) {
        self.stats.misses += 1;
        if let Some(p) = &self.miss_probe {
            p.set(p.get() + 1);
        }
        let Some(line) = self.lines.get_mut(slot) else {
            if make_dirty {
                self.stats.writebacks += 1; // write-through when uncached
            }
            emit(&self.sink, || TraceEvent::TagCache { hit: false, writeback: make_dirty });
            return;
        };
        let writeback = line.valid && line.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *line = TagCacheLine { valid: true, dirty: make_dirty, line_index };
        emit(&self.sink, || TraceEvent::TagCache { hit: false, writeback });
    }

    /// Reads the tag for the granule covering `paddr`, through the cache.
    #[inline]
    #[must_use]
    pub fn read_tag(&mut self, paddr: u64) -> bool {
        self.stats.lookups += 1;
        self.touch_line(paddr, false);
        let tag = self.table.get(paddr);
        emit(&self.sink, || TraceEvent::TagTableRead { addr: paddr, tag });
        tag
    }

    /// Writes the tag for the granule covering `paddr`, through the cache.
    #[inline]
    pub fn write_tag(&mut self, paddr: u64, tag: bool) {
        self.stats.updates += 1;
        self.touch_line(paddr, true);
        self.table.set(paddr, tag);
        emit(&self.sink, || TraceEvent::TagTableWrite { addr: paddr, tag });
    }

    /// Clears all tags overlapped by a data store of `len` bytes at
    /// `paddr` (the "non-capability store clears the bit" rule).
    ///
    /// As an optimisation mirroring the hardware, the controller only
    /// performs a table update when a granule might be tagged; but every
    /// store still consults the covering line once.
    #[inline]
    pub fn clear_tags_for_store(&mut self, paddr: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.stats.updates += 1;
        self.touch_line(paddr, true);
        self.table.clear_range(paddr, len);
        emit(&self.sink, || TraceEvent::TagTableWrite { addr: paddr, tag: false });
        // A store crossing a line boundary touches the second line too.
        let last = paddr + len - 1;
        if last >> self.line_shift != paddr >> self.line_shift {
            self.touch_line(last, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cache_is_8kb() {
        let ctl = TagController::new(1 << 20);
        assert_eq!(ctl.lines.len() * TAG_LINE_BYTES as usize, 8 * 1024);
    }

    #[test]
    fn one_line_covers_16kb() {
        assert_eq!(TagController::new(1 << 20).bytes_per_line(), 16 * 1024);
        // 128-bit configuration: half the coverage per line.
        assert_eq!(TagController::with_config(1 << 20, 8192, 16).bytes_per_line(), 8 * 1024);
    }

    #[test]
    fn repeated_access_hits() {
        let mut ctl = TagController::new(1 << 20);
        ctl.write_tag(0, true);
        for _ in 0..100 {
            assert!(ctl.read_tag(0));
        }
        let s = ctl.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 100);
        assert!(s.hit_rate() > 0.99);
    }

    #[test]
    fn distinct_lines_conflict_in_direct_mapped_cache() {
        // 8 KB cache = 128 lines; two addresses 128 lines apart alias.
        let stride = 16 * 1024 * 128u64;
        let mut ctl = TagController::new(2 * stride + 1024);
        let _ = ctl.read_tag(0);
        let _ = ctl.read_tag(stride);
        let _ = ctl.read_tag(0);
        assert_eq!(ctl.stats().misses, 3);
    }

    #[test]
    fn writeback_counted_on_dirty_eviction() {
        let stride = 16 * 1024 * 128u64;
        let mut ctl = TagController::new(2 * stride + 1024);
        ctl.write_tag(0, true);
        let _ = ctl.read_tag(stride); // evicts dirty line 0
        assert_eq!(ctl.stats().writebacks, 1);
        assert!(ctl.stats().dram_tag_bytes() >= 2 * TAG_LINE_BYTES);
    }

    #[test]
    fn zero_byte_cache_misses_always() {
        let mut ctl = TagController::with_cache_bytes(1 << 20, 0);
        let _ = ctl.read_tag(0);
        let _ = ctl.read_tag(0);
        assert_eq!(ctl.stats().hits, 0);
        assert_eq!(ctl.stats().misses, 2);
    }

    #[test]
    fn store_clears_tags_through_controller() {
        let mut ctl = TagController::new(1 << 20);
        ctl.write_tag(64, true);
        assert!(ctl.read_tag(64));
        ctl.clear_tags_for_store(70, 4);
        assert!(!ctl.read_tag(64));
    }

    #[test]
    fn idle_hit_rate_is_one() {
        let ctl = TagController::new(1024);
        assert_eq!(ctl.stats().hit_rate(), 1.0);
    }
}
