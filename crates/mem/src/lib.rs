//! # cheri-mem — tagged physical memory
//!
//! Section 4.2 of the ISCA 2014 CHERI paper: "CHERI tags physical memory,
//! not virtual memory ... This table holds one tag bit for each 256-bit
//! line in memory, or 4 MB of tag space per gigabyte of memory. A tag
//! manager below the last level cache presents a 257-bit, tagged-memory
//! interface to the CHERI cache hierarchy. ... the current tag controller
//! (which minimizes table lookups using an 8 KB tag cache) does not
//! noticeably degrade performance."
//!
//! This crate provides that stack:
//!
//! * [`PhysMem`] — flat big-endian physical DRAM.
//! * [`TagTable`] — the in-DRAM tag bitmap (1 bit / 32-byte granule).
//! * [`TagController`] — the tag manager with its configurable
//!   direct-mapped tag cache (default 8 KB) and DRAM-traffic statistics,
//!   so the tag-cache ablation benchmark can sweep the size.
//! * [`TaggedMem`] — the 257-bit-wide memory interface: ordinary data
//!   writes clear covering tags; capability stores set or clear the
//!   granule tag; capability loads return data plus tag.

pub mod ctrl;
pub mod error;
pub mod phys;
pub mod tagged;
pub mod tags;

pub use ctrl::{valid_tag_cache_bytes, TagCacheStats, TagController};
pub use error::MemError;
pub use phys::PhysMem;
pub use tagged::TaggedMem;
pub use tags::TagTable;

/// Bytes covered by one tag bit (256 bits).
pub const TAG_GRANULE: u64 = cheri_core::TAG_GRANULE;

/// Default tag-cache capacity in bytes (Section 4.2: "an 8KB tag cache").
pub const DEFAULT_TAG_CACHE_BYTES: usize = 8 * 1024;

/// Bytes of tag-table line fetched from DRAM per tag-cache miss.
/// 64 bytes of tags cover 16 KB of physical memory.
pub const TAG_LINE_BYTES: u64 = 64;
