//! The host TLB: a software cache of architectural translations.
//!
//! [`crate::Tlb`] is fully associative, so an architectural lookup scans
//! its entries. The machine puts one direct-mapped table per access kind
//! (fetch, load, store) in front of it, indexed by the low bits of the
//! virtual page number, in the style of QEMU's softmmu TLB. A slot is
//! filled only from a successful [`crate::Tlb::translate`] of the same
//! kind, so it can never answer a lookup the architectural TLB would
//! fault: a store slot is only ever filled by a store (a clean page still
//! raises `TlbModified`), and refill counts stay exact.
//!
//! A slot is two words: the virtual page's address with the epoch of the
//! fill in its offset bits, and the physical page's address with the
//! page flags in its offset bits. Bumping the epoch empties all three
//! tables in O(1); they are really cleared only when the epochs run out,
//! once every 4095 invalidations. The machine invalidates wherever the
//! architectural TLB or the translation mode changes.

use crate::tlb::{TlbFlags, PAGE_SIZE};

/// Slots per table. A power of two: the index is `page & (SLOTS - 1)`.
const SLOTS: usize = 256;

/// Epochs fit below the page offset of a slot's tag.
const EPOCHS: u64 = PAGE_SIZE;

/// The kind of access being translated; each has its own table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Access {
    Fetch = 0,
    Load = 1,
    Store = 2,
}

#[derive(Clone, Copy, Default)]
struct Slot {
    tag: u64,
    frame: u64,
}

pub(crate) struct HostTlb {
    tables: Box<[[Slot; SLOTS]; 3]>,
    /// In `1..EPOCHS`, so an empty slot (tag 0) never matches.
    epoch: u64,
}

impl HostTlb {
    pub(crate) fn new() -> HostTlb {
        HostTlb { tables: Box::new([[Slot::default(); SLOTS]; 3]), epoch: 1 }
    }

    fn slot(vaddr: u64) -> usize {
        (vaddr / PAGE_SIZE) as usize & (SLOTS - 1)
    }

    /// The cached translation of `vaddr` for `kind`, if any.
    #[inline(always)]
    pub(crate) fn get(&self, kind: Access, vaddr: u64) -> Option<(u64, TlbFlags)> {
        let slot = &self.tables[kind as usize][Self::slot(vaddr)];
        let offset = vaddr & (PAGE_SIZE - 1);
        (slot.tag == (vaddr - offset) | self.epoch)
            .then(|| ((slot.frame & !(PAGE_SIZE - 1)) | offset, TlbFlags::from_bits(slot.frame)))
    }

    /// Caches a successful architectural translation of `vaddr`.
    pub(crate) fn fill(&mut self, kind: Access, vaddr: u64, paddr: u64, flags: TlbFlags) {
        self.tables[kind as usize][Self::slot(vaddr)] = Slot {
            tag: (vaddr & !(PAGE_SIZE - 1)) | self.epoch,
            frame: (paddr & !(PAGE_SIZE - 1)) | flags.bits(),
        };
    }

    /// Empties all three tables.
    pub(crate) fn invalidate(&mut self) {
        self.epoch += 1;
        if self.epoch == EPOCHS {
            *self.tables = [[Slot::default(); SLOTS]; 3];
            self.epoch = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_until_invalidated_including_across_epoch_wrap() {
        let mut h = HostTlb::new();
        let ro = TlbFlags { dirty: false, cap_store: false, ..TlbFlags::rw() };
        h.fill(Access::Load, 0x7000, 0x3000, ro);
        assert_eq!(h.get(Access::Load, 0x7abc), Some((0x3abc, ro)));
        assert_eq!(h.get(Access::Store, 0x7abc), None);
        assert_eq!(h.get(Access::Load, 0x7000 + SLOTS as u64 * PAGE_SIZE), None);
        h.invalidate();
        assert_eq!(h.get(Access::Load, 0x7abc), None);
        // A slot filled in the last epoch must not match once the epochs
        // wrap around to the one it was filled in.
        h.fill(Access::Load, 0x7000, 0x3000, ro);
        for _ in 1..EPOCHS {
            h.invalidate();
            assert_eq!(h.get(Access::Load, 0x7abc), None);
        }
    }
}
