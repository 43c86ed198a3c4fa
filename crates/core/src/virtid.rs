//! Virtualization of MPI opaque handles (paper §2.2).
//!
//! The application must keep using the same handle values across
//! checkpoint/restart even though the underlying MPI library — and hence
//! every real handle value — is replaced. MANA therefore interposes on all
//! calls that accept or return opaque handles and translates between
//! stable *virtual* ids (what the application sees) and the current lower
//! half's *real* ids.
//!
//! Each handle class has one [`HandleTable`]: virtual id → the one entry
//! that holds the real handle and whatever else the wrapper keeps for it
//! (see [`crate::shared::RankState`]), plus the class's id allocator.
//! Each translation is a map lookup under the rank-state lock; the paper
//! calls this out as the second (smaller) source of runtime overhead, and
//! the wrapper charges [`crate::config::ManaConfig::virt_cost`] per
//! translation accordingly. The `micro` bench's `virtid_*` cases time
//! this structure under a lock.
//!
//! A virtual id is never issued twice. Fresh ids count up from the class
//! base, and an id restored from an image or re-created by restart replay
//! moves the allocator past it, even one the log frees later.

use std::collections::BTreeMap;

/// Handle classes with independent virtual id spaces.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HandleClass {
    /// Communicators.
    Comm,
    /// Groups.
    Group,
    /// Datatypes.
    Dtype,
    /// Requests.
    Req,
}

/// Sentinel "real" id a restored virtual handle carries until restart
/// replay rebinds it to a real handle from the fresh lower half.
pub const UNBOUND_REAL: u64 = u64::MAX;

/// First virtual id issued per class (disjoint, recognizable spaces).
fn base_of(class: HandleClass) -> u64 {
    match class {
        HandleClass::Comm => 0x1000_0000,
        HandleClass::Group => 0x2000_0000,
        HandleClass::Dtype => 0x3000_0000,
        HandleClass::Req => 0x4000_0000,
    }
}

fn unknown(class: HandleClass, virt: u64) -> ! {
    panic!("unknown virtual {class:?} handle {virt:#x}")
}

/// One handle class's live virtual ids, each with its entry, in id order
/// (deterministic iteration; image serialization).
pub struct HandleTable<E> {
    class: HandleClass,
    entries: BTreeMap<u64, E>,
    next: u64,
}

impl<E> HandleTable<E> {
    /// Empty table for `class`.
    pub fn new(class: HandleClass) -> HandleTable<E> {
        HandleTable {
            class,
            entries: BTreeMap::new(),
            next: base_of(class),
        }
    }

    /// Allocate a fresh virtual id for `entry`.
    pub fn intern(&mut self, entry: E) -> u64 {
        let v = self.next;
        self.next += 1;
        self.entries.insert(v, entry);
        v
    }

    /// Entry behind `virt`. Panics on unknown handles — an application
    /// using a stale handle is a bug in any MPI program.
    pub fn get(&self, virt: u64) -> &E {
        self.entries
            .get(&virt)
            .unwrap_or_else(|| unknown(self.class, virt))
    }

    /// Mutable entry behind `virt`; panics like [`HandleTable::get`].
    pub fn get_mut(&mut self, virt: u64) -> &mut E {
        let class = self.class;
        self.entries
            .get_mut(&virt)
            .unwrap_or_else(|| unknown(class, virt))
    }

    /// Drop `virt` (object freed), returning its entry; panics like
    /// [`HandleTable::get`]. The id is not reissued.
    pub fn remove(&mut self, virt: u64) -> E {
        self.entries
            .remove(&virt)
            .unwrap_or_else(|| unknown(self.class, virt))
    }

    /// Install an entry restored from a checkpoint image under its
    /// original id (restart replay binds its real handle later).
    pub fn restore(&mut self, virt: u64, entry: E) {
        self.reserve(virt);
        self.entries.insert(virt, entry);
    }

    /// Never issue `virt` again: restart replay re-created it.
    pub fn reserve(&mut self, virt: u64) {
        self.next = self.next.max(virt + 1);
    }

    /// Live ids and their entries, in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &E)> {
        self.entries.iter().map(|(v, e)| (*v, e))
    }

    /// Live ids and their mutable entries, in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut E)> {
        self.entries.iter_mut().map(|(v, e)| (*v, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_translate_roundtrip() {
        let mut t = HandleTable::new(HandleClass::Comm);
        let v1 = t.intern(0x4400_0000);
        let v2 = t.intern(0x4400_0001);
        assert_ne!(v1, v2);
        assert_eq!(*t.get(v1), 0x4400_0000);
        assert_eq!(*t.get(v2), 0x4400_0001);
        assert!(t.iter().map(|(v, _)| v).eq([v1, v2]));
    }

    #[test]
    fn remove_frees() {
        let mut t = HandleTable::new(HandleClass::Group);
        let v = t.intern(5);
        assert_eq!(t.remove(v), 5);
        assert_eq!(t.iter().count(), 0);
        // A freed id is never reissued.
        assert!(t.intern(6) > v);
    }

    #[test]
    fn restore_then_rebind() {
        let mut t = HandleTable::new(HandleClass::Dtype);
        t.restore(0x3000_0005, UNBOUND_REAL);
        *t.get_mut(0x3000_0005) = 77;
        assert_eq!(*t.get(0x3000_0005), 77);
        // Fresh interns never collide with restored ids.
        assert_eq!(t.intern(88), 0x3000_0006);
    }

    #[test]
    fn rebind_after_restart() {
        // Replay re-created 0x1000_0007 and the log freed it: it is not
        // live, but the allocator must still move past it.
        let mut t = HandleTable::new(HandleClass::Comm);
        t.restore(0x1000_0002, UNBOUND_REAL);
        t.reserve(0x1000_0007);
        *t.get_mut(0x1000_0002) = 0x7f00_0000_0040;
        assert_eq!(*t.get(0x1000_0002), 0x7f00_0000_0040);
        assert_eq!(t.intern(2), 0x1000_0008);
    }

    #[test]
    #[should_panic(expected = "unknown virtual Comm handle 0x10000099")]
    fn stale_handle_panics() {
        let t: HandleTable<u64> = HandleTable::new(HandleClass::Comm);
        t.get(0x1000_0099);
    }

    #[test]
    fn classes_have_disjoint_spaces() {
        let all = [
            HandleClass::Comm,
            HandleClass::Group,
            HandleClass::Dtype,
            HandleClass::Req,
        ]
        .map(|class| HandleTable::new(class).intern(1));
        for i in 0..4 {
            for j in i + 1..4 {
                assert_ne!(all[i], all[j]);
            }
        }
    }
}
