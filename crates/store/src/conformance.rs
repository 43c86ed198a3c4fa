//! Shared conformance suite for [`CheckpointStore`] backends.
//!
//! Every backend in this crate — and the two in `mana_core::store` — must
//! satisfy the same observable semantics: put/get round-trips preserve
//! contents, `logical_len` is consistent across the round-trip and tracks
//! overwrites, misses are typed `NotFound`s, `list` is sorted, `remove`
//! reports prior existence, `begin_epoch` never loses data, and `maintain`
//! over committed objects repairs nothing and changes nothing. Cost
//! *models* differ per backend (that is the point); the suite only pins
//! whether durations are zero or nonzero.

use mana_core::error::StoreError;
use mana_core::image::ImageBytes;
use mana_core::store::{CheckpointStore, Maintenance};
use mana_sim::checksum::checksum_bytes;
use mana_sim::fs::IoShape;
use mana_sim::page::Page;
use mana_sim::scatter::ScatterBuf;
use mana_sim::time::SimDuration;

/// What the suite should expect from the backend's cost/size model.
#[derive(Clone, Copy, Debug)]
pub struct StoreChecks {
    /// Whether puts/gets return nonzero durations.
    pub timed: bool,
    /// Whether `logical_len` reports exactly the length passed to `put`
    /// (compressing/delta backends legitimately report less).
    pub exact_len: bool,
}

impl StoreChecks {
    /// A timed backend with exact length reporting (e.g. `FsStore`).
    pub fn timed() -> StoreChecks {
        StoreChecks {
            timed: true,
            exact_len: true,
        }
    }

    /// A zero-cost backend with exact length reporting (e.g. `InMemStore`).
    pub fn untimed() -> StoreChecks {
        StoreChecks {
            timed: false,
            exact_len: true,
        }
    }

    /// Expect shrunken `logical_len` reporting (compressing backends).
    pub fn shrinking(self) -> StoreChecks {
        StoreChecks {
            exact_len: false,
            ..self
        }
    }
}

fn check_len(got: u64, want: u64, checks: StoreChecks, what: &str) {
    if checks.exact_len {
        assert_eq!(got, want, "{what}: logical_len must round-trip exactly");
    } else {
        assert!(
            got <= want,
            "{what}: shrinking store grew the object ({got} > {want})"
        );
        assert!(
            want == 0 || got > 0,
            "{what}: nonempty object shrank to nothing"
        );
    }
}

/// Drive `store` through the shared semantics checks. Panics (with
/// context) on the first violation.
pub fn exercise_store(store: &dyn CheckpointStore, checks: StoreChecks) {
    const SHAPE: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };
    // Put/get round-trip with timing model applied.
    let d = store.put("a/x", vec![1, 2, 3].into(), 1 << 20, 0, SHAPE);
    assert_eq!(d > SimDuration::ZERO, checks.timed, "put duration model");
    assert!(store.exists("a/x"), "put object must exist");
    check_len(store.logical_len("a/x").unwrap(), 1 << 20, checks, "put");
    let (data, rd) = store.get("a/x", 0, SHAPE).unwrap();
    assert_eq!(data.to_vec(), vec![1, 2, 3], "contents must round-trip");
    assert_eq!(rd > SimDuration::ZERO, checks.timed, "get duration model");
    // A get must not disturb logical_len.
    check_len(
        store.logical_len("a/x").unwrap(),
        1 << 20,
        checks,
        "after get",
    );
    // Overwrites update contents and length.
    store.put("a/x", vec![4, 5].into(), 2048, 0, SHAPE);
    check_len(store.logical_len("a/x").unwrap(), 2048, checks, "overwrite");
    let (data, _) = store.get("a/x", 0, SHAPE).unwrap();
    assert_eq!(data.to_vec(), vec![4, 5], "overwrite contents");
    // Misses are typed.
    assert!(
        matches!(
            store.get("a/missing", 0, SHAPE),
            Err(StoreError::NotFound(_))
        ),
        "missing get must be NotFound"
    );
    assert!(
        store.logical_len("a/missing").is_err(),
        "missing logical_len must error"
    );
    assert!(!store.exists("a/missing"));
    // Empty objects are storable; list is sorted.
    store.put("a/y", Vec::new().into(), 0, 0, SHAPE);
    assert_eq!(
        store.list(),
        vec!["a/x".to_string(), "a/y".to_string()],
        "list must be sorted and complete"
    );
    // Remove reports prior existence exactly once.
    assert!(store.remove("a/y"));
    assert!(!store.remove("a/y"));
    assert!(!store.exists("a/y"));
    assert_eq!(store.list(), vec!["a/x".to_string()]);
    // Epoch boundaries never lose data.
    store.begin_epoch();
    let (data, _) = store.get("a/x", 0, SHAPE).unwrap();
    assert_eq!(
        data.to_vec(),
        vec![4, 5],
        "epoch bump must not lose objects"
    );
    assert!(store.remove("a/x"));
    // Scatter round-trip: a payload carrying a shared rope page must come
    // back byte-identical, the page must still be a *shared* segment (no
    // backend may silently flatten the restart read path), and the
    // streaming scatter checksum must agree with the flat digest.
    let mut sc = ScatterBuf::new();
    sc.push_owned(vec![0xAB; 16]);
    sc.push_shared(Page::from(&[7u8; 4096][..]));
    let flat = sc.to_vec();
    store.put(
        "a/scatter",
        ImageBytes::from(sc),
        flat.len() as u64,
        0,
        SHAPE,
    );
    let (back, _) = store.get("a/scatter", 0, SHAPE).unwrap();
    assert_eq!(back.to_vec(), flat, "scatter contents must round-trip");
    assert!(
        back.scatter().shared_len() >= 4096,
        "shared rope page flattened on the read path ({} of {} bytes shared)",
        back.scatter().shared_len(),
        back.len()
    );
    assert_eq!(
        back.scatter().checksum(),
        checksum_bytes(&flat),
        "streaming scatter checksum must equal the flat digest"
    );
    // Maintenance over a settled store holding only committed objects
    // finds nothing to repair, and moves nothing.
    store.begin_epoch();
    let listed = store.list();
    let mut report = Maintenance::default();
    store.maintain(&mut report);
    assert_eq!(
        report,
        Maintenance {
            scanned: report.scanned,
            ..Maintenance::default()
        },
        "maintenance repaired a consistent store"
    );
    assert_eq!(store.list(), listed, "maintenance changed the listing");
    let (back, _) = store.get("a/scatter", 0, SHAPE).unwrap();
    assert_eq!(back.to_vec(), flat, "maintenance changed the contents");
    assert!(store.remove("a/scatter"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{CompressingStore, CompressionConfig};
    use crate::delta::{DeltaConfig, DeltaStore};
    use crate::replicated::{ReplicaConfig, ReplicatedStore};
    use crate::tiered::{TierConfig, TieredStore};
    use mana_core::store::{FsStore, InMemStore};
    use mana_sim::fs::FsConfig;

    fn lustre() -> FsStore {
        FsStore::with_config(FsConfig::default())
    }

    #[test]
    fn in_tree_backends_conform() {
        exercise_store(&InMemStore::new(), StoreChecks::untimed());
        exercise_store(&lustre(), StoreChecks::timed());
    }

    #[test]
    fn tiered_conforms_over_both_tiers() {
        exercise_store(
            &TieredStore::new(TierConfig::burst_buffer(), lustre()),
            StoreChecks::timed(),
        );
        exercise_store(
            &TieredStore::new(TierConfig::burst_buffer(), InMemStore::new()),
            StoreChecks::timed(), // the fast tier itself has latency
        );
    }

    #[test]
    fn compressing_conforms() {
        exercise_store(
            &CompressingStore::new(CompressionConfig::default(), lustre()),
            StoreChecks::timed().shrinking(),
        );
        exercise_store(
            &CompressingStore::new(CompressionConfig::default(), InMemStore::new()),
            StoreChecks::timed().shrinking(), // compression CPU is charged
        );
    }

    #[test]
    fn replicated_conforms() {
        exercise_store(
            &ReplicatedStore::with_replicas(ReplicaConfig::default(), 3, |_| InMemStore::new()),
            StoreChecks::untimed(),
        );
        exercise_store(
            &ReplicatedStore::with_replicas(ReplicaConfig::default(), 3, |_| lustre()),
            StoreChecks::timed(),
        );
    }

    #[test]
    fn delta_conforms() {
        exercise_store(
            &DeltaStore::new(DeltaConfig::default(), InMemStore::new()),
            StoreChecks::untimed(),
        );
        exercise_store(
            &DeltaStore::new(DeltaConfig::default(), lustre()),
            StoreChecks::timed(),
        );
    }

    #[test]
    fn a_full_stack_conforms() {
        // Burst buffer → compression → delta → Lustre, all composed.
        let stack = TieredStore::new(
            TierConfig::burst_buffer(),
            CompressingStore::new(
                CompressionConfig::default(),
                DeltaStore::new(DeltaConfig::default(), lustre()),
            ),
        );
        exercise_store(&stack, StoreChecks::timed().shrinking());
    }
}
