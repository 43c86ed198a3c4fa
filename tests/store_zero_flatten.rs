//! The store data path copies no shared page, whatever the stack order,
//! and the checkpoint write path costs O(dirty pages).
//!
//! A snapshot's dense pages reach the store as shared `Arc` segments; a
//! layer that wants to look inside an object it was handed must find out
//! whether it is a rank image without flattening it. This drives a
//! shared-page image, 1 % and 100 % dirty, through
//! `Journaled(Compressing(Delta(InMem)))` — where the layers under the
//! journal see a framed envelope, not an image — through `Cas(InMem)`,
//! and through `InMem`, `Fs` and `Delta(InMem)`, and asserts:
//!
//! * *write side* — the process-wide flatten census did not move during
//!   the puts, and the 1 %-dirty generation copies and hashes at most 2 %
//!   and stores at most 25 % of what the 100 %-dirty one does;
//! * *read side* — every generation read back through each of the five
//!   by get → `decode_shared` → `restore_region` flattens nothing,
//!   installs every dense page as a shared handle, copies 0 bytes when
//!   the store hands back the attached image, and restores that
//!   generation's memory exactly.
//!
//! A second test reads a multi-page dense image back through `Fs` and
//! `Journaled(Fs)` and asserts that the region `restore_region` installs
//! holds the very rope the store holds, which is the one the snapshot
//! froze: a dense region crosses put, get, decode and install as one
//! shared handle, not as a copy of its page list.
//!
//! The ledger's `store_put_32m` and `store_get_32m` time the same paths;
//! this test is where their zero-copy and O(dirty) claims are asserted.
//!
//! The binary is kept to these tests: the flatten and hash censuses count
//! per OS thread and each test runs on a thread of its own, but a test
//! that ran on the same thread between two reads would move them.

use mana::core::image::CheckpointImage;
use mana::core::{CheckpointStore, FsStore, InMemStore};
use mana::sim::fs::{FsConfig, IoShape};
use mana::sim::memory::{
    AddressSpace, Backing, DenseBuf, DenseSnap, Half, HalfSnapshot, RegionKind, SnapshotContent,
    PAGE,
};
use mana::sim::scatter::{shared_flatten_bytes, shared_hashed_bytes, Segment};
use mana::store::{
    CasConfig, CasStore, CompressingStore, CompressionConfig, DeltaConfig, DeltaStore,
    JournaledStore,
};
use std::sync::Arc;

const REGIONS: u64 = 4;
const PAGES_PER_REGION: u64 = 50;
const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

fn image_around(generation: u64, snap: HalfSnapshot) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id: generation,
        app_name: "zero-flatten".into(),
        seed: 1,
        regions: snap.regions,
        upper_cursor: 0x7f00_0000_0000,
        ops_done: generation,
        dirty: snap.dirty,
        ..CheckpointImage::default()
    }
}

fn path(generation: u64) -> String {
    format!("zf/ckpt_{generation}/rank_0.mana")
}

#[test]
fn puts_flatten_no_shared_page_and_round_trip() {
    let mem = AddressSpace::new();
    mem.set_lineage(0x2e70);
    let starts: Vec<u64> = (0..REGIONS)
        .map(|i| {
            let mut buf = DenseBuf::zeroed((PAGES_PER_REGION * PAGE) as usize);
            for (k, b) in buf.as_bytes_mut().iter_mut().enumerate() {
                *b = (k as u64 * 31 + i * 7) as u8;
            }
            mem.map(
                Half::Upper,
                RegionKind::Mmap,
                &format!("state{i}"),
                PAGES_PER_REGION * PAGE,
                Backing::Dense(buf),
            )
            .expect("map a dense region")
        })
        .collect();
    let total_pages = REGIONS * PAGES_PER_REGION;

    let journaled = JournaledStore::new(CompressingStore::new(
        CompressionConfig::default(),
        DeltaStore::new(DeltaConfig::default(), InMemStore::new()),
    ));
    let in_mem = InMemStore::new();
    let fs = FsStore::with_config(FsConfig::default());
    let delta = DeltaStore::new(DeltaConfig::default(), InMemStore::new());
    let cas = CasStore::new(CasConfig::default(), InMemStore::new());
    let stacks: [(&str, &dyn CheckpointStore); 5] = [
        ("Journaled(Compressing(Delta(InMem)))", &journaled),
        ("Cas(InMem)", &cas),
        ("InMem", &in_mem),
        ("Fs", &fs),
        ("Delta(InMem)", &delta),
    ];

    // Generation 1 primes the stores; 2 is 1 % dirty, 3 is 100 % dirty.
    // Per generation: the bytes its snapshot copied, the page bytes
    // hashed from snapshot to the last put, the bytes `Delta(InMem)`
    // stored, and the live memory's checksum.
    let (mut copied, mut hashed, mut stored, mut live) = (vec![], vec![], vec![], vec![]);
    let mut generation = 0;
    for dirty_pages in [0, total_pages / 100, total_pages] {
        for page in 0..dirty_pages {
            let addr = starts[(page / PAGES_PER_REGION) as usize]
                + (page % PAGES_PER_REGION) * PAGE
                + 8 * generation;
            mem.write_bytes(addr, &(generation + 1).to_le_bytes())
                .expect("touch a mapped page");
        }
        generation += 1;
        let hashed_before = shared_hashed_bytes();
        let snap = mem.snapshot_half_tracked(Half::Upper);
        copied.push(snap.stats.bytes_copied);
        let image = Arc::new(image_around(generation, snap));
        for (name, store) in &stacks {
            let encoded = CheckpointImage::encode_shared(&image);
            assert!(encoded.scatter().shared_len() as u64 >= total_pages * PAGE);
            let before = shared_flatten_bytes();
            store.put(&path(generation), encoded, image.logical_bytes(), 0, SHAPE);
            assert_eq!(
                shared_flatten_bytes() - before,
                0,
                "{name}: put of generation {generation} flattened shared pages"
            );
        }
        hashed.push(shared_hashed_bytes() - hashed_before);
        stored.push(delta.logical_len(&path(generation)).expect("stored"));
        live.push(mem.checksum_half(Half::Upper));
        mem.clear_dirty(Half::Upper);
    }

    let (one, all) = (1, 2);
    assert!(
        copied[one] * 50 <= copied[all],
        "1 %-dirty snapshot copied {} bytes vs {} all-dirty (> 2 %)",
        copied[one],
        copied[all]
    );
    assert!(
        hashed[one] * 50 <= hashed[all],
        "1 %-dirty generation hashed {} page bytes vs {} all-dirty (> 2 %)",
        hashed[one],
        hashed[all]
    );
    assert!(
        stored[one] * 4 <= stored[all],
        "1 %-dirty delta stored {} bytes vs {} all-dirty (> 25 %)",
        stored[one],
        stored[all]
    );

    for (name, store) in &stacks {
        for generation in 1..=generation {
            let before = shared_flatten_bytes();
            let (bytes, _) = store.get(&path(generation), 0, SHAPE).expect("get");
            let (image, stats) = CheckpointImage::decode_shared(&bytes).expect("decodes");
            let restored = AddressSpace::new();
            for region in &image.regions {
                restored.restore_region(region).expect("restore");
            }
            assert_eq!(
                shared_flatten_bytes() - before,
                0,
                "{name}: restoring generation {generation} flattened shared pages"
            );
            assert_eq!(
                stats.pages_shared, total_pages,
                "{name}: generation {generation} installed {} of {total_pages} pages shared",
                stats.pages_shared
            );
            if bytes.image().is_some() {
                assert_eq!(
                    stats.bytes_copied, 0,
                    "{name}: decode of generation {generation}'s attached image copied bytes"
                );
            }
            assert_eq!(
                restored.checksum_half(Half::Upper),
                live[generation as usize - 1],
                "{name}: generation {generation} does not restore to its memory"
            );
        }
    }
}

/// The dense content of `half`'s only region: a snapshot of a region that
/// is still frozen is the rope it was installed with.
fn only_rope(mem: &AddressSpace) -> DenseSnap {
    match &mem.snapshot_half(Half::Upper)[..] {
        [region] => match &region.content {
            SnapshotContent::Dense(rope) => rope.clone(),
            SnapshotContent::Pattern { .. } => panic!("a dense region was mapped"),
        },
        regions => panic!("{} regions, one was mapped", regions.len()),
    }
}

#[test]
fn a_restored_region_installs_the_stored_rope() {
    let mem = AddressSpace::new();
    let mut buf = DenseBuf::zeroed((40 * PAGE + 100) as usize);
    for (k, b) in buf.as_bytes_mut().iter_mut().enumerate() {
        *b = (k * 13 + 5) as u8;
    }
    mem.map(
        Half::Upper,
        RegionKind::Mmap,
        "state",
        40 * PAGE + 100,
        Backing::Dense(buf),
    )
    .expect("map a dense region");
    let image = Arc::new(image_around(1, mem.snapshot_half_tracked(Half::Upper)));
    let SnapshotContent::Dense(frozen) = &image.regions[0].content else {
        panic!("a dense region was mapped");
    };

    let fs = Arc::new(FsStore::with_config(FsConfig::default()));
    let journaled_fs = Arc::new(FsStore::with_config(FsConfig::default()));
    let journaled = JournaledStore::new(journaled_fs.clone());
    let stacks: [(&str, &dyn CheckpointStore, &FsStore); 2] = [
        ("Fs", &fs, &fs),
        ("Journaled(Fs)", &journaled, &journaled_fs),
    ];
    for (name, store, bottom) in stacks {
        let encoded = CheckpointImage::encode_shared(&image);
        store.put(&path(1), encoded, image.logical_bytes(), 0, SHAPE);
        let (held, _) = bottom.get(&path(1), 0, SHAPE).expect("stored");
        let stored: Vec<&DenseSnap> = held
            .scatter()
            .raw_segments()
            .iter()
            .filter_map(|seg| match seg {
                Segment::Rope(rope) => Some(rope),
                _ => None,
            })
            .collect();
        assert_eq!(stored.len(), 1, "{name}: one rope stored");
        assert!(
            DenseSnap::ptr_eq(stored[0], frozen),
            "{name}: the store holds a copy of the snapshot's rope"
        );

        let (bytes, _) = store.get(&path(1), 0, SHAPE).expect("get");
        let (decoded, stats) = CheckpointImage::decode_shared(&bytes).expect("decodes");
        assert_eq!(stats.pages_shared, 41, "{name}: every page shared");
        let restored = AddressSpace::new();
        for region in &decoded.regions {
            restored.restore_region(region).expect("restore");
        }
        assert!(
            DenseSnap::ptr_eq(&only_rope(&restored), stored[0]),
            "{name}: the installed rope is not the stored rope"
        );
        assert_eq!(
            restored.checksum_half(Half::Upper),
            mem.checksum_half(Half::Upper),
            "{name}: the region does not restore to its memory"
        );
    }
}
