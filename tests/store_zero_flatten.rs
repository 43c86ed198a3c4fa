//! The store write path copies no shared page, whatever the stack order.
//!
//! A snapshot's dense pages reach the store as shared `Arc` segments; a
//! layer that wants to look inside an object it was handed must find out
//! whether it is a rank image without flattening it. This drives a
//! shared-page image, 1 % and 100 % dirty, through
//! `Journaled(Compressing(Delta(InMem)))` — where the layers under the
//! journal see a framed envelope, not an image — and through `Cas(InMem)`,
//! and asserts the process-wide flatten census did not move during the
//! puts.
//!
//! One `#[test]` in a binary of its own: the census is a process-global
//! counter, so a neighbouring test flattening anything would race it.

use mana::core::buffer::PairCounters;
use mana::core::image::CheckpointImage;
use mana::core::{CheckpointStore, InMemStore};
use mana::sim::fs::IoShape;
use mana::sim::memory::{AddressSpace, Backing, DenseBuf, Half, HalfSnapshot, RegionKind, PAGE};
use mana::sim::scatter::shared_flatten_bytes;
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
        comms: Vec::new(),
        groups: Vec::new(),
        dtypes: Vec::new(),
        log: Vec::new(),
        counters: PairCounters::default(),
        buffered: Vec::new(),
        pending: Vec::new(),
        ops_done: generation,
        allocs: Vec::new(),
        slots: Vec::new(),
        slot_seq: 0,
        slot_seq_at_step: 0,
        world_virt: 0,
        rebind: Vec::new(),
        step_created: Vec::new(),
        dirty: snap.dirty,
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

    let stacks: [(&str, Box<dyn CheckpointStore>); 2] = [
        (
            "Journaled(Compressing(Delta(InMem)))",
            Box::new(JournaledStore::new(CompressingStore::new(
                CompressionConfig::default(),
                DeltaStore::new(DeltaConfig::default(), InMemStore::new()),
            ))),
        ),
        (
            "Cas(InMem)",
            Box::new(CasStore::new(CasConfig::default(), InMemStore::new())),
        ),
    ];

    // Generation 1 primes both stacks; 2 is 1 % dirty, 3 is 100 % dirty.
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
        let snap = mem.snapshot_half_tracked(Half::Upper);
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
        mem.clear_dirty(Half::Upper);
    }

    let live = mem.checksum_half(Half::Upper);
    for (name, store) in &stacks {
        let (bytes, _) = store.get(&path(generation), 0, SHAPE).expect("newest");
        let (image, _) = CheckpointImage::decode_shared(&bytes).expect("decodes");
        let restored = AddressSpace::new();
        for region in &image.regions {
            restored.restore_region(region).expect("restore");
        }
        assert_eq!(
            restored.checksum_half(Half::Upper),
            live,
            "{name}: newest generation does not restore to the live state"
        );
    }
}
