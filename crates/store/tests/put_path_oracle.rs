//! Everything the store put path shows to the outside, pinned.
//!
//! A dense address space (4 regions × 64 pages) is checkpointed as a
//! priming full image and then at 1, 10, 50 and 100 % dirty through the
//! README's stack `Journaled(Compressing(Delta(Fs)))` and through
//! `Cas(InMem)`; a sixth generation's journaled put is torn half way. For
//! every put the test pins the simulated duration each stack returns, the
//! compressed `logical_len` the object was charged, the digest of the
//! envelope bytes as they landed in the filesystem, and the CAS counters.
//! Every generation is then read back through both stacks: the simulated
//! get durations and the restored state's checksums are pinned too.
//!
//! A change to how the put path *computes* these (which bytes it hashes,
//! and how often) must reproduce them without re-blessing. Only a change
//! to the stored format or the cost model may move them, and then says so
//! by editing these constants.
//!
//! The last such change was to the stored format, and it moved stack A
//! only. Journal envelope version 3 adds a chunk table to the header and
//! records a fold over per-chunk digests instead of one digest of the
//! payload bytes, so every envelope digest moved. `CompressingStore` seeds
//! its ratio from that fold, so each generation drew a new compression
//! ratio: `compressed_len` moved, and with it the filesystem time inside
//! the journaled put and get durations. Every CAS field and every
//! restored checksum stayed as it was.

use mana_core::buffer::PairCounters;
use mana_core::error::StoreError;
use mana_core::image::CheckpointImage;
use mana_core::{CheckpointStore, FsStore, InMemStore};
use mana_sim::checksum::checksum_bytes;
use mana_sim::fs::{FsConfig, IoShape};
use mana_sim::memory::{AddressSpace, Backing, DenseBuf, Half, HalfSnapshot, RegionKind, PAGE};
use mana_sim::rng::splitmix64;
use mana_store::{
    CasConfig, CasStats, CasStore, CompressingStore, CompressionConfig, DeltaConfig, DeltaStore,
    JournaledStore,
};
use std::sync::Arc;

const REGIONS: u64 = 4;
const PAGES_PER_REGION: u64 = 64;
const TOTAL_PAGES: u64 = REGIONS * PAGES_PER_REGION;
/// Dirty percentage of generations 2..=5; generation 6 is the torn one.
const DIRTY_PCT: [u32; 5] = [1, 10, 50, 100, 10];
const TORN: u64 = 6;
const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};

/// What one generation's put showed.
#[derive(Debug, PartialEq, Eq)]
struct Put {
    /// Simulated put duration of the journaled stack, ns.
    journaled_ns: u64,
    /// Simulated put duration of the CAS stack, ns.
    cas_ns: u64,
    /// `logical_len` of the journaled object: the compressed charge.
    compressed_len: u64,
    /// Digest of the envelope bytes as stored in the filesystem.
    envelope: u64,
    /// `CasStats` after the put: pages in / new, bytes in / new, manifest
    /// bytes, pages freed, bytes reclaimed.
    cas: [u64; 7],
}

/// What reading one generation back showed.
#[derive(Debug, PartialEq, Eq)]
struct Get {
    /// Simulated get duration of the journaled stack, ns (0 when torn).
    journaled_ns: u64,
    /// Simulated get duration of the CAS stack, ns.
    cas_ns: u64,
    /// Upper-half checksum of the live space when the generation was
    /// written; both stacks must restore to it.
    checksum: u64,
}

const PUTS: [Put; 6] = [
    Put {
        journaled_ns: 9_048_484,
        cas_ns: 209_715,
        compressed_len: 362_042,
        envelope: 10204209305098032797,
        cas: [256, 256, 1_048_576, 1_048_576, 4811, 0, 0],
    },
    Put {
        journaled_ns: 8_377_105,
        cas_ns: 1_638,
        compressed_len: 385_235,
        envelope: 4444735540686156046,
        cas: [512, 258, 2_097_152, 1_056_768, 9654, 0, 0],
    },
    Put {
        journaled_ns: 8_431_315,
        cas_ns: 20_480,
        compressed_len: 376_260,
        envelope: 6177562121478411968,
        cas: [768, 283, 3_145_728, 1_159_168, 14497, 0, 0],
    },
    Put {
        journaled_ns: 8_724_925,
        cas_ns: 104_858,
        compressed_len: 389_157,
        envelope: 1142667483246138097,
        cas: [1024, 411, 4_194_304, 1_683_456, 19340, 0, 0],
    },
    Put {
        journaled_ns: 9_075_842,
        cas_ns: 209_715,
        compressed_len: 390_611,
        envelope: 6630814315280475054,
        cas: [1280, 667, 5_242_880, 2_732_032, 24183, 0, 0],
    },
    Put {
        journaled_ns: 9_056_070,
        cas_ns: 20_480,
        compressed_len: 369_964,
        envelope: 3094933173391560380,
        cas: [1536, 692, 6_291_456, 2_834_432, 29026, 0, 0],
    },
];

const GETS: [Get; 6] = [
    Get {
        journaled_ns: 8_670_284,
        cas_ns: 419_430,
        checksum: 13666146777840797276,
    },
    Get {
        journaled_ns: 8_690_745,
        cas_ns: 419_430,
        checksum: 12358886944523462477,
    },
    Get {
        journaled_ns: 8_682_827,
        cas_ns: 419_430,
        checksum: 2288525709933472732,
    },
    Get {
        journaled_ns: 8_694_205,
        cas_ns: 419_430,
        checksum: 3916572447550222250,
    },
    Get {
        journaled_ns: 8_695_487,
        cas_ns: 419_430,
        checksum: 7455600644596754440,
    },
    Get {
        journaled_ns: 0,
        cas_ns: 419_430,
        checksum: 12747001954072371536,
    },
];

fn path(generation: u64) -> String {
    format!("oracle/ckpt_{generation}/rank_0.mana")
}

fn image_around(generation: u64, snap: HalfSnapshot) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id: generation,
        app_name: "put-path-oracle".into(),
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

/// A dense space filled with seeded words; returns it with its region
/// start addresses.
fn space() -> (AddressSpace, Vec<u64>) {
    let mem = AddressSpace::new();
    mem.set_lineage(0x0ac1e);
    let starts = (0..REGIONS)
        .map(|i| {
            let mut buf = DenseBuf::zeroed((PAGES_PER_REGION * PAGE) as usize);
            for (k, word) in buf.as_bytes_mut().chunks_exact_mut(8).enumerate() {
                word.copy_from_slice(&splitmix64((i << 40) ^ k as u64).to_le_bytes());
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
    (mem, starts)
}

/// Write one word into `pct` % of the pages, at a fixed stride from a
/// generation-dependent first page.
fn touch(mem: &AddressSpace, starts: &[u64], generation: u64, pct: u32) {
    let target = (TOTAL_PAGES * u64::from(pct) / 100).max(1);
    let stride = TOTAL_PAGES / target;
    for k in 0..target {
        let page = (generation + k * stride) % TOTAL_PAGES;
        let addr = starts[(page / PAGES_PER_REGION) as usize]
            + (page % PAGES_PER_REGION) * PAGE
            + (splitmix64(generation ^ k) % (PAGE / 8)) * 8;
        mem.write_bytes(addr, &splitmix64(generation << 20 ^ k).to_le_bytes())
            .expect("touch a mapped page");
    }
}

fn cas_counters(s: CasStats) -> [u64; 7] {
    [
        s.pages_in,
        s.pages_new,
        s.bytes_in,
        s.bytes_new,
        s.manifest_bytes,
        s.pages_freed,
        s.bytes_reclaimed,
    ]
}

/// Read `generation` back through `store` and restore it into a fresh
/// space: the simulated get time and the restored checksum.
fn restore(store: &dyn CheckpointStore, generation: u64) -> Result<(u64, u64), StoreError> {
    let (bytes, dur) = store.get(&path(generation), 0, SHAPE)?;
    let (image, _) = CheckpointImage::decode_shared(&bytes).expect("a stored image decodes");
    let mem = AddressSpace::new();
    for region in &image.regions {
        mem.restore_region(region).expect("restore a region");
    }
    Ok((dur.as_nanos(), mem.checksum_half(Half::Upper)))
}

#[test]
fn put_path_results_are_pinned() {
    let (mem, starts) = space();
    let fs = Arc::new(FsStore::with_config(FsConfig::default()));
    let journaled = JournaledStore::new(CompressingStore::new(
        CompressionConfig::default(),
        DeltaStore::new(DeltaConfig::default(), fs.clone()),
    ));
    let cas = CasStore::new(CasConfig::default(), InMemStore::new());

    let mut puts = Vec::new();
    let mut sums = Vec::new();
    for generation in 1..=TORN {
        if generation > 1 {
            touch(
                &mem,
                &starts,
                generation,
                DIRTY_PCT[generation as usize - 2],
            );
        }
        if generation == TORN {
            journaled.arm_torn_put(&path(generation), 0.5);
        }
        let image = Arc::new(image_around(
            generation,
            mem.snapshot_half_tracked(Half::Upper),
        ));
        let put = |store: &dyn CheckpointStore| {
            let encoded = CheckpointImage::encode_shared(&image);
            let dur = store.put(&path(generation), encoded, image.logical_bytes(), 0, SHAPE);
            dur.as_nanos()
        };
        let journaled_ns = put(&journaled);
        let cas_ns = put(&cas);
        let (stored, _) = fs
            .get(&path(generation), 0, SHAPE)
            .expect("envelope landed");
        puts.push(Put {
            journaled_ns,
            cas_ns,
            compressed_len: journaled.logical_len(&path(generation)).expect("object"),
            envelope: checksum_bytes(&stored.to_vec()),
            cas: cas_counters(cas.stats()),
        });
        sums.push(mem.checksum_half(Half::Upper));
        mem.clear_dirty(Half::Upper);
    }
    assert_eq!(journaled.torn_writes(), vec![path(TORN)]);

    let mut gets = Vec::new();
    for (generation, checksum) in (1..=TORN).zip(sums) {
        let journaled_ns = match restore(&journaled, generation) {
            Ok((ns, restored)) => {
                assert_eq!(restored, checksum, "journaled generation {generation}");
                ns
            }
            Err(StoreError::Torn { .. }) if generation == TORN => 0,
            Err(e) => panic!("journaled generation {generation}: {e}"),
        };
        let (cas_ns, restored) = restore(&cas, generation).expect("CAS generation reads back");
        assert_eq!(restored, checksum, "CAS generation {generation}");
        gets.push(Get {
            journaled_ns,
            cas_ns,
            checksum,
        });
    }

    assert_eq!(puts, PUTS);
    assert_eq!(gets, GETS);
}
