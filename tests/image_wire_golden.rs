//! The image wire format, pinned.
//!
//! An image is the one contract a restart under another MPI, network or
//! cluster relies on, so its bytes must not drift when the codec behind
//! them is rewritten. This pins the length and digest of three encoded
//! images built from public fields — (a) every `LoggedCall` variant, a
//! dirty summary, a pending `Iallreduce`, all four slot states, a dense
//! and a pattern region; (b) the all-empty image; (c) one 3-page dense
//! region — and of the two formats built on the codec, a second-generation
//! `DeltaStore` blob and a `CasStore` manifest, as they land in the store
//! underneath. Every image must also round-trip through `decode_shared`.
//! Only a deliberate format change may edit these constants.

use mana::core::buffer::{BufferedMsg, PairCounters};
use mana::core::image::{CheckpointImage, ImageBytes, PendingColl, PendingKind, VirtCommEntry};
use mana::core::record::LoggedCall;
use mana::core::restart::compact::derive_rebind;
use mana::core::shared::SlotState;
use mana::core::{CheckpointStore, InMemStore};
use mana::mpi::{BaseType, ReduceOp, SrcSpec, TagSpec};
use mana::sim::checksum::checksum_bytes;
use mana::sim::fs::IoShape;
use mana::sim::memory::{
    DenseSnap, Half, RegionDirty, RegionKind, RegionSnapshot, SnapshotContent,
};
use mana::store::{CasConfig, CasStore, DeltaConfig, DeltaStore};

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};
const WORLD: u64 = 0x1000_0000;

/// `(length, checksum_bytes)` of each pinned byte string. `CAS_MANIFEST`
/// is manifest version 3: one pool slot per page instead of two digests,
/// 8 bytes less for each of its 6 pages.
const IMAGE_FULL: (usize, u64) = (1521, 3324167073886408918);
const IMAGE_EMPTY: (usize, u64) = (196, 2531206783201078987);
const IMAGE_DENSE: (usize, u64) = (12538, 8781465503585727929);
const DELTA_BLOB: (usize, u64) = (9723, 5013656913002706763);
const CAS_MANIFEST: (usize, u64) = (1542, 16610463042127305690);

fn pinned(bytes: &ImageBytes) -> (usize, u64) {
    let flat = bytes.to_vec();
    (flat.len(), checksum_bytes(&flat))
}

fn region(start: u64, name: &str, len: u64, content: SnapshotContent) -> RegionSnapshot {
    let (half, kind, name) = (Half::Upper, RegionKind::Heap, name.to_string());
    RegionSnapshot {
        start,
        len,
        half,
        kind,
        name,
        content,
    }
}

fn dense(start: u64, name: &str, bytes: Vec<u8>) -> RegionSnapshot {
    let len = bytes.len() as u64;
    region(
        start,
        name,
        len,
        SnapshotContent::Dense(DenseSnap::from_vec(bytes)),
    )
}

fn pattern(start: u64, name: &str, seed: u64) -> RegionSnapshot {
    region(start, name, 1 << 20, SnapshotContent::Pattern { seed })
}

fn empty_image() -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 0,
        ckpt_id: 0,
        app_name: String::new(),
        seed: 0,
        regions: Vec::new(),
        upper_cursor: 0,
        comms: Vec::new(),
        groups: Vec::new(),
        dtypes: Vec::new(),
        log: Vec::new(),
        counters: PairCounters::default(),
        buffered: Vec::new(),
        pending: Vec::new(),
        ops_done: 0,
        allocs: Vec::new(),
        slots: Vec::new(),
        slot_seq: 0,
        slot_seq_at_step: 0,
        world_virt: 0,
        rebind: Vec::new(),
        step_created: Vec::new(),
        dirty: Vec::new(),
    }
}

/// Image (a): every field populated, every enum variant on the wire.
fn full_image() -> CheckpointImage {
    use LoggedCall::*;
    let (g, t) = (0x2000_0000, 0x3000_0000);
    let mut counters = PairCounters::default();
    counters.on_send(1);
    counters.on_send(3);
    counters.on_recv(2);
    let log = vec![
        CommDup {
            parent: WORLD,
            result: WORLD + 1,
        },
        CommSplit {
            parent: WORLD,
            color: -1,
            key: 7,
            result: WORLD + 2,
        },
        CommGroup {
            comm: WORLD,
            members: vec![0, 2, 3],
            result: g,
        },
        GroupIncl {
            group: g,
            ranks: vec![0, 1],
            result: g + 1,
        },
        GroupExcl {
            group: g,
            ranks: vec![2],
            result: g + 2,
        },
        CommCreate {
            parent: WORLD,
            group: g + 1,
            result: Some(WORLD + 3),
        },
        CommCreate {
            parent: WORLD,
            group: g + 2,
            result: None,
        },
        CartCreate {
            parent: WORLD,
            dims: vec![2, 2],
            periodic: vec![true, false],
            result: WORLD + 4,
        },
        TypeBase {
            base: BaseType::Int64,
            result: t,
        },
        TypeContiguous {
            count: 4,
            inner: t,
            result: t + 1,
        },
        TypeVector {
            count: 3,
            blocklen: 2,
            stride: 5,
            inner: t,
            result: t + 2,
        },
        TypeFree { dtype: t + 2 },
        GroupFree { group: g + 2 },
        CommFree { comm: WORLD + 1 },
    ];
    let comm = |virt, members: Vec<u32>, cart_dims: Vec<u32>, cart_periodic| VirtCommEntry {
        virt,
        members,
        cart_dims,
        cart_periodic,
    };
    let recv = |src, tag, arr_addr, offset| SlotState::RecvPosted {
        comm_virt: WORLD,
        src,
        tag,
        arr_addr,
        offset,
    };
    let iallreduce = PendingKind::Iallreduce {
        data: 2.5f64.to_le_bytes().to_vec(),
        base: BaseType::Double,
        op: ReduceOp::Max,
    };
    CheckpointImage {
        rank: 2,
        nranks: 4,
        ckpt_id: 9,
        app_name: "golden".to_string(),
        seed: 0x5eed,
        regions: vec![
            dense(0x1000, "arr", (0..200u32).map(|i| (i * 13) as u8).collect()),
            pattern(0x40_0000, "app [text]", 77),
        ],
        upper_cursor: 0x7f70_0000_0000,
        comms: vec![
            comm(WORLD, vec![0, 1, 2, 3], Vec::new(), Vec::new()),
            comm(WORLD + 2, Vec::new(), Vec::new(), Vec::new()),
            comm(WORLD + 4, vec![0, 1, 2, 3], vec![2, 2], vec![true, false]),
        ],
        groups: vec![g, g + 1],
        dtypes: vec![t, t + 1],
        log: log.clone(),
        counters,
        buffered: vec![BufferedMsg {
            comm_virt: WORLD,
            src_local: 1,
            src_global: 1,
            tag: -3,
            data: vec![1, 2, 3, 4, 5],
            modeled: 4096,
        }],
        pending: vec![
            PendingColl {
                vreq: 0x4000_0000,
                comm_virt: WORLD,
                kind: iallreduce,
            },
            PendingColl {
                vreq: 0x4000_0001,
                comm_virt: WORLD + 4,
                kind: PendingKind::Ibarrier,
            },
        ],
        ops_done: 17,
        allocs: vec![(0x1000, 200), (0x9000, 64)],
        slots: vec![
            SlotState::Empty,
            recv(SrcSpec::Any, TagSpec::Tag(4), 0x1000, 8),
            recv(SrcSpec::Rank(3), TagSpec::Any, 0x9000, 0),
            SlotState::SendIssued { vreq: None },
            SlotState::CollPending { vreq: 0x4000_0000 },
        ],
        slot_seq: 5,
        slot_seq_at_step: 2,
        world_virt: WORLD,
        rebind: derive_rebind(WORLD, &log),
        step_created: vec![WORLD + 4, t + 1],
        dirty: vec![RegionDirty {
            start: 0x1000,
            lineage: 0xABCD,
            seq: 4,
            base_seq: Some(3),
            page_count: 1,
            pages: vec![u64::MAX, 0x3f],
        }],
    }
}

#[test]
fn image_encodings_are_pinned() {
    // Image (c): one dense region of three distinct pages.
    let pages = (0..3 * 4096u32).map(|i| (i / 4096 * 31 + i % 251) as u8);
    let dense_image = CheckpointImage {
        rank: 1,
        nranks: 2,
        app_name: "dense".to_string(),
        regions: vec![dense(0x10_0000, "state", pages.collect())],
        ..empty_image()
    };
    for (name, img, want) in [
        ("full", full_image(), IMAGE_FULL),
        ("empty", empty_image(), IMAGE_EMPTY),
        ("dense", dense_image, IMAGE_DENSE),
    ] {
        let encoded = img.encode();
        assert_eq!(pinned(&encoded), want, "{name}: wire bytes moved");
        let (back, _) = CheckpointImage::decode_shared(&encoded).expect("decodes");
        assert_eq!(back, img, "{name}: round trip");
    }
}

#[test]
fn store_blobs_are_pinned() {
    let delta = DeltaStore::new(DeltaConfig::default(), InMemStore::new());
    let cas = CasStore::new(CasConfig::default(), InMemStore::new());
    let generation = |id, patched: [u8; 4], seed, extra: &[RegionSnapshot]| CheckpointImage {
        ckpt_id: id,
        regions: [
            pattern(0x40_0000, "text", 1),
            dense(
                0x1000,
                "patched",
                patched.iter().flat_map(|f| [*f; 4096]).collect(),
            ),
            pattern(0x80_0000, "reseeded", seed),
        ]
        .iter()
        .chain(extra)
        .cloned()
        .collect(),
        ..full_image()
    };
    // Against generation 1, generation 2 has one region unchanged, one
    // patched in a single page, one reseeded and one new (both replaced
    // whole): every delta kind. CAS pages its dense regions and inlines
    // the pattern ones.
    let new = dense(0x20_0000, "new", [vec![7; 4096], vec![8; 100]].concat());
    let gens = [
        generation(1, [1, 2, 3, 4], 5, &[]),
        generation(2, [1, 9, 3, 4], 6, &[new]),
    ];
    let path = |img: &CheckpointImage| format!("g/ckpt_{}/rank_2.mana", img.ckpt_id);
    for img in &gens {
        delta.put(&path(img), img.encode(), img.logical_bytes(), 2, SHAPE);
        cas.put(&path(img), img.encode(), img.logical_bytes(), 2, SHAPE);
    }
    assert!(delta.is_delta_object(&path(&gens[1])));
    let stacks: [(&str, &dyn CheckpointStore, &dyn CheckpointStore, _); 2] = [
        ("delta blob", &delta, delta.inner(), DELTA_BLOB),
        ("CAS manifest", &cas, cas.inner(), CAS_MANIFEST),
    ];
    for (name, store, inner, want) in stacks {
        let (stored, _) = inner.get(&path(&gens[1]), 2, SHAPE).expect("stored");
        assert_eq!(pinned(&stored), want, "{name}: bytes moved");
        let (back, _) = store.get(&path(&gens[1]), 2, SHAPE).expect("reads back");
        let (back, _) = CheckpointImage::decode_shared(&back).expect("decodes");
        assert_eq!(back, gens[1], "{name}: round trip");
    }
}
