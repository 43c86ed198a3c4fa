//! The image wire format, pinned.
//!
//! An image is the one contract a restart under another MPI, network or
//! cluster relies on, so its bytes must not drift when the codec behind
//! them is rewritten. This pins the length and digest of three encoded
//! images built from public fields — (a) every `LoggedCall` variant, a
//! dirty summary, two pending `Ibarrier`s, all four slot states, a dense
//! and a pattern region; (b) the all-empty image; (c) one 3-page dense
//! region — and of the two formats built on the codec, a second-generation
//! `DeltaStore` blob and a `CasStore` manifest, as they land in the store
//! underneath. Every image must also round-trip through `decode_shared`.
//! Only a deliberate format change may edit these constants.
//!
//! The images real workloads write are pinned too: rank 0's stored image
//! from a mid-run checkpoint-and-kill of each application and of
//! `CommChurn`, at a fixed seed. LULESH's log carries `CartCreate`, and
//! `CommChurn`'s uncompacted log every other call a product app records.
//! A change to how the wrapper records, or how the image encodes what it
//! recorded, must pass these unmodified.
//!
//! So is every rank's image from the checkpoint a *restarted* incarnation
//! writes. Those bytes also carry what restore and replay left in the
//! virtual-handle tables: the ids restored from the first image, the ids
//! replay re-created, and the ids later creations were issued. A change to
//! the tables or to the restart stages must pass them unmodified.
//!
//! `IMAGE_FULL`, `DELTA_BLOB` and `CAS_MANIFEST` (both built from image
//! (a)) were re-pinned when `MPI_Comm_create`, `MPI_Group_excl`,
//! `MPI_Type_vector` and `MPI_Iallreduce` left the `Mpi` seam: image (a)
//! can no longer carry their log entries or pending kind. The wire format
//! did not change — `VERSION` stays 3, every surviving tag keeps its
//! number, and the product images above did not move.
//!
//! `PRODUCT_IMAGES` and `RESTARTED_IMAGES` were re-pinned when the
//! progress cursor began counting from the start of the workload's `run`:
//! every image's `ops_done` now includes the prologue's operations, and
//! its handle ledger (`step_created`) the prologue's creations — LULESH's
//! Cartesian communicator, 8 bytes longer. The wire layout did not change
//! and `VERSION` stays 3.

use mana::apps::{make_app_small, AppKind, CommChurn};
use mana::core::buffer::{BufferedMsg, PairCounters};
use mana::core::image::{CheckpointImage, ImageBytes, PendingColl, VirtCommEntry};
use mana::core::record::LoggedCall;
use mana::core::restart::compact::derive_rebind;
use mana::core::shared::SlotState;
use mana::core::{CheckpointStore, InMemStore, JobBuilder, ManaSession, Workload};
use mana::mpi::{BaseType, SrcSpec, TagSpec};
use mana::sim::checksum::checksum_bytes;
use mana::sim::cluster::ClusterSpec;
use mana::sim::fs::IoShape;
use mana::sim::memory::{
    DenseSnap, Half, RegionDirty, RegionKind, RegionSnapshot, SnapshotContent,
};
use mana::sim::time::SimTime;
use mana::store::{CasConfig, CasStore, DeltaConfig, DeltaStore};
use std::sync::Arc;

const SHAPE: IoShape = IoShape {
    writers_on_node: 1,
    total_writers: 1,
};
const WORLD: u64 = 0x1000_0000;

/// `(length, checksum_bytes)` of each pinned byte string. `CAS_MANIFEST`
/// is manifest version 3: one pool slot per page instead of two digests,
/// 8 bytes less for each of its 6 pages. Image (a) lost 98 bytes with the
/// retired calls, and the two store blobs embedding it lost the same.
const IMAGE_FULL: (usize, u64) = (1423, 16974055291602990880);
const IMAGE_EMPTY: (usize, u64) = (196, 2531206783201078987);
const IMAGE_DENSE: (usize, u64) = (12538, 8781465503585727929);
const DELTA_BLOB: (usize, u64) = (9625, 15384672463855941954);
const CAS_MANIFEST: (usize, u64) = (1444, 8661028317698414280);

/// `(length, checksum_bytes)` of rank 0's stored image from a mid-run
/// checkpoint-and-kill of each workload: 8 ranks on two nodes, seed 3.
/// `CommChurn` is pinned twice: compacted, and with the compactor off so
/// the image carries its whole recorded log.
const PRODUCT_IMAGES: [(&str, (usize, u64)); 7] = [
    ("GROMACS", (17294, 9401677820521793050)),
    ("miniFE", (66419, 12370447162698825330)),
    ("HPCG", (83021, 12825188003372114723)),
    ("CLAMR", (53609, 10184687027780947406)),
    ("LULESH", (6514, 4146186506198229)),
    ("comm-churn", (1461, 4176045048592445656)),
    ("comm-churn, full log", (4365, 9505833051909416699)),
];

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
        GroupIncl {
            group: g,
            ranks: vec![2],
            result: g + 2,
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
        TypeContiguous {
            count: 3,
            inner: t + 1,
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
            },
            PendingColl {
                vreq: 0x4000_0001,
                comm_virt: WORLD + 4,
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

/// Rank 0's stored image from a checkpoint-and-kill halfway through the
/// application window of `app`, its log compacted or not.
fn product_image(app: Arc<dyn Workload>, compact: bool) -> (usize, u64) {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let job = || {
        JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(2))
            .ranks(8)
            .seed(3)
            .compact_log(compact)
    };
    let clean = session.run(job(), app.clone()).expect("clean run");
    let (wall, aw) = (
        clean.outcome().wall.as_nanos(),
        clean.outcome().app_wall.as_nanos(),
    );
    let killed = session
        .run(
            job().checkpoint_at(SimTime(wall - aw + aw / 2)).then_kill(),
            app,
        )
        .expect("checkpoint run");
    assert!(killed.killed());
    let ckpt = killed.ckpts().pop().expect("one checkpoint");
    let path = killed.spec().cfg.image_path(ckpt.ckpt_id, 0);
    let (stored, _) = session.store().get(&path, 0, SHAPE).expect("stored");
    pinned(&stored)
}

#[test]
fn product_images_are_pinned() {
    let apps = AppKind::all().map(|kind| (kind.name(), make_app_small(kind, 4), true));
    let churn = || -> Arc<dyn Workload> { Arc::new(CommChurn::default()) };
    let churns = [
        ("comm-churn", churn(), true),
        ("comm-churn, full log", churn(), false),
    ];
    let got: Vec<_> = apps
        .into_iter()
        .chain(churns)
        .map(|(name, app, compact)| (name, product_image(app, compact)))
        .collect();
    assert_eq!(got, PRODUCT_IMAGES, "product image bytes moved");
}

/// `(length, checksum_bytes)` of every rank's second-generation image:
/// the checkpoint a restarted incarnation writes. Same jobs and workloads
/// as `PRODUCT_IMAGES`. Only a restarted rank shows how restore and replay
/// leave the virtual-id allocators: every id a later creation issues lands
/// in these bytes.
const RESTARTED_IMAGES: [(&str, [(usize, u64); 8]); 7] = [
    (
        "GROMACS",
        [
            (17390, 14636676427932493212),
            (17390, 12884391980665956737),
            (17390, 15696694609232618666),
            (17390, 18238493149054631583),
            (17390, 5565692534146363723),
            (17390, 15070857562927455895),
            (17390, 1221873575952758936),
            (17390, 3596041244115892899),
        ],
    ),
    (
        "miniFE",
        [
            (66483, 13418720579275909010),
            (66483, 6145696384517127712),
            (66483, 6787169881694901663),
            (66483, 7813019942443999937),
            (66483, 8036934992728217244),
            (66483, 8843100643332360656),
            (66483, 11296065873719538367),
            (66483, 17506991379116150064),
        ],
    ),
    (
        "HPCG",
        [
            (83117, 5188822129552455509),
            (83117, 13985237143286020799),
            (83117, 2524791696860323929),
            (83117, 15381011694663166041),
            (83117, 9198432392814339795),
            (83117, 7722662691789681249),
            (83117, 6051236975119269129),
            (83117, 17181154009802458184),
        ],
    ),
    (
        "CLAMR",
        [
            (53665, 4067499178194775113),
            (53665, 11024199180468269327),
            (53665, 11003815026140149414),
            (53665, 15344965996774153813),
            (53665, 189564938447404698),
            (53665, 8349828320900896030),
            (53665, 7147862248016792277),
            (53665, 9170322415385684839),
        ],
    ),
    (
        "LULESH",
        [
            (6570, 10802042919344875657),
            (6570, 16437306466493157824),
            (6570, 18238717582790779784),
            (6570, 13668291858567573981),
            (6570, 2843970237721636087),
            (6570, 1814658557084997603),
            (6570, 1503713196551454212),
            (6570, 14724848027574747119),
        ],
    ),
    (
        "comm-churn",
        [
            (1533, 12354753027733289237),
            (1557, 11205106451243521483),
            (1533, 2249592561154234421),
            (1557, 4578153432669755474),
            (1533, 14315940967991913742),
            (1557, 7216475892453453262),
            (1533, 6457575565487850807),
            (1557, 13467221372043760363),
        ],
    ),
    (
        "comm-churn, full log",
        [
            (5357, 4351189868945841234),
            (4789, 14959856814934996298),
            (5357, 15551088297135700508),
            (4789, 1892666543487263293),
            (5357, 266146335131452345),
            (4789, 17103380884803088787),
            (5357, 10644374560061087529),
            (4789, 11525257216165994011),
        ],
    ),
];

/// Every rank's image from the checkpoint a restarted incarnation writes.
/// The first incarnation is checkpointed and killed a third of the way
/// into the application window. A probe restart runs to the end and
/// measures what is left of the window; a second restart from the same
/// checkpoint is checkpointed halfway through that remainder.
fn restarted_images(app: Arc<dyn Workload>, compact: bool) -> Vec<(usize, u64)> {
    let session = ManaSession::builder().store(InMemStore::new()).build();
    let job = || {
        JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(2))
            .ranks(8)
            .seed(3)
            .compact_log(compact)
    };
    let clean = session.run(job(), app.clone()).expect("clean run");
    let at_frac = |out: &mana::core::RunOutcome, num: u64, den: u64| {
        let (wall, aw) = (out.wall.as_nanos(), out.app_wall.as_nanos());
        SimTime(wall - aw + aw * num / den)
    };
    let killed = session
        .run(
            job()
                .checkpoint_at(at_frac(clean.outcome(), 1, 3))
                .then_kill(),
            app,
        )
        .expect("checkpoint run");
    assert!(killed.killed());
    let probe = killed.restart_on(JobBuilder::new()).expect("probe restart");
    assert_eq!(probe.checksums(), clean.checksums(), "probe restart");
    let second = killed
        .restart_on(JobBuilder::new().checkpoint_at(at_frac(probe.outcome(), 1, 2)))
        .expect("checkpointing restart");
    assert_eq!(second.checksums(), clean.checksums(), "second restart");
    let ckpt = second.ckpts().pop().expect("one checkpoint");
    (0..8)
        .map(|rank| {
            let path = second.spec().cfg.image_path(ckpt.ckpt_id, rank);
            let (stored, _) = session
                .store()
                .get(&path, u64::from(rank), SHAPE)
                .expect("stored");
            pinned(&stored)
        })
        .collect()
}

#[test]
fn restarted_images_are_pinned() {
    let apps = AppKind::all().map(|kind| (kind.name(), make_app_small(kind, 4), true));
    let churn = || -> Arc<dyn Workload> { Arc::new(CommChurn::default()) };
    let churns = [
        ("comm-churn", churn(), true),
        ("comm-churn, full log", churn(), false),
    ];
    let got: Vec<_> = apps
        .into_iter()
        .chain(churns)
        .map(|(name, app, compact)| (name, restarted_images(app, compact)))
        .collect();
    let want: Vec<_> = RESTARTED_IMAGES
        .iter()
        .map(|(name, images)| (*name, images.to_vec()))
        .collect();
    assert_eq!(got, want, "restarted image bytes moved");
}
