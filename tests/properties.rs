//! Property-based tests (proptest) over the core data structures and
//! invariants: image codec round-trips, drain-buffer matching semantics,
//! virtual-id table bijectivity, reduction algebra, Cartesian topology
//! round-trips, memory snapshot/restore fidelity, and dims_create.

use mana::core::buffer::{BufferedMsg, DrainBuffer, PairCounters};
use mana::core::image::{CheckpointImage, ImageBytes, PendingColl, PendingKind, VirtCommEntry};
use mana::core::record::LoggedCall;
use mana::core::shared::SlotState;
use mana::core::store::InMemStore;
use mana::core::virtid::{HandleClass, VirtTable};
use mana::core::CheckpointStore;
use mana::mpi::comm::CartTopo;
use mana::mpi::dtype::{reduce_into, BaseType};
use mana::mpi::{dims_create, ReduceOp, SrcSpec, TagSpec};
use mana::sim::memory::{
    AddressSpace, Backing, DenseBuf, DenseSnap, Half, RegionKind, RegionSnapshot, SnapshotContent,
};
use proptest::prelude::*;

fn arb_base() -> impl Strategy<Value = BaseType> {
    prop_oneof![
        Just(BaseType::Byte),
        Just(BaseType::Int32),
        Just(BaseType::Int64),
        Just(BaseType::Double),
    ]
}

fn arb_op() -> impl Strategy<Value = ReduceOp> {
    prop_oneof![
        Just(ReduceOp::Sum),
        Just(ReduceOp::Max),
        Just(ReduceOp::Min),
        Just(ReduceOp::Prod),
    ]
}

fn arb_snapshot() -> impl Strategy<Value = RegionSnapshot> {
    (
        1u64..1000,
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..128)
                .prop_map(|v| SnapshotContent::Dense(DenseSnap::from_vec(v))),
            any::<u64>().prop_map(|seed| SnapshotContent::Pattern { seed }),
        ],
        "[a-z]{1,12}",
    )
        .prop_map(|(page, content, name)| {
            let len = match &content {
                SnapshotContent::Dense(d) => d.len() as u64,
                SnapshotContent::Pattern { .. } => page * 4096,
            };
            RegionSnapshot {
                start: page * 0x10_0000,
                len,
                half: Half::Upper,
                kind: RegionKind::Mmap,
                name,
                content,
            }
        })
}

fn arb_logged() -> impl Strategy<Value = LoggedCall> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(parent, result)| LoggedCall::CommDup { parent, result }),
        (any::<u64>(), any::<i32>(), any::<i32>(), any::<u64>()).prop_map(
            |(parent, color, key, result)| LoggedCall::CommSplit {
                parent,
                color,
                key,
                result
            }
        ),
        (
            any::<u64>(),
            prop::collection::vec(any::<u32>(), 0..6),
            any::<u64>()
        )
            .prop_map(|(group, ranks, result)| LoggedCall::GroupIncl {
                group,
                ranks,
                result
            }),
        (arb_base(), any::<u64>()).prop_map(|(base, result)| LoggedCall::TypeBase { base, result }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(count, blocklen, stride, inner, result)| LoggedCall::TypeVector {
                    count,
                    blocklen,
                    stride,
                    inner,
                    result
                }
            ),
    ]
}

fn arb_image() -> impl Strategy<Value = CheckpointImage> {
    (
        (
            any::<u32>(),
            any::<u32>(),
            any::<u64>(),
            "[a-z]{1,10}",
            any::<u64>(),
        ),
        prop::collection::vec(arb_snapshot(), 0..5),
        prop::collection::vec(arb_logged(), 0..10),
        prop::collection::vec((any::<u32>(), 0u64..1000), 0..6),
        prop::collection::vec((any::<u64>(), any::<u32>(), any::<i32>()), 0..5),
        any::<u64>(),
    )
        .prop_map(|(hdr, regions, log, sent, bufs, ops_done)| {
            let (rank, nranks, ckpt_id, app_name, seed) = hdr;
            let mut counters = PairCounters::default();
            for (p, c) in sent {
                counters.sent.insert(p, c);
            }
            let log2 = log.clone();
            CheckpointImage {
                rank,
                nranks,
                ckpt_id,
                app_name,
                seed,
                regions,
                upper_cursor: 0x7f00_0000_0000,
                comms: vec![VirtCommEntry {
                    virt: 0x1000_0000,
                    members: (0..4).collect(),
                    cart_dims: vec![2, 2],
                    cart_periodic: vec![true, false],
                }],
                groups: vec![0x2000_0000],
                dtypes: vec![],
                log,
                counters,
                buffered: bufs
                    .into_iter()
                    .map(|(cv, src, tag)| BufferedMsg {
                        comm_virt: cv,
                        src_local: src % 8,
                        src_global: src % 8,
                        tag,
                        data: vec![1, 2, 3],
                        modeled: 3,
                    })
                    .collect(),
                pending: vec![PendingColl {
                    vreq: 0x4000_0001,
                    comm_virt: 0x1000_0000,
                    kind: PendingKind::Ibarrier,
                }],
                ops_done,
                allocs: vec![(0x5000, 64)],
                slots: vec![SlotState::Empty, SlotState::SendIssued { vreq: None }],
                slot_seq: 2,
                slot_seq_at_step: 1,
                world_virt: 0x1000_0000,
                rebind: mana::core::restart::compact::derive_rebind(0x1000_0000, &log2),
                step_created: vec![0x1000_0001],
                dirty: Vec::new(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn image_codec_roundtrip(img in arb_image()) {
        let (back, _) = CheckpointImage::decode_shared(&img.encode()).expect("decode");
        prop_assert_eq!(img, back);
    }

    #[test]
    fn image_decode_never_panics_on_corruption(img in arb_image(), cut in any::<u16>(), flip in any::<u16>()) {
        let mut bytes = img.encode().into_vec();
        if !bytes.is_empty() {
            let f = flip as usize % bytes.len();
            bytes[f] ^= 0xA5;
            let c = cut as usize % (bytes.len() + 1);
            bytes.truncate(c);
        }
        // Must return Ok or Err — never panic, never hang.
        let _ = CheckpointImage::decode_shared(&ImageBytes::from_vec(bytes));
    }

    #[test]
    fn drain_buffer_is_fifo_per_key(msgs in prop::collection::vec((0u32..4, 0i32..3), 1..40)) {
        let mut buf = DrainBuffer::new();
        for (i, (src, tag)) in msgs.iter().enumerate() {
            buf.push(BufferedMsg {
                comm_virt: 1,
                src_local: *src,
                src_global: *src,
                tag: *tag,
                data: vec![i as u8],
                modeled: 1,
            });
        }
        // Taking with a (src, tag) filter always yields ascending push
        // order within that key.
        for src in 0..4u32 {
            for tag in 0..3i32 {
                let mut last: Option<u8> = None;
                let mut b = buf.clone();
                while let Some(m) = b.take_match(1, SrcSpec::Rank(src), TagSpec::Tag(tag)) {
                    if let Some(prev) = last {
                        prop_assert!(m.data[0] > prev, "FIFO violated");
                    }
                    last = Some(m.data[0]);
                }
            }
        }
        // Wildcard take drains everything in global order.
        let mut b = buf.clone();
        let mut count = 0;
        let mut prev: Option<u8> = None;
        while let Some(m) = b.take_match(1, SrcSpec::Any, TagSpec::Any) {
            if let Some(p) = prev {
                prop_assert!(m.data[0] > p);
            }
            prev = Some(m.data[0]);
            count += 1;
        }
        prop_assert_eq!(count, msgs.len());
    }

    #[test]
    fn virt_table_is_bijective(reals in prop::collection::hash_set(any::<u64>(), 1..64)) {
        let t = VirtTable::new(HandleClass::Comm);
        let mut pairs = Vec::new();
        for r in &reals {
            pairs.push((t.intern(*r), *r));
        }
        for (v, r) in &pairs {
            prop_assert_eq!(t.real_of(*v), *r);
            prop_assert_eq!(t.virt_of(*r), Some(*v));
        }
        // Virtual ids are unique.
        let mut vs: Vec<u64> = pairs.iter().map(|(v, _)| *v).collect();
        vs.sort_unstable();
        vs.dedup();
        prop_assert_eq!(vs.len(), pairs.len());
    }

    #[test]
    fn reduce_sum_is_commutative_and_associative_for_ints(
        a in prop::collection::vec(any::<i64>(), 1..16),
        b in prop::collection::vec(any::<i64>(), 1..16),
        c in prop::collection::vec(any::<i64>(), 1..16),
        op in arb_op(),
    ) {
        let n = a.len().min(b.len()).min(c.len());
        let enc = |v: &[i64]| -> Vec<u8> {
            v[..n].iter().flat_map(|x| x.to_le_bytes()).collect()
        };
        let (ab, bc) = (enc(&a), enc(&b));
        // (a op b) op c == a op (b op c)
        let mut left = ab.clone();
        reduce_into(&mut left, &bc, BaseType::Int64, op);
        reduce_into(&mut left, &enc(&c), BaseType::Int64, op);
        let mut right_inner = bc.clone();
        reduce_into(&mut right_inner, &enc(&c), BaseType::Int64, op);
        let mut right = ab.clone();
        reduce_into(&mut right, &right_inner, BaseType::Int64, op);
        prop_assert_eq!(left, right);
        // a op b == b op a
        let mut x = enc(&a);
        reduce_into(&mut x, &enc(&b), BaseType::Int64, op);
        let mut y = enc(&b);
        reduce_into(&mut y, &enc(&a), BaseType::Int64, op);
        prop_assert_eq!(x, y);
    }

    #[test]
    fn cart_topology_roundtrip(dims in prop::collection::vec(1u32..5, 1..4)) {
        let size: u32 = dims.iter().product();
        prop_assume!(size > 0 && size <= 64);
        let topo = CartTopo {
            periodic: dims.iter().map(|d| d % 2 == 0).collect(),
            dims: dims.clone(),
        };
        for r in 0..size {
            let coords = topo.coords(r);
            prop_assert_eq!(topo.rank(&coords), r);
            for (c, d) in coords.iter().zip(&dims) {
                prop_assert!(c < d);
            }
        }
    }

    #[test]
    fn dims_create_products(n in 1u32..2049, nd in 1u32..4) {
        let dims = dims_create(n, nd);
        prop_assert_eq!(dims.len(), nd as usize);
        prop_assert_eq!(dims.iter().product::<u32>(), n);
        // Sorted descending (balanced-ish).
        for w in dims.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn memory_snapshot_restore_checksum(payloads in prop::collection::vec(
        prop::collection::vec(any::<u8>(), 1..64), 1..6)) {
        let a = AddressSpace::new();
        for (i, p) in payloads.iter().enumerate() {
            let mut buf = DenseBuf::zeroed(p.len());
            buf.as_bytes_mut().copy_from_slice(p);
            a.map(Half::Upper, RegionKind::Mmap, &format!("r{i}"), p.len() as u64,
                  Backing::Dense(buf)).unwrap();
        }
        a.map(Half::Lower, RegionKind::Text, "lib", 4096, Backing::Pattern { seed: 1 }).unwrap();
        let before = a.checksum_half(Half::Upper);
        let snaps = a.snapshot_half(Half::Upper);

        let b = AddressSpace::new();
        for s in &snaps {
            b.restore_region(s).unwrap();
        }
        prop_assert_eq!(b.checksum_half(Half::Upper), before);
        // Lower half was not captured.
        prop_assert_eq!(b.bytes_of_half(Half::Lower), 0);
    }

    #[test]
    fn pattern_checksums_distinguish(seed1 in any::<u64>(), seed2 in any::<u64>(), len in 1u64..1_000_000) {
        use mana::sim::memory::pattern_checksum;
        prop_assume!(seed1 != seed2);
        prop_assert_ne!(pattern_checksum(seed1, len), pattern_checksum(seed2, len));
        prop_assert_eq!(pattern_checksum(seed1, len), pattern_checksum(seed1, len));
    }

    // The scatter encoding carries every dense byte in a shared rope page
    // (no copy), writes the same bytes with or without the decoded
    // attachment, and decodes back to the image from a flat copy too.
    #[test]
    fn scatter_encode_is_wire_identical(img in arb_image()) {
        let scatter = img.encode();
        prop_assert_eq!(scatter.scatter().shared_len() as u64, img.dense_bytes());
        let flat = scatter.to_vec();
        let shared = CheckpointImage::encode_shared(&std::sync::Arc::new(img.clone()));
        prop_assert!(shared.image().is_some());
        prop_assert_eq!(shared.to_vec(), flat.clone());
        let (back, _) = CheckpointImage::decode_shared(&ImageBytes::from_vec(flat))
            .expect("flat decode");
        prop_assert_eq!(back, img);
    }

    // The read twin of `scatter_encode_is_wire_identical`: for every store
    // stack, `decode_shared` of the get-returned scatter agrees exactly
    // with the copy-fallback decode of the same bytes flattened, both give
    // back the image that was put, and the streaming scatter checksum
    // equals the flat digest the restart verifier records.
    #[test]
    fn scatter_decode_is_wire_identical(img in arb_image(), stack in 0usize..6) {
        use mana::sim::checksum::checksum_bytes;
        use mana::sim::fs::{FsConfig, IoShape};
        use mana::store::{
            CasConfig, CasStore, CompressingStore, CompressionConfig, DeltaConfig, DeltaStore,
            JournaledStore,
        };
        let store: Box<dyn CheckpointStore> = match stack {
            0 => Box::new(InMemStore::new()),
            1 => Box::new(mana::core::FsStore::with_config(FsConfig::default())),
            2 => Box::new(DeltaStore::new(DeltaConfig::default(), InMemStore::new())),
            3 => Box::new(CasStore::new(CasConfig::default(), InMemStore::new())),
            4 => Box::new(CompressingStore::new(
                CompressionConfig::default(),
                InMemStore::new(),
            )),
            _ => Box::new(JournaledStore::new(InMemStore::new())),
        };
        let shape = IoShape { writers_on_node: 1, total_writers: 1 };
        let wire = img.encode();
        let path = "prop/ckpt_1/rank_0.mana";
        let len = wire.len() as u64;
        store.put(path, wire, len, 0, shape);
        let (got, _) = store.get(path, 0, shape).expect("get back");
        let flat = got.to_vec();
        let (shared_img, _) = CheckpointImage::decode_shared(&got).expect("shared decode");
        let (flat_img, _) = CheckpointImage::decode_shared(&ImageBytes::from_vec(flat.clone()))
            .expect("flat decode");
        prop_assert_eq!(&shared_img, &flat_img, "shared vs copy-fallback decode diverged");
        prop_assert_eq!(&shared_img, &img);
        prop_assert_eq!(
            got.scatter().checksum(),
            checksum_bytes(&flat),
            "streaming scatter checksum != flat digest"
        );
    }

    // A journal envelope read back from storage is outside input: whatever
    // follows a valid magic and version — lengths near `u64::MAX`, a chunk
    // table that overflows, disagrees or stops short, or plain noise — a
    // get returns a typed `Torn` or `Corrupt`, never a panic.
    #[test]
    fn journal_validation_is_typed_behind_a_valid_magic_and_version(
        payload_len in prop_oneof![any::<u64>(), (0u64..64).prop_map(|k| u64::MAX - k), 0u64..600],
        runs in prop::collection::vec(
            (prop_oneof![any::<u32>(), 0u32..4], prop_oneof![any::<u64>(), 0u64..600]),
            0..4,
        ),
        run_count in prop_oneof![any::<u32>(), 0u32..6],
        consistent in any::<bool>(),
        rest in prop::collection::vec(any::<u8>(), 0..700),
        noise in any::<bool>(),
    ) {
        use mana::core::error::StoreError;
        use mana::sim::fs::IoShape;
        use mana::store::JournaledStore;
        let shape = IoShape { writers_on_node: 1, total_writers: 1 };
        let inner = std::sync::Arc::new(InMemStore::new());
        let journal = JournaledStore::new(inner.clone());
        journal.put("j", vec![1u8; 8].into(), 8, 0, shape);
        // Keep the magic and the version exactly as the journal frames them.
        let (framed, _) = inner.get("j", 0, shape).expect("framed");
        let mut env = framed.to_vec()[..12].to_vec();
        if !noise {
            env.extend_from_slice(&payload_len.to_le_bytes());
            let count = if consistent { runs.len() as u32 } else { run_count };
            env.extend_from_slice(&count.to_le_bytes());
            for (count, len) in &runs {
                env.extend_from_slice(&count.to_le_bytes());
                env.extend_from_slice(&len.to_le_bytes());
            }
        }
        env.extend_from_slice(&rest);
        let len = env.len() as u64;
        inner.put("j", env.into(), len, 0, shape);
        match journal.get("j", 0, shape) {
            Err(StoreError::Torn { .. } | StoreError::Corrupt { .. }) => {}
            other => prop_assert!(false, "expected Torn or Corrupt, got {:?}", other.map(|_| ())),
        }
    }

    // The digest kernel's split-invariance contract: however the input is
    // cut into `update` calls — bytes, 7-byte runs, words through
    // `update_u64`/`update_f64` (size 0 below), a page plus 13, or any
    // random mix straddling the 32-byte stripe and its carry buffer — the
    // digest equals the one-shot digest under the same seed.
    #[test]
    fn checksum_is_split_invariant(
        data in prop::collection::vec(any::<u8>(), 0..10_000),
        seed in any::<u64>(),
        sizes in prop::collection::vec(0usize..100, 1..8),
    ) {
        use mana::sim::checksum::{checksum_bytes_seeded, Checksum};
        let chunked = |sizes: &[usize]| {
            let mut c = Checksum::with_seed(seed);
            let mut rest = &data[..];
            for (k, &n) in sizes.iter().cycle().enumerate() {
                if rest.is_empty() {
                    break;
                }
                let head;
                (head, rest) = rest.split_at(if n == 0 { 8 } else { n }.min(rest.len()));
                match (n, <[u8; 8]>::try_from(head)) {
                    (0, Ok(w)) if k % 2 == 0 => c.update_u64(u64::from_le_bytes(w)),
                    (0, Ok(w)) => c.update_f64(f64::from_le_bytes(w)),
                    _ => c.update(head),
                }
            }
            c.digest()
        };
        let want = checksum_bytes_seeded(seed, &data);
        prop_assert_eq!(chunked(&sizes), want);
        for fixed in [&[1][..], &[7], &[0], &[4096 + 13], &[31, 1, 32, 33, 0]] {
            prop_assert_eq!(chunked(fixed), want, "chunk sizes {:?}", fixed);
        }
    }
}
