//! Property: the dirty-tracked, copy-on-write snapshot pipeline is
//! observationally identical to a from-scratch full copy, over random
//! interleavings of writes, snapshots, epoch commits, aborts, heap
//! growth and restores.
//!
//! "Observationally identical" means: byte-identical region contents,
//! byte-identical encoded checkpoint images, and equal post-restore
//! `checksum_half` — the dirty bitmap may only ever change *how little*
//! is copied, never what a snapshot contains. Any snapshot may be a
//! freezing one (the checkpoint-and-kill path), whose regions the later
//! writes thaw.

use mana::core::image::CheckpointImage;
use mana::core::{AppEnv, JobBuilder, ManaSession, Workload};
use mana::mpi::{MpiProfile, ReduceOp};
use mana::sim::cluster::ClusterSpec;
use mana::sim::memory::{AddressSpace, Backing, DenseBuf, Half, RegionKind, RegionSnapshot, PAGE};
use mana::sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::sync::Arc;

/// One step of the random driver.
#[derive(Clone, Debug)]
enum Op {
    /// Write `len` bytes of `fill` at `(region, offset)`.
    Write {
        region: usize,
        off: u64,
        len: u64,
        fill: u8,
    },
    /// Tracked snapshot (freezing the regions if `freeze`), compared
    /// against the full-copy reference, then committed (the
    /// checkpoint-success path).
    SnapshotCommit { freeze: bool },
    /// Tracked snapshot compared against the reference but *not*
    /// committed (the aborted-checkpoint path).
    SnapshotAbort { freeze: bool },
    /// Grow the brk heap by one page (length-changing mutation).
    Grow,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..3, 0u64..4 * PAGE, 1u64..600, any::<u8>()).prop_map(|(region, off, len, fill)| {
            Op::Write {
                region,
                off,
                len,
                fill,
            }
        }),
        any::<bool>().prop_map(|freeze| Op::SnapshotCommit { freeze }),
        any::<bool>().prop_map(|freeze| Op::SnapshotAbort { freeze }),
        Just(Op::Grow),
    ]
}

/// Region layouts: three dense regions (one deliberately not
/// page-aligned in length), the brk heap, and one pattern region.
fn build_space() -> (AddressSpace, Vec<(u64, u64)>) {
    let a = AddressSpace::new();
    a.set_lineage(7);
    let mut regions = Vec::new();
    for (i, len) in [5 * PAGE, 3 * PAGE + 123, PAGE - 1].into_iter().enumerate() {
        let addr = a
            .map(
                Half::Upper,
                RegionKind::Mmap,
                &format!("r{i}"),
                len,
                Backing::Dense(DenseBuf::zeroed(len as usize)),
            )
            .expect("map");
        regions.push((addr, len));
    }
    a.set_brk_owner(Half::Upper);
    let heap = a.sbrk(Half::Upper, PAGE).expect("brk heap");
    regions.push((heap, PAGE));
    a.map(
        Half::Upper,
        RegionKind::Text,
        "bulk",
        1 << 20,
        Backing::Pattern { seed: 11 },
    )
    .expect("pattern region");
    (a, regions)
}

/// Wrap region snapshots in an otherwise-fixed image so "byte-identical
/// encoded images" is meaningful end-to-end (codec included).
fn image_around(regions: Vec<RegionSnapshot>) -> CheckpointImage {
    CheckpointImage {
        rank: 0,
        nranks: 1,
        ckpt_id: 1,
        app_name: "dirty-tracking".into(),
        seed: 7,
        regions,
        upper_cursor: 0x7f00_0000_0000,
        ..CheckpointImage::default()
    }
}

/// Cold/hot workload: a large array written once at init, a small one
/// rewritten every step — the shape incremental checkpointing exists for.
struct ColdHot {
    steps: u64,
}

impl Workload for ColdHot {
    fn name(&self) -> &'static str {
        "coldhot"
    }

    fn run(&self, env: &mut AppEnv) {
        let world = env.world();
        let me = env.rank();
        let cold = env.alloc_f64("cold", 16 * 512); // 64 KiB, written once
        let hot = env.alloc_f64("hot", 64); // inside one page, every step
        let scal = env.alloc_f64("scal", 1);
        env.work(SimDuration::micros(5), |m| {
            m.with_mut(cold, |c| {
                for (i, v) in c.iter_mut().enumerate() {
                    *v = f64::from(me) + i as f64;
                }
            });
        });
        loop {
            let iter = env.peek(scal, |s| s[0]) as u64;
            if iter >= self.steps {
                break;
            }
            env.begin_step();
            env.work(SimDuration::millis(2), |m| {
                m.with_mut(hot, |h| {
                    for v in h.iter_mut() {
                        *v += 1.0;
                    }
                });
            });
            env.allreduce_arr(world, hot, ReduceOp::Sum);
            env.work(SimDuration::micros(1), |m| {
                m.with_mut(scal, |s| s[0] += 1.0);
            });
        }
    }
}

/// End-to-end: the copy counters ride through `RankCkptStats`, the first
/// checkpoint of an incarnation copies everything, and the second copies
/// only the hot set while sharing the cold pages.
#[test]
fn session_counters_attribute_copy_traffic() {
    let session = ManaSession::new();
    let app: Arc<dyn Workload> = Arc::new(ColdHot { steps: 10 });
    let job = || {
        JobBuilder::new()
            .cluster(ClusterSpec::local_cluster(1))
            .ranks(2)
            .profile(MpiProfile::open_mpi())
            .seed(5)
            .ckpt_dir("dirty-counters")
    };
    let probe = session.run(job(), app.clone()).expect("probe run");
    let wall = probe.outcome().wall.as_nanos();
    let aw = probe.outcome().app_wall.as_nanos();
    let t = |frac: f64| SimTime(wall - aw + (aw as f64 * frac) as u64);
    let run = session
        .run(job().checkpoint_at(t(0.4)).checkpoint_at(t(0.8)), app)
        .expect("two-checkpoint run");
    let ckpts = run.ckpts();
    assert_eq!(ckpts.len(), 2);

    // First checkpoint of the incarnation: no base epoch — every dense
    // page is copied, nothing is shared.
    let first = &ckpts[0];
    assert!(first.total_bytes_copied() > 0);
    assert_eq!(first.total_clean_pages_shared(), 0);
    for r in &first.ranks {
        // Copy volume is bounded by page granularity (tail pages of
        // non-page-multiple allocations copy short).
        assert!(
            r.bytes_copied <= r.dirty_pages * PAGE && r.bytes_copied > 0,
            "rank {}: {} bytes over {} pages",
            r.rank,
            r.bytes_copied,
            r.dirty_pages
        );
    }

    // Second checkpoint: only the hot set moved; the cold array's pages
    // are shared with the first epoch.
    let second = &ckpts[1];
    assert!(
        second.total_clean_pages_shared() >= 16 * 2,
        "cold pages not shared: {} clean pages",
        second.total_clean_pages_shared()
    );
    assert!(
        second.total_bytes_copied() * 2 < first.total_bytes_copied(),
        "second epoch should copy far less ({} vs {})",
        second.total_bytes_copied(),
        first.total_bytes_copied()
    );
    assert!(second.total_bytes_copied() > 0, "hot set must still copy");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tracked_pipeline_equals_full_copy_pipeline(ops in prop::collection::vec(arb_op(), 1..40)) {
        let (a, regions) = build_space();
        let mut heap_len = regions[3].1;
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Write { region, off, len, fill } => {
                    let (start, rlen) = regions[*region % regions.len()];
                    let rlen = if *region % regions.len() == 3 { heap_len } else { rlen };
                    let off = off % rlen;
                    let len = (*len).min(rlen - off).max(1);
                    a.write_bytes(start + off, &vec![*fill; len as usize]).unwrap();
                }
                Op::Grow => {
                    a.sbrk(Half::Upper, PAGE).unwrap();
                    heap_len += PAGE;
                }
                Op::SnapshotCommit { freeze } | Op::SnapshotAbort { freeze } => {
                    let tracked = if *freeze {
                        a.snapshot_half_freezing(Half::Upper)
                    } else {
                        a.snapshot_half_tracked(Half::Upper)
                    };
                    let full = a.snapshot_half_full(Half::Upper);

                    // 1. Region-level equality (contents, not identity).
                    prop_assert_eq!(&tracked.regions, &full, "step {}", step);

                    // 2. Byte-identical encoded images.
                    let enc_tracked = image_around(tracked.regions.clone()).encode();
                    let enc_full = image_around(full).encode();
                    prop_assert_eq!(&enc_tracked, &enc_full, "encoding diverged at step {}", step);

                    // 3. Decode → restore → checksum round-trip matches the
                    //    live space exactly.
                    let (img, _) = CheckpointImage::decode_shared(&enc_tracked).expect("decode");
                    let b = AddressSpace::new();
                    for r in &img.regions {
                        b.restore_region(r).unwrap();
                    }
                    prop_assert_eq!(
                        b.checksum_half(Half::Upper),
                        a.checksum_half(Half::Upper),
                        "restore checksum diverged at step {}",
                        step
                    );

                    // 4. The dirty summaries account for every page.
                    let pages: u64 = tracked.dirty.iter().map(|d| d.page_count).sum();
                    prop_assert_eq!(
                        tracked.stats.dirty_pages + tracked.stats.clean_pages_shared,
                        pages
                    );
                    let summarized: u64 = tracked.dirty.iter().map(|d| d.dirty_pages()).sum();
                    prop_assert_eq!(tracked.stats.dirty_pages, summarized);

                    if matches!(op, Op::SnapshotCommit { .. }) {
                        a.clear_dirty(Half::Upper);
                    }
                }
            }
        }

        // A final quiescent epoch after a commit copies nothing.
        a.snapshot_half_tracked(Half::Upper);
        a.clear_dirty(Half::Upper);
        let last = a.snapshot_half_tracked(Half::Upper);
        prop_assert_eq!(last.stats.bytes_copied, 0);
        prop_assert_eq!(last.stats.dirty_pages, 0);
    }
}
