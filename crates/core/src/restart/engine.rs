//! The staged restart pipeline.
//!
//! A restart boots a fresh simulation — possibly a different cluster, MPI
//! implementation, interconnect and placement (§2.1's bootstrap
//! sequence) — through the same boot as a fresh launch
//! ([`crate::runner`]); this module supplies the two restart-specific
//! pieces. `fetch_images` reads, decodes and validates every rank's
//! image before the simulation boots. `rank_restore` then runs on each
//! restarted rank's thread: typed, individually-timed stages (see
//! [`RestartStage`]) — image read → memory restore → state restore →
//! drain-buffer reload → lower-half boot → record-log replay → virtual-id
//! rebind/verification → world resynchronization. Every stage's duration
//! lands in the [`RestartReport`](crate::stats::RestartReport), the way
//! `CkptReport` breaks down checkpoint cost.
//!
//! Replay is *verified*: the image carries an explicit rebind map
//! ([`BindSource`]) naming which retained log entry binds each virtual
//! id, and the pipeline checks every replayed creation against it. Any
//! disagreement — a creation landing where the map does not say, an entry
//! referencing an unbound id, a live id left unbound — aborts the simulation cleanly
//! and surfaces as a typed [`RestartError`] instead of a panic.

use crate::chaos::RestartPoint;
use crate::image::CheckpointImage;
use crate::record::LoggedCall;
use crate::restart::compact::BindSource;
use crate::restart::error::RestartError;
use crate::runner::{aspace_lineage, io_shape, ManaJobSpec};
use crate::shared::{RankShared, RankState};
use crate::stats::{RankRestartStats, RestartStage};
use crate::store::CheckpointStore;
use crate::virtid::HandleClass;
use mana_mpi::{CommHandle, DtypeHandle, GroupHandle, Mpi, MpiJob};
use mana_sim::memory::{AddressSpace, Half};
use mana_sim::sched::SimThread;
use mana_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Panic payload used to abort a rank's simulated thread after a restart
/// failure was recorded; silenced by the quiet panic hook (the scheduler
/// re-raises it as [`QuietAbort`](mana_sim::sched::QuietAbort), silenced
/// likewise) and translated back into the recorded [`RestartError`] once
/// the simulation unwinds.
pub(crate) use mana_sim::sched::QuietAbort as ReplayAbort;

/// Records per-stage durations for one rank.
struct StageClock {
    stages: Vec<(RestartStage, SimDuration)>,
    t0: SimTime,
}

impl StageClock {
    fn start(t: &SimThread) -> StageClock {
        StageClock {
            stages: Vec::with_capacity(RestartStage::ALL.len()),
            t0: t.now(),
        }
    }

    /// Close the current stage as `stage`; the next one starts now.
    fn mark(&mut self, t: &SimThread, stage: RestartStage) {
        let now = t.now();
        self.stages.push((stage, now.since(self.t0)));
        self.t0 = now;
    }
}

/// One rank's fetched-and-validated image plus the read/decode
/// accounting that rides into its [`RankRestartStats`].
pub(crate) struct FetchedImage {
    img: CheckpointImage,
    /// Virtual store read duration, charged to the rank's clock in-sim.
    rdur: SimDuration,
    /// Bytes the wire decode copied (zero on the attached-image path).
    bytes_copied: u64,
    /// Stored rope pages recovered as shared handles by the decode.
    pages_shared: u64,
}

/// Fetch, decode and validate one rank's image of checkpoint `ckpt_id`.
fn fetch_rank(
    store: &Arc<dyn CheckpointStore>,
    ckpt_id: u64,
    spec: &ManaJobSpec,
    rank: u32,
) -> Result<FetchedImage, RestartError> {
    // Chaos seam: a rank can die mid image-read, before the destination
    // sim boots. Nothing has been written, so the attempt is cleanly
    // retryable.
    if spec.cfg.chaos.restart_point(rank, RestartPoint::ImageRead) {
        return Err(RestartError::Interrupted {
            rank,
            point: RestartPoint::ImageRead,
        });
    }
    let shape = io_shape(&spec.cluster, rank, spec.nranks, spec.placement);
    let path = spec.cfg.image_path(ckpt_id, rank);
    let (data, rdur) =
        store
            .get(&path, u64::from(rank), shape)
            .map_err(|source| RestartError::MissingImage {
                rank,
                ckpt_id,
                path: path.clone(),
                source,
            })?;
    let (img, decode) =
        CheckpointImage::decode_shared(&data).map_err(|source| RestartError::CorruptImage {
            rank,
            path: path.clone(),
            source,
        })?;
    if img.nranks != spec.nranks {
        return Err(RestartError::WorldSizeMismatch {
            image: img.nranks,
            requested: spec.nranks,
        });
    }
    if img.comms.is_empty() || !img.comms.iter().any(|c| c.virt == img.world_virt) {
        return Err(RestartError::NoWorldComm { rank, path });
    }
    // Internal consistency of decodable images: every pending
    // collective's communicator must be in the live set (the
    // restore would otherwise have nothing to re-engage).
    for p in &img.pending {
        if !img.comms.iter().any(|c| c.virt == p.comm_virt) {
            return Err(RestartError::MalformedImage {
                rank,
                why: format!(
                    "pending collective {:#x} references communicator {:#x} \
                     the image does not carry (at '{path}')",
                    p.vreq, p.comm_virt
                ),
            });
        }
    }
    Ok(FetchedImage {
        img,
        rdur,
        bytes_copied: decode.bytes_copied,
        pages_shared: decode.pages_shared,
    })
}

/// Fetch, decode and validate every rank's image *before* the
/// destination simulation boots, so storage and format failures surface
/// as typed errors without spinning up threads. The read durations are
/// charged to each rank's clock inside the simulation. Ranks are fetched
/// in order, so the lowest failing rank's error wins.
pub(crate) fn fetch_images(
    store: &Arc<dyn CheckpointStore>,
    ckpt_id: u64,
    spec: &ManaJobSpec,
) -> Result<Vec<FetchedImage>, RestartError> {
    (0..spec.nranks)
        .map(|rank| fetch_rank(store, ckpt_id, spec, rank))
        .collect()
}

/// The per-rank pipeline: every stage timed, every failure typed. Returns
/// the restored rank state and its fresh lower half, ready for
/// `ManaMpi::resumed`.
#[allow(clippy::type_complexity)]
pub(crate) fn rank_restore(
    t: &SimThread,
    job: &Arc<MpiJob>,
    spec: &ManaJobSpec,
    rank: u32,
    fetched: FetchedImage,
) -> Result<(Arc<RankShared>, Arc<dyn Mpi>, RankRestartStats), RestartError> {
    let FetchedImage {
        img,
        rdur,
        bytes_copied,
        pages_shared,
    } = fetched;
    let mut clock = StageClock::start(t);

    // Stage 1: charge the image read to this rank's clock (the fetch
    // itself was validated before the simulation started).
    t.advance(rdur);
    clock.mark(t, RestartStage::ImageRead);

    // Stage 2: rebuild the upper half's memory. The restored content
    // seeds each region's committed dirty-tracking epoch, so the first
    // post-restart checkpoint copies only pages touched since restart
    // and shares the rest with the image it restored from. The new
    // incarnation stamps its own lineage into its dirty summaries.
    let aspace = Arc::new(AddressSpace::new());
    aspace.set_lineage(aspace_lineage(img.seed, rank, img.ckpt_id + 1));
    for r in &img.regions {
        aspace
            .restore_region(r)
            .map_err(|e| RestartError::MalformedImage {
                rank,
                why: format!(
                    "cannot restore region '{}' at {:#x}: {e:?}",
                    r.name, r.start
                ),
            })?;
    }
    aspace.set_upper_mmap_cursor(img.upper_cursor);
    // The kernel loaded the *bootstrap* (lower-half) program; the break
    // belongs to it — MANA's sbrk interposition handles the rest (§2.1).
    aspace.set_brk_owner(Half::Lower);
    clock.mark(t, RestartStage::MemoryRestore);

    // Stage 3: reload MANA's per-rank state but the drain buffer, every
    // handle unbound until stage 7, and re-engage the cell in each pending
    // collective's phase 1 (`fetch_rank` checked its communicator).
    let sh = RankShared::new(job, rank, &img.app_name, img.seed, aspace);
    sh.cell.register_rank(t.id());
    let (state, engaged) = RankState::restored(&img);
    *sh.state.lock() = state;
    for inst in engaged {
        sh.cell.restore_engaged(inst);
    }
    clock.mark(t, RestartStage::StateRestore);

    // Stage 4: reload the drained in-flight messages.
    sh.state.lock().buffer.load(img.buffered.clone());
    clock.mark(t, RestartStage::DrainReload);

    // Stage 5: boot the fresh lower half.
    let lower: Arc<dyn Mpi> = Arc::from(job.init_rank(t, rank, &sh.aspace));
    clock.mark(t, RestartStage::LowerBoot);

    // Stage 6: replay the (compacted) record log, verified against the
    // image's rebind map. The chaos seam can kill the rank here (and at
    // the two stages below); restart stages never write the store or
    // leak into the fresh address space, so an interrupted attempt is
    // retryable against the very same image.
    chaos_point(spec, rank, RestartPoint::Replay)?;
    let reals = replay_verified(t, &sh, lower.as_ref(), rank, &img)?;
    clock.mark(t, RestartStage::Replay);

    // Stage 7: install the fresh real handles in the handle tables and
    // verify every live virtual id got bound.
    chaos_point(spec, rank, RestartPoint::Rebind)?;
    rebind_and_verify(&sh, lower.as_ref(), rank, &reals)?;
    clock.mark(t, RestartStage::Rebind);

    // Stage 8: synchronize the world before resuming the application.
    chaos_point(spec, rank, RestartPoint::Resync)?;
    lower.barrier(t, lower.comm_world());
    clock.mark(t, RestartStage::Resync);

    Ok((
        sh,
        lower,
        RankRestartStats {
            rank,
            stages: clock.stages,
            replayed_calls: img.log.len() as u64,
            bytes_copied,
            pages_shared,
        },
    ))
}

/// Poll the chaos seam at an in-sim restart stage; a firing fault aborts
/// the rank with the typed transient error (the caller's error path tears
/// the whole simulation down, exactly like a replay failure).
fn chaos_point(spec: &ManaJobSpec, rank: u32, point: RestartPoint) -> Result<(), RestartError> {
    if spec.cfg.chaos.restart_point(rank, point) {
        Err(RestartError::Interrupted { rank, point })
    } else {
        Ok(())
    }
}

fn divergence(rank: u32, call_index: usize, expected: String, got: String) -> RestartError {
    RestartError::ReplayDivergence {
        rank,
        call_index,
        expected,
        got,
    }
}

/// Re-execute the image's record-replay log against a fresh lower half
/// (§2.2), verifying each creation against the image's rebind map.
/// Collective creation calls synchronize through the new library because
/// every participating rank replays a consistent sequence (the
/// compactor's contract). Returns the real handle replay bound to each
/// virtual id still alive at the end of the log, in one map: the class id
/// spaces are disjoint. Every id replay creates moves its class's
/// allocator past it, even one the log frees later.
fn replay_verified(
    t: &SimThread,
    sh: &Arc<RankShared>,
    lower: &dyn Mpi,
    rank: u32,
    img: &CheckpointImage,
) -> Result<HashMap<u64, u64>, RestartError> {
    let expect: HashMap<u64, BindSource> = img.rebind.iter().map(|r| (r.virt, r.source)).collect();
    // The world communicator binds first, from the image's explicit id.
    let mut reals = HashMap::from([(img.world_virt, lower.comm_world().0)]);

    // Look up an input binding, or report which entry referenced what.
    let input = |reals: &HashMap<u64, u64>,
                 class: &'static str,
                 v: u64,
                 idx: usize|
     -> Result<u64, RestartError> {
        reals.get(&v).copied().ok_or_else(|| {
            divergence(
                rank,
                idx,
                format!("{class} input {v:#x} bound before this entry"),
                "unbound virtual id".to_string(),
            )
        })
    };
    // Verify a replayed creation lands where the rebind map says.
    let verify_bind = |v: u64, idx: usize| -> Result<(), RestartError> {
        match expect.get(&v) {
            Some(BindSource::Created { index }) if *index as usize == idx => Ok(()),
            Some(src) => Err(divergence(
                rank,
                idx,
                format!("rebind map assigns {v:#x} to {src:?}"),
                format!("created by entry {idx}"),
            )),
            None => Err(divergence(
                rank,
                idx,
                format!("rebind map entry for created id {v:#x}"),
                "no rebind entry".to_string(),
            )),
        }
    };

    for (idx, entry) in img.log.iter().enumerate() {
        let (virt, real) = match entry {
            LoggedCall::CommDup { parent, result } => {
                let pr = CommHandle(input(&reals, "comm", *parent, idx)?);
                sh.state.lock().comms.reserve(*result);
                (*result, lower.comm_dup(t, pr).0)
            }
            LoggedCall::CommSplit {
                parent,
                color,
                key,
                result,
            } => {
                let pr = CommHandle(input(&reals, "comm", *parent, idx)?);
                sh.state.lock().comms.reserve(*result);
                (*result, lower.comm_split(t, pr, *color, *key).0)
            }
            LoggedCall::CommFree { comm } => {
                let r = input(&reals, "comm", *comm, idx)?;
                if r != 0 {
                    lower.comm_free(t, CommHandle(r));
                }
                reals.remove(comm);
                continue;
            }
            LoggedCall::CartCreate {
                parent,
                dims,
                periodic,
                result,
            } => {
                let pr = CommHandle(input(&reals, "comm", *parent, idx)?);
                sh.state.lock().comms.reserve(*result);
                (*result, lower.cart_create(t, pr, dims, periodic, false).0)
            }
            LoggedCall::CommGroup {
                members, result, ..
            } => {
                // Groups replay locally: rebuild from the recorded
                // membership against the world group (global ranks are
                // world-local ranks), so the source communicator need not
                // be bound — the compactor relies on this.
                let wg = lower.comm_group(lower.comm_world());
                let rg = lower.group_incl(wg, members);
                lower.group_free(wg);
                sh.state.lock().groups.reserve(*result);
                (*result, rg.0)
            }
            LoggedCall::GroupIncl {
                group,
                ranks,
                result,
            } => {
                let rg = GroupHandle(input(&reals, "group", *group, idx)?);
                sh.state.lock().groups.reserve(*result);
                (*result, lower.group_incl(rg, ranks).0)
            }
            LoggedCall::GroupFree { group } => {
                let r = input(&reals, "group", *group, idx)?;
                lower.group_free(GroupHandle(r));
                reals.remove(group);
                continue;
            }
            LoggedCall::TypeBase { base, result } => {
                let mut st = sh.state.lock();
                st.dtype_base_cache.insert(*base, *result);
                st.dtypes.reserve(*result);
                drop(st);
                (*result, lower.type_base(*base).0)
            }
            LoggedCall::TypeContiguous {
                count,
                inner,
                result,
            } => {
                let ri = DtypeHandle(input(&reals, "dtype", *inner, idx)?);
                sh.state.lock().dtypes.reserve(*result);
                (*result, lower.type_contiguous(*count, ri).0)
            }
            LoggedCall::TypeFree { dtype } => {
                let r = input(&reals, "dtype", *dtype, idx)?;
                lower.type_free(DtypeHandle(r));
                reals.remove(dtype);
                sh.state.lock().dtype_base_cache.retain(|_, v| *v != *dtype);
                continue;
            }
        };
        verify_bind(virt, idx)?;
        reals.insert(virt, real);
    }
    Ok(reals)
}

/// Install the real handles replay bound into the handle tables, and
/// verify that every live virtual id (non-null communicators, groups,
/// datatypes) got one — the rebind map's completeness check.
fn rebind_and_verify(
    sh: &Arc<RankShared>,
    lower: &dyn Mpi,
    rank: u32,
    reals: &HashMap<u64, u64>,
) -> Result<(), RestartError> {
    let bound = |class: HandleClass, virt: u64| {
        reals
            .get(&virt)
            .copied()
            .ok_or(RestartError::UnboundVirtual { rank, class, virt })
    };
    let mut st = sh.state.lock();
    for (v, meta) in st.comms.iter_mut() {
        // A burned id stays bound to MPI_COMM_NULL.
        meta.real = if meta.members.is_empty() {
            0
        } else {
            bound(HandleClass::Comm, v)?
        };
    }
    for (v, g) in st.groups.iter_mut() {
        g.real = bound(HandleClass::Group, v)?;
        g.members = lower.group_members(GroupHandle(g.real));
    }
    for (v, real) in st.dtypes.iter_mut() {
        *real = bound(HandleClass::Dtype, v)?;
    }
    Ok(())
}
