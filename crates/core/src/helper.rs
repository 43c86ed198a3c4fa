//! The checkpoint helper thread (paper §2.5 "Implementation of
//! Algorithm 2", §2.7).
//!
//! One helper thread is injected into each MPI rank at launch. It is
//! dormant during normal execution: it listens on the TCP control plane
//! for coordinator messages and answers with the rank's protocol state.
//! At do-ckpt it quiesces the rank, runs the bookmark exchange and drain
//! (§2.3), snapshots the upper half, writes the image, and resumes (or
//! kills) the rank.
//!
//! The helper does not know which coordinator topology it lives under: it
//! speaks the per-rank protocol to its *parent* endpoint, which is the
//! root coordinator in the flat star and the node-local sub-coordinator
//! in the tree (the sub-coordinator relays/reduces; see
//! `crate::topology`).

use crate::buffer::BufferedMsg;
use crate::cell::CollInstance;
use crate::chaos::InjectPoint;
use crate::config::ManaConfig;
use crate::ctrl::{ctrl_msg_bytes, protocol_violation, CtrlMsg, ProtocolPhase, RankReply};
use crate::image::CheckpointImage;
use crate::shared::RankShared;
use crate::stats::RankCkptStats;
use crate::store::CheckpointStore;
use mana_mpi::{CommHandle, Mpi, SrcSpec, TagSpec};
use mana_net::transport::{EndpointId, Network};
use mana_sim::fs::IoShape;
use mana_sim::memory::Half;
use mana_sim::sched::SimThread;
use mana_sim::time::SimDuration;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Everything a helper thread needs.
pub struct HelperCtx {
    /// The rank's shared MANA state.
    pub sh: Arc<RankShared>,
    /// The rank's lower half (the drain pumps it).
    pub lower: Arc<dyn Mpi>,
    /// Control plane.
    pub ctrl: Arc<Network<CtrlMsg>>,
    /// This helper's control endpoint.
    pub my_ep: EndpointId,
    /// The control endpoint of this helper's protocol parent: the root
    /// coordinator (flat topology) or the rank's node-local
    /// sub-coordinator (tree topology).
    pub parent_ep: EndpointId,
    /// MANA configuration.
    pub cfg: ManaConfig,
    /// Checkpoint storage for images.
    pub store: Arc<dyn CheckpointStore>,
    /// I/O contention shape at checkpoint time.
    pub io_shape: IoShape,
}

fn ctrl_send(t: &SimThread, hx: &HelperCtx, msg: CtrlMsg) {
    // Helper-side send cost is small (one socket each); the coordinator
    // side dominates.
    t.advance(SimDuration::micros(3));
    let bytes = ctrl_msg_bytes(&msg);
    hx.ctrl.send(hx.my_ep, hx.parent_ep, bytes, msg);
}

fn recv_ctrl(t: &SimThread, hx: &HelperCtx) -> CtrlMsg {
    loop {
        if let Some(m) = hx.ctrl.poll(hx.my_ep) {
            return m;
        }
        t.block();
    }
}

/// Report this rank's protocol state to the parent, with its
/// per-communicator completed wrapped-collective counts: the comm
/// metadata's sequence counters minus any instance whose number was
/// consumed but not completed (gated or engaged).
fn send_state(t: &SimThread, hx: &HelperCtx, reply: RankReply, instance: Option<CollInstance>) {
    let incomplete = hx.sh.cell.initiated_incomplete();
    let progress = hx
        .sh
        .state
        .lock()
        .comms
        .iter()
        .filter(|(_, m)| !m.members.is_empty())
        .map(|(v, m)| {
            let dec = incomplete.iter().filter(|i| i.comm_virt == v).count() as u64;
            (v, m.wseq.saturating_sub(dec))
        })
        .collect();
    let rank = hx.sh.rank;
    ctrl_send(
        t,
        hx,
        CtrlMsg::State {
            rank,
            reply,
            instance,
            progress,
        },
    );
}

/// Helper thread main loop. Runs forever (daemon); exits after a
/// kill-resume.
pub fn run_helper(t: SimThread, hx: HelperCtx) {
    hx.ctrl.add_waiter(hx.my_ep, t.id());
    hx.sh.cell.register_helper(t.id());
    {
        // Chaos seam: a firing fault gang-crashes the MPI job (killing one
        // rank kills the job — MPI semantics). This thunk is this rank's
        // share of that crash: resume-with-kill aborts the job and wakes
        // the rank so blocked operations unwind.
        let sh = hx.sh.clone();
        hx.cfg.chaos.register_kill(move || sh.cell.resume(true));
    }
    loop {
        if hx.sh.cell.take_pending_exit_phase2() {
            send_state(&t, &hx, RankReply::ExitPhase2, None);
        }
        if let Some(msg) = hx.ctrl.poll(hx.my_ep) {
            match msg {
                CtrlMsg::IntendCkpt { ckpt_id } | CtrlMsg::ExtraIteration { ckpt_id } => {
                    if hx
                        .cfg
                        .chaos
                        .rank_point(ckpt_id, hx.sh.rank, InjectPoint::Agreement, None)
                    {
                        return; // mid-agreement crash: the job is dead
                    }
                    if let Some((reply, instance)) = hx.sh.cell.on_intent() {
                        send_state(&t, &hx, reply, instance);
                    }
                }
                CtrlMsg::DoCkpt { ckpt_id } => {
                    let kill = do_checkpoint(&t, &hx, ckpt_id);
                    if kill {
                        return;
                    }
                }
                other => protocol_violation(
                    format!("helper rank {}", hx.sh.rank),
                    None,
                    ProtocolPhase::Idle,
                    "IntendCkpt/ExtraIteration/DoCkpt",
                    other,
                ),
            }
            continue;
        }
        t.block();
    }
}

/// Execute the local side of a checkpoint. Returns true if the job was
/// killed (migration workflow).
fn do_checkpoint(t: &SimThread, hx: &HelperCtx, ckpt_id: u64) -> bool {
    let sh = &hx.sh;
    // Chaos seam: a firing fault kills the rank at `point`.
    let dies = |point, path| hx.cfg.chaos.rank_point(ckpt_id, sh.rank, point, path);
    // 1. Quiesce: stop the rank from initiating new sends.
    sh.cell.set_do_ckpt();
    sh.cell.helper_wait(t, |c| c.bookmark_safe());
    if dies(InjectPoint::Bookmark, None) {
        return true; // died quiesced, bookmark never sent
    }

    // 2. Bookmark exchange (via the coordinator: a star-shaped variation
    //    of the all-to-all exchange, §2.3).
    let sent = sh.state.lock().counters.sent_vec();
    ctrl_send(
        t,
        hx,
        CtrlMsg::Bookmark {
            rank: sh.rank,
            sent_to: sent,
        },
    );
    let expected: Vec<(u32, u64)> = match recv_ctrl(t, hx) {
        CtrlMsg::ExpectedIn { from } => from,
        other => protocol_violation(
            format!("helper rank {}", sh.rank),
            ckpt_id,
            ProtocolPhase::ExpectedWait,
            "ExpectedIn",
            other,
        ),
    };

    if dies(InjectPoint::Drain, None) {
        return true; // died with the wire still carrying messages
    }

    // 3. Drain in-flight messages into the checkpoint buffer.
    let drain_t0 = t.now();
    drain(t, sh, hx.lower.as_ref(), &expected);
    let drain_dur = t.now().since(drain_t0);

    // 4. Wait for a snapshot-consistent park state, then snapshot (the
    //    record log is compacted here, on its way into the image). The
    //    snapshot is copy-on-write: clean pages are shared with the
    //    previous committed checkpoint epoch, dirty pages are copied.
    //    When the job is killed after this checkpoint, the snapshot also
    //    freezes each region onto its copy, so the rank never holds its
    //    memory twice; an aborted round thaws a region on its next write.
    sh.cell.helper_wait(t, |c| c.snapshot_safe());
    let (img, log_recorded, snap_stats) =
        build_image(sh, ckpt_id, hx.cfg.compact_log, hx.cfg.ends_after(ckpt_id));
    let img = std::sync::Arc::new(img);
    let encoded = CheckpointImage::encode_shared(&img);
    let logical = img.logical_bytes();
    let dense = img.dense_bytes();
    let drained_msgs = img.buffered.len() as u64;
    let log_retained = img.log.len() as u64;

    // 5. Write + fsync through the checkpoint store.
    let path = hx.cfg.image_path(ckpt_id, sh.rank);
    if dies(InjectPoint::Encode, Some(&path)) {
        return true; // died with the image encoded but never written
    }
    let wdur = hx
        .store
        .put(&path, encoded, logical, u64::from(sh.rank), hx.io_shape);
    t.advance(wdur);
    if dies(InjectPoint::Publish, None) {
        // Died after the write but before reporting CkptDone: the round
        // can never commit, so the (possibly torn) image is unreferenced.
        return true;
    }

    // The image is durable: commit the snapshot as the new dirty-tracking
    // base epoch. (An aborted checkpoint would simply skip this — the
    // next snapshot folds the uncommitted dirty set back in.)
    sh.aspace.clear_dirty(Half::Upper);

    ctrl_send(
        t,
        hx,
        CtrlMsg::CkptDone {
            rank: sh.rank,
            stats: RankCkptStats {
                rank: sh.rank,
                drain: drain_dur,
                write: wdur,
                image_logical_bytes: logical,
                image_dense_bytes: dense,
                drained_msgs,
                log_recorded,
                log_retained,
                bytes_copied: snap_stats.bytes_copied,
                dirty_pages: snap_stats.dirty_pages,
                clean_pages_shared: snap_stats.clean_pages_shared,
            },
        },
    );

    // 6. Resume (or die).
    let kill = match recv_ctrl(t, hx) {
        CtrlMsg::Resume { kill, .. } => kill,
        other => protocol_violation(
            format!("helper rank {}", sh.rank),
            ckpt_id,
            ProtocolPhase::ResumeWait,
            "Resume",
            other,
        ),
    };
    sh.cell.resume(kill);
    kill
}

/// Pump the lower half until every peer's sent count is accounted for by
/// our received + buffered counts.
fn drain(t: &SimThread, sh: &Arc<RankShared>, lower: &dyn Mpi, expected: &[(u32, u64)]) {
    let expected: BTreeMap<u32, u64> = expected.iter().copied().collect();
    loop {
        // Done, or the live (non-null) communicators to pump.
        let live: Vec<_> = {
            let st = sh.state.lock();
            let missing: u64 = expected
                .iter()
                .map(|(src, cnt)| {
                    let have = st.counters.recvd.get(src).copied().unwrap_or(0)
                        + st.buffer.count_from(*src);
                    cnt.saturating_sub(have)
                })
                .sum();
            if missing == 0 {
                return;
            }
            st.comms
                .iter()
                .filter(|(_, m)| m.real != 0)
                .map(|(v, m)| (v, CommHandle(m.real), m.members.clone()))
                .collect()
        };
        let mut stole = false;
        for (comm_virt, real, members) in live {
            while let Some(st) = lower.iprobe(t, SrcSpec::Any, TagSpec::Any, real) {
                let (data, status) =
                    lower.recv(t, SrcSpec::Rank(st.source), TagSpec::Tag(st.tag), real);
                let src_global = members[status.source as usize];
                sh.state.lock().buffer.push(BufferedMsg {
                    comm_virt,
                    src_local: status.source,
                    src_global,
                    tag: status.tag,
                    data,
                    modeled: status.modeled_bytes,
                });
                stole = true;
            }
        }
        if !stole {
            // Nothing deliverable yet: sleep until network activity.
            lower.wait_any_message(t);
        }
    }
}

/// Capture the rank's checkpointable state: its memory through the
/// dirty-tracked copy-on-write snapshot path (O(dirty bytes), not
/// O(address space)), whose summaries ride in the image for `DeltaStore`,
/// then its MANA state under one guard ([`RankState::capture`], which
/// compacts the record log when `compact` is set). Returns the image, the
/// pre-compaction log length, and the snapshot's copy accounting.
///
/// [`RankState::capture`]: crate::shared::RankState::capture
fn build_image(
    sh: &Arc<RankShared>,
    ckpt_id: u64,
    compact: bool,
    freeze: bool,
) -> (CheckpointImage, u64, mana_sim::memory::SnapshotStats) {
    let snap = if freeze {
        sh.aspace.snapshot_half_freezing(Half::Upper)
    } else {
        sh.aspace.snapshot_half_tracked(Half::Upper)
    };
    let (state, recorded) = sh.state.lock().capture(compact);
    let img = CheckpointImage {
        rank: sh.rank,
        nranks: sh.nranks,
        ckpt_id,
        app_name: sh.app_name.clone(),
        seed: sh.seed,
        regions: snap.regions,
        upper_cursor: sh.aspace.upper_mmap_cursor(),
        dirty: snap.dirty,
        ..state
    };
    (img, recorded, snap.stats)
}
