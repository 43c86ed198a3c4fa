//! MANA configuration.

use crate::chaos::ChaosHandle;
use mana_sim::kernel::KernelModel;
use mana_sim::time::{SimDuration, SimTime};

/// What the job should do once a checkpoint completes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AfterCkpt {
    /// Resume execution (fault-tolerance checkpointing).
    Continue,
    /// Terminate the job (used by migration/restart experiments: the run is
    /// resumed later — possibly on a different cluster, MPI implementation
    /// or topology — by a restart).
    Kill,
}

/// When the coordinator begins this incarnation's checkpoints.
///
/// Either every start is an absolute simulated time, or the coordinator
/// sleeps until the application starts and begins checkpoints at an
/// interval — the way DMTCP's coordinator checkpoints a production job,
/// wherever its ranks happen to be (arXiv 1803.09342). One coordinator
/// loop reads both ([`CkptSchedule::begin`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptSchedule {
    /// Begin one checkpoint at each of these virtual times, in order.
    At(Vec<SimTime>),
    /// Begin `count` checkpoints: the first `interval` after the
    /// application starts (the first rank enters its workload), each later
    /// one `interval` after the previous one ended.
    Every {
        /// Simulated time between the application start or a checkpoint's
        /// end and the next checkpoint's begin.
        interval: SimDuration,
        /// Checkpoints to take.
        count: u64,
    },
}

impl Default for CkptSchedule {
    fn default() -> CkptSchedule {
        CkptSchedule::At(Vec::new())
    }
}

impl CkptSchedule {
    /// Number of checkpoints the schedule takes.
    pub fn len(&self) -> u64 {
        match self {
            CkptSchedule::At(times) => times.len() as u64,
            CkptSchedule::Every { count, .. } => *count,
        }
    }

    /// Whether the schedule takes no checkpoint.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// When checkpoint `i` (0-based) begins, given `anchor`: the
    /// application's start for the first checkpoint, the previous
    /// checkpoint's end for each later one. Absolute times ignore it.
    pub fn begin(&self, i: u64, anchor: SimTime) -> SimTime {
        match self {
            CkptSchedule::At(times) => times[i as usize],
            CkptSchedule::Every { interval, .. } => anchor + *interval,
        }
    }
}

/// Shape of the checkpoint-coordinator control plane.
///
/// The DMTCP-style coordinator serializes one small TCP send per rank, so
/// its communication overhead grows with rank count (§3.4, Figure 8). The
/// tree topology puts a sub-coordinator on every compute node: the root
/// exchanges one aggregated message per *node* and the sub-coordinators
/// fan out / reduce locally (over loopback/shm) in parallel. Both
/// topologies run the identical protocol; from the same rank states they
/// make identical safety decisions, and while the whole agreement fits
/// inside one compute op only the timing differs (outside that regime
/// arrival skew can stop the ranks at other op boundaries; see
/// `crate::topology`). See `README.md` §"Coordinator topologies" for when
/// the tree pays off.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TopologyKind {
    /// One coordinator speaks to every rank directly (DMTCP's star; the
    /// paper's measured configuration). The default.
    #[default]
    Flat,
    /// Per-node sub-coordinators fan out downward control messages and
    /// aggregate upward replies in-tree, so the root handles O(nodes)
    /// messages instead of O(ranks).
    Tree,
}

/// Configuration of the MANA layer for one job incarnation.
#[derive(Clone, Debug)]
pub struct ManaConfig {
    /// Kernel model of the nodes (FS-register switch costs; §3.3).
    pub kernel: KernelModel,
    /// Cost of one virtual-handle table lookup (hash + lock — the paper's
    /// second, smaller overhead source).
    pub virt_cost: SimDuration,
    /// Directory prefix for checkpoint images on the shared filesystem.
    pub ckpt_dir: String,
    /// When the coordinator initiates checkpoints.
    pub ckpt_schedule: CkptSchedule,
    /// Id of the first checkpoint this incarnation takes (subsequent
    /// scheduled checkpoints count up from it). The session API assigns
    /// a chain-unique base here so a later incarnation's images never
    /// overwrite an earlier incarnation's at the same store paths.
    pub first_ckpt_id: u64,
    /// Behaviour after the final scheduled checkpoint completes.
    pub after_last_ckpt: AfterCkpt,
    /// Control-plane shape: flat star (default) or per-node tree fan-out.
    pub topology: TopologyKind,
    /// Compact the record-replay log before writing it into checkpoint
    /// images (elide freed opaque objects and dead derivation subtrees;
    /// see `mana_core::restart::compact`). On by default;
    /// `tests/restart_compaction.rs` switches it off to measure full-log
    /// replay.
    pub compact_log: bool,
    /// Fault-injection seam. Unarmed (the default) it injects nothing;
    /// armed, the protocol polls it at phase-aware points and a seeded
    /// fault plan can crash the job anywhere. Cloned across restart
    /// inheritance, so one injector spans a whole incarnation chain.
    pub chaos: ChaosHandle,
}

impl ManaConfig {
    /// Configuration with no scheduled checkpoints (pure runtime-overhead
    /// measurement).
    pub fn no_checkpoints(kernel: KernelModel) -> ManaConfig {
        ManaConfig {
            kernel,
            virt_cost: SimDuration::nanos(25),
            ckpt_dir: "ckpt".to_string(),
            ckpt_schedule: CkptSchedule::default(),
            first_ckpt_id: 1,
            after_last_ckpt: AfterCkpt::Continue,
            topology: TopologyKind::Flat,
            compact_log: true,
            chaos: ChaosHandle::default(),
        }
    }

    /// Whether this incarnation ends after checkpoint `ckpt_id`: it is
    /// the last scheduled checkpoint and the job is killed after it. The
    /// coordinator kills the job after it, and each rank's helper freezes
    /// its memory onto the image's pages instead of keeping the live
    /// buffers beside them.
    pub fn ends_after(&self, ckpt_id: u64) -> bool {
        self.after_last_ckpt == AfterCkpt::Kill
            && ckpt_id
                .checked_sub(self.first_ckpt_id)
                .is_some_and(|i| i + 1 == self.ckpt_schedule.len())
    }

    /// Image path for `rank` under checkpoint `ckpt_id`.
    pub fn image_path(&self, ckpt_id: u64, rank: u32) -> String {
        format!("{}/ckpt_{ckpt_id}/rank_{rank}.mana", self.ckpt_dir)
    }
}

/// Components of a checkpoint-image path produced by
/// [`ManaConfig::image_path`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ImagePathParts {
    /// Directory prefix (the `ckpt_dir`; may itself contain slashes).
    pub dir: String,
    /// Checkpoint id.
    pub ckpt_id: u64,
    /// Rank id.
    pub rank: u32,
}

/// Parse a path produced by [`ManaConfig::image_path`] back into its
/// parts. Returns `None` for paths not of the
/// `dir/ckpt_<id>/rank_<rank>.mana` shape.
///
/// Storage backends use this to recognize which objects are rank images
/// and which checkpoint generation they belong to — the delta backend
/// diffs a rank's image against the previous generation of the *same*
/// `(dir, rank)` family.
pub fn parse_image_path(path: &str) -> Option<ImagePathParts> {
    let (rest, file) = path.rsplit_once('/')?;
    let (dir, ckpt) = match rest.rsplit_once('/') {
        Some((d, c)) => (d.to_string(), c),
        None => (String::new(), rest),
    };
    let ckpt_id = ckpt.strip_prefix("ckpt_")?.parse().ok()?;
    let rank = file
        .strip_prefix("rank_")?
        .strip_suffix(".mana")?
        .parse()
        .ok()?;
    Some(ImagePathParts { dir, ckpt_id, rank })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let c = ManaConfig::no_checkpoints(KernelModel::unpatched());
        assert!(c.ckpt_schedule.is_empty());
        assert_eq!(c.after_last_ckpt, AfterCkpt::Continue);
        assert_eq!(c.image_path(2, 7), "ckpt/ckpt_2/rank_7.mana");
        assert_eq!(c.topology, TopologyKind::Flat, "flat is the default");
    }

    #[test]
    fn only_the_last_checkpoint_of_a_killed_schedule_ends_it() {
        let mut c = ManaConfig::no_checkpoints(KernelModel::unpatched());
        c.first_ckpt_id = 4;
        c.ckpt_schedule = CkptSchedule::At(vec![SimTime(10), SimTime(20)]);
        assert!(!(3..7).any(|id| c.ends_after(id)), "continue never ends");
        c.after_last_ckpt = AfterCkpt::Kill;
        let ends: Vec<u64> = (0..8).filter(|&id| c.ends_after(id)).collect();
        assert_eq!(ends, [5]);
        c.ckpt_schedule = CkptSchedule::Every {
            interval: SimDuration::micros(10),
            count: 3,
        };
        let ends: Vec<u64> = (0..8).filter(|&id| c.ends_after(id)).collect();
        assert_eq!(ends, [6], "an interval ends after its count");
        c.ckpt_schedule = CkptSchedule::default();
        assert!(!(0..8).any(|id| c.ends_after(id)), "no schedule, no end");
    }

    #[test]
    fn image_paths_roundtrip_through_parse() {
        let mut c = ManaConfig::no_checkpoints(KernelModel::unpatched());
        c.ckpt_dir = "runs/a/b".to_string();
        let parts = parse_image_path(&c.image_path(12, 3)).expect("parse");
        assert_eq!(
            parts,
            ImagePathParts {
                dir: "runs/a/b".to_string(),
                ckpt_id: 12,
                rank: 3,
            }
        );
        // Non-image paths are recognized as such, not mis-parsed.
        for p in [
            "ckpt/ckpt_1/rank_x.mana",
            "ckpt/ckpt_/rank_0.mana",
            "ckpt/epoch_1/rank_0.mana",
            "ckpt/ckpt_1/rank_0.img",
            "loose-object",
        ] {
            assert!(parse_image_path(p).is_none(), "{p} should not parse");
        }
    }
}
