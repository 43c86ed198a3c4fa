//! Checkpoint/restart instrumentation (feeds Figures 6–8).

use mana_sim::time::{SimDuration, SimTime};

/// Per-rank measurements for one checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct RankCkptStats {
    /// Rank id.
    pub rank: u32,
    /// Time spent draining in-flight messages.
    pub drain: SimDuration,
    /// Time spent writing (and fsyncing) the image.
    pub write: SimDuration,
    /// Logical image size (what the paper reports per rank).
    pub image_logical_bytes: u64,
    /// Dense bytes actually serialized.
    pub image_dense_bytes: u64,
    /// Messages captured by the drain.
    pub drained_msgs: u64,
    /// Record-log entries accumulated since launch/restart.
    pub log_recorded: u64,
    /// Record-log entries actually written into the image (after
    /// compaction; equals `log_recorded` with the compactor off).
    pub log_retained: u64,
    /// Bytes the snapshot actually memcpy'd out of live memory (dirty
    /// pages only — the copy-on-write path's real copy traffic, vs
    /// `image_dense_bytes` which counts every dense byte captured).
    pub bytes_copied: u64,
    /// Pages copied because they were written since the last committed
    /// checkpoint epoch (or had no base epoch).
    pub dirty_pages: u64,
    /// Pages shared with the previous committed epoch (zero copy).
    pub clean_pages_shared: u64,
}

/// Aggregate measurements for one checkpoint (what Figure 6/8 plot).
#[derive(Clone, Debug, Default)]
pub struct CkptReport {
    /// Checkpoint id.
    pub ckpt_id: u64,
    /// Coordinator time when the intend-to-checkpoint went out.
    pub t_begin: SimTime,
    /// Time the two-phase agreement finished (do-ckpt sent).
    pub t_do_ckpt: SimTime,
    /// Time the bookmark mediation finished (the last expected-in counts
    /// were handed to the delivery layer).
    pub t_expected_in: SimTime,
    /// Time the last ckpt-done arrived (checkpoint complete).
    pub t_end: SimTime,
    /// Extra-iteration rounds needed (Challenge III pressure).
    pub extra_iterations: u32,
    /// Per-rank breakdowns.
    pub ranks: Vec<RankCkptStats>,
}

impl CkptReport {
    /// Total checkpoint time (intend → last done), the paper's headline
    /// number.
    pub fn total(&self) -> SimDuration {
        self.t_end.since(self.t_begin)
    }

    /// Slowest rank's drain time.
    pub fn max_drain(&self) -> SimDuration {
        self.ranks.iter().map(|r| r.drain).max().unwrap_or_default()
    }

    /// Slowest rank's write time.
    pub fn max_write(&self) -> SimDuration {
        self.ranks.iter().map(|r| r.write).max().unwrap_or_default()
    }

    /// Protocol/communication overhead: everything that is neither drain
    /// nor write (two-phase agreement plus coordinator round-trips).
    /// Decomposes exactly into the three protocol phases below, so a
    /// topology change's win is attributable to the phase it helps.
    pub fn comm_overhead(&self) -> SimDuration {
        self.agreement_overhead() + self.bookmark_overhead() + self.completion_overhead()
    }

    /// Two-phase agreement span: intend-to-checkpoint out → do-ckpt out
    /// (coordinator send/recv serialization plus extra-iteration waits).
    pub fn agreement_overhead(&self) -> SimDuration {
        self.t_do_ckpt.since(self.t_begin)
    }

    /// Bookmark-mediation span: do-ckpt out → expected-in counts handed
    /// back (rank quiesce plus the coordinator's gather/merge/scatter of
    /// the sent-to directory).
    pub fn bookmark_overhead(&self) -> SimDuration {
        self.t_expected_in.since(self.t_do_ckpt)
    }

    /// Completion span net of the ranks' own drain and write work:
    /// expected-in out → last ckpt-done in, minus the slowest drain and
    /// slowest write (the coordinator-side completion-gather cost).
    pub fn completion_overhead(&self) -> SimDuration {
        self.t_end
            .since(self.t_expected_in)
            .saturating_sub(self.max_drain())
            .saturating_sub(self.max_write())
    }

    /// Largest per-rank image (logical bytes) — the figure annotations.
    pub fn max_image_bytes(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.image_logical_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Sum of logical image bytes (the paper's "total checkpointing data").
    pub fn total_image_bytes(&self) -> u64 {
        self.ranks.iter().map(|r| r.image_logical_bytes).sum()
    }

    /// Sum of bytes the snapshots actually copied (dirty pages only) —
    /// attributes the checkpoint's copy traffic across ranks.
    pub fn total_bytes_copied(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_copied).sum()
    }

    /// Sum of dirty (copied) pages across ranks.
    pub fn total_dirty_pages(&self) -> u64 {
        self.ranks.iter().map(|r| r.dirty_pages).sum()
    }

    /// Sum of pages shared with the previous committed epoch across
    /// ranks (pages that moved zero bytes).
    pub fn total_clean_pages_shared(&self) -> u64 {
        self.ranks.iter().map(|r| r.clean_pages_shared).sum()
    }
}

/// One typed stage of the restart pipeline, in execution order (see
/// [`crate::restart`] for what each stage does). The restart engine times
/// every stage per rank, the way [`CkptReport`] breaks down checkpoint
/// cost by phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RestartStage {
    /// Fetch + decode the rank's checkpoint image (the read duration is
    /// charged to the rank's clock inside the simulation).
    ImageRead,
    /// Re-map upper-half memory regions and the mmap cursor.
    MemoryRestore,
    /// Reload the handle tables (live ids unbound), bookmark counters,
    /// progress cursor and pending collectives.
    StateRestore,
    /// Reload the drained in-flight message buffer.
    DrainReload,
    /// Boot the fresh lower half (`MPI_Init` of the new library).
    LowerBoot,
    /// Replay the (compacted) opaque-object log against the new library.
    Replay,
    /// Install the fresh real handles in the handle tables and verify
    /// every live virtual id is bound (the rebind map check).
    Rebind,
    /// World-barrier resynchronization before resuming the application.
    Resync,
}

impl RestartStage {
    /// Every stage, in pipeline order.
    pub const ALL: [RestartStage; 8] = [
        RestartStage::ImageRead,
        RestartStage::MemoryRestore,
        RestartStage::StateRestore,
        RestartStage::DrainReload,
        RestartStage::LowerBoot,
        RestartStage::Replay,
        RestartStage::Rebind,
        RestartStage::Resync,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            RestartStage::ImageRead => "image-read",
            RestartStage::MemoryRestore => "memory-restore",
            RestartStage::StateRestore => "state-restore",
            RestartStage::DrainReload => "drain-reload",
            RestartStage::LowerBoot => "lower-boot",
            RestartStage::Replay => "replay",
            RestartStage::Rebind => "rebind",
            RestartStage::Resync => "resync",
        }
    }
}

impl std::fmt::Display for RestartStage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-rank restart measurements (Figure 7), broken down by pipeline
/// stage.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RankRestartStats {
    /// Rank id.
    pub rank: u32,
    /// Duration of each executed stage, in pipeline order.
    pub stages: Vec<(RestartStage, SimDuration)>,
    /// Record-log entries replayed (the compacted count).
    pub replayed_calls: u64,
    /// Bytes the image decode actually copied out of the stored scatter
    /// (metadata and any segments that lost their page alignment in
    /// storage). Zero when the store handed back an attached image.
    pub bytes_copied: u64,
    /// Stored rope pages installed into the restored address space as
    /// shared handles — pages that moved zero bytes through decode *and*
    /// restore (the zero-copy restart read path).
    pub pages_shared: u64,
}

impl RankRestartStats {
    /// Duration of one stage (zero if it was not recorded).
    pub fn stage(&self, stage: RestartStage) -> SimDuration {
        self.stages
            .iter()
            .find(|(s, _)| *s == stage)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Image read time (the historical headline split).
    pub fn read(&self) -> SimDuration {
        self.stage(RestartStage::ImageRead)
    }

    /// Opaque-object replay time (§2.2 — the paper reports this under 10%
    /// of restart time).
    pub fn replay(&self) -> SimDuration {
        self.stage(RestartStage::Replay)
    }
}

/// Aggregate restart measurements.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RestartReport {
    /// Per-rank stats.
    pub ranks: Vec<RankRestartStats>,
    /// Wall time from restart begin to all ranks resumed.
    pub total: SimDuration,
}

impl RestartReport {
    /// Slowest read.
    pub fn max_read(&self) -> SimDuration {
        self.max_stage(RestartStage::ImageRead)
    }

    /// Slowest replay.
    pub fn max_replay(&self) -> SimDuration {
        self.max_stage(RestartStage::Replay)
    }

    /// Slowest rank's duration for one stage.
    pub fn max_stage(&self, stage: RestartStage) -> SimDuration {
        self.ranks
            .iter()
            .map(|r| r.stage(stage))
            .max()
            .unwrap_or_default()
    }

    /// Largest per-rank replayed-call count.
    pub fn max_replayed_calls(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.replayed_calls)
            .max()
            .unwrap_or(0)
    }

    /// Sum of bytes the image decodes copied out of stored scatters — the
    /// restart-side analogue of [`CkptReport::total_bytes_copied`].
    pub fn total_bytes_copied(&self) -> u64 {
        self.ranks.iter().map(|r| r.bytes_copied).sum()
    }

    /// Sum of stored pages installed as shared handles across ranks
    /// (pages restored without a single memcpy).
    pub fn total_pages_shared(&self) -> u64 {
        self.ranks.iter().map(|r| r.pages_shared).sum()
    }

    /// `(stage, slowest-rank duration)` for every pipeline stage — the
    /// restart-side analogue of [`CkptReport`]'s phase decomposition.
    pub fn stage_breakdown(&self) -> Vec<(RestartStage, SimDuration)> {
        RestartStage::ALL
            .iter()
            .map(|s| (*s, self.max_stage(*s)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_decomposition() {
        let r = CkptReport {
            ckpt_id: 1,
            t_begin: SimTime(0),
            t_do_ckpt: SimTime(2_000_000_000),
            t_expected_in: SimTime(2_200_000_000),
            t_end: SimTime(10_000_000_000),
            extra_iterations: 1,
            ranks: vec![
                RankCkptStats {
                    rank: 0,
                    drain: SimDuration::millis(500),
                    write: SimDuration::secs(6),
                    image_logical_bytes: 100,
                    image_dense_bytes: 50,
                    drained_msgs: 3,
                    bytes_copied: 8192,
                    dirty_pages: 2,
                    clean_pages_shared: 5,
                    ..RankCkptStats::default()
                },
                RankCkptStats {
                    rank: 1,
                    drain: SimDuration::millis(700),
                    write: SimDuration::secs(7),
                    image_logical_bytes: 200,
                    image_dense_bytes: 60,
                    drained_msgs: 0,
                    bytes_copied: 4096,
                    dirty_pages: 1,
                    clean_pages_shared: 9,
                    ..RankCkptStats::default()
                },
            ],
        };
        assert_eq!(r.total(), SimDuration::secs(10));
        assert_eq!(r.max_drain(), SimDuration::millis(700));
        assert_eq!(r.max_write(), SimDuration::secs(7));
        // Phase decomposition: the three phases sum to the comm overhead,
        // and (when nothing saturates) the sum equals total − drain − write.
        assert_eq!(r.agreement_overhead(), SimDuration::secs(2));
        assert_eq!(r.bookmark_overhead(), SimDuration::millis(200));
        assert_eq!(r.completion_overhead(), SimDuration::millis(100));
        assert_eq!(
            r.comm_overhead(),
            r.agreement_overhead() + r.bookmark_overhead() + r.completion_overhead()
        );
        assert_eq!(
            r.comm_overhead(),
            SimDuration::secs(10)
                .saturating_sub(SimDuration::millis(700))
                .saturating_sub(SimDuration::secs(7))
        );
        assert_eq!(r.max_image_bytes(), 200);
        assert_eq!(r.total_image_bytes(), 300);
        assert_eq!(r.total_bytes_copied(), 12288);
        assert_eq!(r.total_dirty_pages(), 3);
        assert_eq!(r.total_clean_pages_shared(), 14);
    }

    #[test]
    fn restart_stage_breakdown() {
        let mk = |rank, read_ms, replay_ms| RankRestartStats {
            rank,
            stages: vec![
                (RestartStage::ImageRead, SimDuration::millis(read_ms)),
                (RestartStage::LowerBoot, SimDuration::millis(1)),
                (RestartStage::Replay, SimDuration::millis(replay_ms)),
            ],
            replayed_calls: replay_ms,
            bytes_copied: read_ms,
            pages_shared: replay_ms * 2,
        };
        let r = RestartReport {
            ranks: vec![mk(0, 10, 3), mk(1, 40, 9)],
            total: SimDuration::millis(60),
        };
        assert_eq!(r.max_read(), SimDuration::millis(40));
        assert_eq!(r.max_replay(), SimDuration::millis(9));
        assert_eq!(r.max_stage(RestartStage::LowerBoot), SimDuration::millis(1));
        // Unrecorded stages read as zero rather than missing.
        assert_eq!(r.max_stage(RestartStage::Resync), SimDuration::ZERO);
        assert_eq!(r.max_replayed_calls(), 9);
        assert_eq!(r.total_bytes_copied(), 50);
        assert_eq!(r.total_pages_shared(), 24);
        let breakdown = r.stage_breakdown();
        assert_eq!(breakdown.len(), RestartStage::ALL.len());
        assert!(breakdown
            .iter()
            .any(|(s, d)| *s == RestartStage::Replay && *d == SimDuration::millis(9)));
        assert_eq!(RestartStage::Replay.to_string(), "replay");
    }
}
