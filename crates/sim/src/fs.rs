//! Simulated parallel filesystem (Lustre-like).
//!
//! Checkpoint images are written here and read back at restart — possibly by
//! a *different* simulation instance (cross-cluster migration restarts on a
//! brand-new `Sim`, exactly as a real restart happens in a brand-new
//! process). The store is therefore independent of any `Sim` and shared via
//! `Arc`.
//!
//! Timing model: a writer's effective bandwidth is the minimum of its fair
//! share of the node's link to the filesystem and its fair share of the
//! filesystem's aggregate backend bandwidth, times a per-rank deterministic
//! straggler factor. The paper (§3.4) observes checkpoint time is
//! write-dominated and bottlenecked by the slowest rank, whose write can
//! take ~4x the 90th-percentile rank; [`crate::rng::straggler_factor`]
//! reproduces that tail.

use crate::rng::straggler_factor;
use crate::scatter::ScatterBuf;
use crate::time::SimDuration;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Bandwidth/latency parameters of the filesystem.
#[derive(Clone, Debug)]
pub struct FsConfig {
    /// Per-node link bandwidth to the filesystem, bytes/s.
    pub node_bw: f64,
    /// Aggregate backend bandwidth, bytes/s.
    pub aggregate_bw: f64,
    /// Fixed open/close/fsync metadata latency per file operation.
    pub op_latency: SimDuration,
    /// Maximum straggler multiplier for writes (paper: up to ~4x).
    pub write_straggler_max: f64,
    /// Maximum straggler multiplier for reads (restart is less tail-heavy).
    pub read_straggler_max: f64,
    /// Seed for the deterministic straggler draws.
    pub seed: u64,
}

impl Default for FsConfig {
    fn default() -> Self {
        // Loosely Cori-scale: ~1.3 GB/s per node to Lustre, ~700 GB/s
        // aggregate. Not calibrated to the paper's ~30-40 s checkpoint
        // band: 4 TB over 64 nodes is 62.5 GB per node, which at `node_bw`
        // is 48 s before the write straggler factor of up to 4x. ROADMAP
        // item 6 is the calibration against Figs. 6 and 7.
        FsConfig {
            node_bw: 1.3e9,
            aggregate_bw: 700e9,
            op_latency: SimDuration::millis(8),
            write_straggler_max: 4.0,
            read_straggler_max: 2.0,
            seed: 0x4c75_7374,
        }
    }
}

struct StoredFile {
    /// Stored content: the scatter view as written. Shared rope pages
    /// stay shared with the writer's snapshot on the way in and with the
    /// reader's decoded image on the way out — zero copies in either
    /// direction.
    data: ScatterBuf,
    /// Logical length (≥ data len; pattern-backed image payload counts
    /// here but stores no bytes).
    logical_len: u64,
}

/// Errors from filesystem operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FsError {
    /// Open of a path that was never written.
    NotFound(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "file not found: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Describes one rank's participation in a collective file phase, used to
/// compute contended bandwidth.
#[derive(Clone, Copy, Debug)]
pub struct IoShape {
    /// Ranks concurrently doing I/O on this rank's node.
    pub writers_on_node: u32,
    /// Ranks concurrently doing I/O across the job.
    pub total_writers: u32,
}

/// The shared parallel filesystem.
pub struct ParallelFs {
    cfg: FsConfig,
    state: Mutex<FsState>,
}

#[derive(Default)]
struct FsState {
    files: HashMap<String, StoredFile>,
    /// Monotone epoch, bumped per checkpoint, decorrelating straggler draws
    /// across checkpoints.
    epoch: u64,
}

impl ParallelFs {
    /// Create a filesystem with the given parameters.
    pub fn new(cfg: FsConfig) -> Arc<ParallelFs> {
        Arc::new(ParallelFs {
            cfg,
            state: Mutex::default(),
        })
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Begin a new checkpoint epoch (straggler draws change per epoch).
    pub fn bump_epoch(&self) -> u64 {
        let mut st = self.state.lock();
        st.epoch += 1;
        st.epoch
    }

    /// Store `data` at `path` with the given logical length and return the
    /// virtual duration of the write + fsync for a rank with the given I/O
    /// shape. The caller (a checkpoint helper thread) advances its clock by
    /// the returned duration. The scatter segments are kept as written —
    /// shared rope pages are never copied here.
    pub fn write_file(
        &self,
        path: &str,
        data: impl Into<ScatterBuf>,
        logical_len: u64,
        rank: u64,
        shape: IoShape,
    ) -> SimDuration {
        let mut st = self.state.lock();
        let dur = self.transfer_time(
            logical_len,
            shape,
            straggler_factor(self.cfg.seed, rank, st.epoch, self.cfg.write_straggler_max),
        );
        st.files.insert(
            path.to_string(),
            StoredFile {
                data: data.into(),
                logical_len,
            },
        );
        dur
    }

    /// Fetch a file's contents (the scatter view as written — shared
    /// pages stay shared) and the virtual duration of reading it.
    pub fn read_file(
        &self,
        path: &str,
        rank: u64,
        shape: IoShape,
    ) -> Result<(ScatterBuf, SimDuration), FsError> {
        let st = self.state.lock();
        let f = st
            .files
            .get(path)
            .ok_or_else(|| FsError::NotFound(path.to_string()))?;
        let dur = self.transfer_time(
            f.logical_len,
            shape,
            straggler_factor(
                self.cfg.seed ^ 0x5245_4144,
                rank,
                st.epoch,
                self.cfg.read_straggler_max,
            ),
        );
        Ok((f.data.clone(), dur))
    }

    /// Logical length of a stored file.
    pub fn logical_len(&self, path: &str) -> Result<u64, FsError> {
        self.state
            .lock()
            .files
            .get(path)
            .map(|f| f.logical_len)
            .ok_or_else(|| FsError::NotFound(path.to_string()))
    }

    /// Whether `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.state.lock().files.contains_key(path)
    }

    /// Delete a file (old checkpoint garbage collection).
    pub fn remove(&self, path: &str) -> bool {
        self.state.lock().files.remove(path).is_some()
    }

    /// Paths currently stored (sorted, for deterministic iteration).
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.state.lock().files.keys().cloned().collect();
        v.sort();
        v
    }

    fn transfer_time(&self, bytes: u64, shape: IoShape, straggler: f64) -> SimDuration {
        let node_share = self.cfg.node_bw / shape.writers_on_node.max(1) as f64;
        let agg_share = self.cfg.aggregate_bw / shape.total_writers.max(1) as f64;
        let bw = node_share.min(agg_share).max(1.0);
        let base = bytes as f64 / bw;
        self.cfg.op_latency + SimDuration::secs_f64(base * straggler)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Arc<ParallelFs> {
        ParallelFs::new(FsConfig {
            node_bw: 1e9,
            aggregate_bw: 10e9,
            op_latency: SimDuration::millis(1),
            write_straggler_max: 1.0, // deterministic timing for assertions
            read_straggler_max: 1.0,
            seed: 1,
        })
    }

    const SHAPE1: IoShape = IoShape {
        writers_on_node: 1,
        total_writers: 1,
    };

    #[test]
    fn write_read_roundtrip() {
        let fs = fs();
        let d = fs.write_file("ckpt/rank0", vec![1, 2, 3], 3, 0, SHAPE1);
        assert!(d >= SimDuration::millis(1));
        let (data, _) = fs.read_file("ckpt/rank0", 0, SHAPE1).unwrap();
        assert_eq!(data.to_vec(), vec![1, 2, 3]);
        assert_eq!(fs.logical_len("ckpt/rank0").unwrap(), 3);
    }

    #[test]
    fn missing_file_errors() {
        let fs = fs();
        assert!(matches!(
            fs.read_file("nope", 0, SHAPE1),
            Err(FsError::NotFound(_))
        ));
        assert!(!fs.exists("nope"));
    }

    #[test]
    fn time_scales_with_size_and_contention() {
        let fs = fs();
        let small = fs.write_file("a", vec![], 1_000_000, 0, SHAPE1);
        let big = fs.write_file("b", vec![], 100_000_000, 0, SHAPE1);
        assert!(big.as_nanos() > 50 * small.as_nanos());

        // 32 writers on one node share the node link.
        let contended = fs.write_file(
            "c",
            vec![],
            1_000_000,
            0,
            IoShape {
                writers_on_node: 32,
                total_writers: 32,
            },
        );
        assert!(contended.as_nanos() > 10 * small.as_nanos());
    }

    #[test]
    fn aggregate_cap_binds_at_scale() {
        let fs = fs();
        // 1000 writers, 1 per node: node link would give 1 GB/s each, but
        // the 10 GB/s aggregate cap limits each to 10 MB/s.
        let d = fs.write_file(
            "d",
            vec![],
            10_000_000,
            0,
            IoShape {
                writers_on_node: 1,
                total_writers: 1000,
            },
        );
        assert!(d.as_secs_f64() > 0.9, "expected ~1s, got {d}");
    }

    #[test]
    fn logical_len_without_dense_bytes() {
        let fs = fs();
        fs.write_file("sparse", vec![9; 10], 1 << 30, 0, SHAPE1);
        assert_eq!(fs.logical_len("sparse").unwrap(), 1 << 30);
        let (data, _) = fs.read_file("sparse", 0, SHAPE1).unwrap();
        assert_eq!(data.len(), 10);
    }

    #[test]
    fn list_and_remove() {
        let fs = fs();
        fs.write_file("b", vec![], 1, 0, SHAPE1);
        fs.write_file("a", vec![], 1, 0, SHAPE1);
        assert_eq!(fs.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(fs.remove("a"));
        assert!(!fs.remove("a"));
        assert_eq!(fs.list(), vec!["b".to_string()]);
    }
}
