//! # mana-apps — workload substrate
//!
//! Skeletons of the five real-world HPC applications the paper evaluates
//! (GROMACS, miniFE, HPCG, CLAMR, LULESH) plus OSU-style microbenchmarks.
//! Each reproduces its original's *communication profile* — message sizes,
//! call rates, collective mix, memory footprint — which is what the
//! paper's figures measure, and each keeps all of its state in managed
//! upper-half memory so checkpoints capture it bit-for-bit.
//!
//! ## Kernel rule
//!
//! Every rank's final state checksum is an oracle: native and MANA runs,
//! checkpointed and restarted runs must end on the same bits, and
//! `tests/sched_counters.rs` pins them. The applications' arithmetic is
//! also most of the host time on the Fig. 2/3 workload, so a kernel may be
//! rewritten for speed — but only into a form that computes every output
//! from the same floating-point operations in the same order:
//!
//! - keep each output's operation order (`2.5 * p[i] - p[i-1] - p[i+1]`
//!   stays left to right);
//! - fold a reduction from the value the original folds from: `-0.0` for
//!   `Iterator::sum::<f64>`, whatever a hand-written accumulator starts at;
//! - fuse only *independent* reductions into one pass; never split or
//!   reassociate one chain, and never use `mul_add` — both change rounding;
//! - back every rewrite with the pinned checksums and a bitwise unit test
//!   against the original loop (as `minife.rs` does for the CG kernels).
//!
//! An op may also skip arithmetic whose every output is already in place
//! bit for bit — HPCG's smoothing levels after the first see the same `p`
//! and the same halo, so their product is the `q` level 0 wrote. The op
//! still opens its memory windows (dirty-page marks, the thaw of a
//! restored region) and charges its duration, so the op sequence the
//! restore cursor counts, the simulated clock and every image stay as
//! they were; a debug assertion recomputes the skipped result and
//! compares it bit for bit.

#![warn(missing_docs)]

pub mod churn;
pub mod clamr;
pub mod common;
pub mod gromacs;
pub mod hpcg;
pub mod lulesh;
pub mod minife;
pub mod osu;

pub use churn::CommChurn;
pub use clamr::Clamr;
pub use common::{bulk_bytes_for, paper_image_mb, AppKind};
pub use gromacs::Gromacs;
pub use hpcg::Hpcg;
pub use lulesh::Lulesh;
pub use minife::MiniFe;
pub use osu::{series, size_sweep, CollBench, OsuBandwidth, OsuCollLatency, OsuLatency, Series};

use mana_core::Workload;
use std::sync::Arc;

/// Instantiate an application by kind with benchmark-scale parameters:
/// `steps` outer iterations and a bulk footprint taken from the paper's
/// Figure 6 annotations for `nodes`.
pub fn make_app(kind: AppKind, steps: u64, nodes: u32, with_bulk: bool) -> Arc<dyn Workload> {
    let bulk = if with_bulk {
        bulk_bytes_for(kind, nodes)
    } else {
        0
    };
    match kind {
        AppKind::Gromacs => Arc::new(Gromacs {
            steps,
            bulk_bytes: bulk,
            ..Gromacs::default()
        }),
        AppKind::MiniFe => Arc::new(MiniFe {
            iters: steps,
            bulk_bytes: bulk,
            ..MiniFe::default()
        }),
        AppKind::Hpcg => Arc::new(Hpcg {
            iters: steps,
            bulk_bytes: bulk,
            ..Hpcg::default()
        }),
        AppKind::Clamr => Arc::new(Clamr {
            steps,
            bulk_bytes: bulk,
            ..Clamr::default()
        }),
        AppKind::Lulesh => Arc::new(Lulesh {
            steps,
            bulk_bytes: bulk,
            ..Lulesh::default()
        }),
    }
}

/// Small-scale variant for correctness tests (fast, no bulk footprint).
pub fn make_app_small(kind: AppKind, steps: u64) -> Arc<dyn Workload> {
    match kind {
        AppKind::Gromacs => Arc::new(Gromacs {
            steps,
            particles: 300,
            neighbors: 2,
            chunk: 48,
            bulk_bytes: 0,
        }),
        AppKind::MiniFe => Arc::new(MiniFe {
            iters: steps,
            rows: 2000,
            boundary: 64,
            bulk_bytes: 0,
            ns_per_row: 18,
        }),
        AppKind::Hpcg => Arc::new(Hpcg {
            iters: steps,
            rows: 2500,
            boundary: 96,
            bulk_bytes: 0,
        }),
        AppKind::Clamr => Arc::new(Clamr {
            steps,
            cells: 1500,
            rebalance_every: 5,
            bulk_bytes: 0,
        }),
        AppKind::Lulesh => Arc::new(Lulesh {
            steps,
            edge: 6,
            bulk_bytes: 0,
        }),
    }
}
