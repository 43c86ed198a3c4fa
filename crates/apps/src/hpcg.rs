//! HPCG-like proxy: preconditioned CG with a multigrid-flavoured smoother
//! (three smoothing levels per iteration: three halo exchanges and three
//! charged stencil sweeps, with the product computed once because later
//! levels see the same `p` and halo; the crate docs' kernel rule). Heavier
//! compute and more halo exchanges than miniFE; the same near-zero MANA
//! overhead profile, but the largest memory footprint of the suite
//! (2 GB/rank images in Figure 6).

use crate::minife::run_cg;
use mana_core::{AppEnv, Workload};

/// Workload configuration.
pub struct Hpcg {
    /// CG iterations.
    pub iters: u64,
    /// Rows per rank.
    pub rows: usize,
    /// Boundary elements per neighbor exchange.
    pub boundary: usize,
    /// Bulk footprint bytes.
    pub bulk_bytes: u64,
}

impl Default for Hpcg {
    fn default() -> Self {
        Hpcg {
            iters: 25,
            rows: 80_000,
            boundary: 768,
            bulk_bytes: 0,
        }
    }
}

impl Workload for Hpcg {
    fn name(&self) -> &'static str {
        "hpcg"
    }

    fn run(&self, env: &mut AppEnv) {
        // Three smoothing levels model the symmetric Gauss-Seidel + MG
        // structure: 3 halo exchanges + 3 charged sweeps per iteration.
        run_cg(
            env,
            "hpcg",
            self.iters,
            self.rows,
            self.boundary,
            self.bulk_bytes,
            22,
            3,
        )
    }
}
