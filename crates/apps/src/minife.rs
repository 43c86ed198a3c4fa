//! miniFE-like implicit finite-element proxy: a conjugate-gradient solve
//! on a 1-D-partitioned sparse operator.
//!
//! Communication profile: one boundary halo exchange (few-KB messages with
//! two ring neighbors) and two scalar allreduces (the CG dot products) per
//! iteration, against a large SpMV compute phase — the low call rate and
//! heavy compute give miniFE its ~0% MANA overhead in Figure 2/3.

use mana_core::{AppEnv, Workload};
use mana_mpi::{ReduceOp, SrcSpec, TagSpec};
use mana_sim::time::SimDuration;

/// Workload configuration.
pub struct MiniFe {
    /// CG iterations.
    pub iters: u64,
    /// Matrix rows per rank.
    pub rows: usize,
    /// Boundary elements exchanged with each ring neighbor.
    pub boundary: usize,
    /// Bulk footprint bytes.
    pub bulk_bytes: u64,
    /// Compute nanoseconds per row per SpMV (method weight).
    pub ns_per_row: u64,
}

impl Default for MiniFe {
    fn default() -> Self {
        MiniFe {
            iters: 30,
            rows: 60_000,
            boundary: 512,
            bulk_bytes: 0,
            ns_per_row: 18,
        }
    }
}

impl Workload for MiniFe {
    fn name(&self) -> &'static str {
        "minife"
    }

    fn run(&self, env: &mut AppEnv) {
        run_cg(
            env,
            "minife",
            self.iters,
            self.rows,
            self.boundary,
            self.bulk_bytes,
            self.ns_per_row,
            1,
        )
    }
}

/// Shared CG skeleton (miniFE and HPCG differ in smoothing depth and
/// weights).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_cg(
    env: &mut AppEnv,
    label: &str,
    iters: u64,
    rows: usize,
    boundary: usize,
    bulk_bytes: u64,
    ns_per_row: u64,
    smooth_levels: u32,
) {
    assert!(
        (1..=rows).contains(&boundary),
        "{label}: boundary {boundary} must be between 1 and rows ({rows})"
    );
    let world = env.world();
    let n = env.nranks();
    let me = env.rank();
    let left = (me + n - 1) % n;
    let right = (me + 1) % n;

    let x = env.alloc_f64("x", rows);
    let r = env.alloc_f64("r", rows);
    let p = env.alloc_f64("p", rows);
    let q = env.alloc_f64("q", rows);
    let halo = env.alloc_f64("halo", 2 * boundary);
    let scal = env.alloc_f64("scalars", 6); // [iter, rho, pq, alpha, beta, resid]
    if bulk_bytes > 0 {
        env.alloc_bulk(&format!("{label}-mesh"), bulk_bytes);
    }

    let seed = env.seed();
    env.work(SimDuration::micros(100), |m| {
        m.with2_mut(r, p, |rr, pp| {
            let mut s = mana_sim::rng::derive_seed_idx(seed, label, u64::from(me));
            for i in 0..rr.len() {
                s = mana_sim::rng::splitmix64(s);
                rr[i] = ((s >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
                pp[i] = rr[i];
            }
        });
    });

    let spmv_time = SimDuration::nanos(ns_per_row * rows as u64);
    let axpy_time = SimDuration::nanos(3 * rows as u64);

    loop {
        let iter = env.peek(scal, |s| s[0]) as u64;
        if iter >= iters {
            break;
        }
        env.begin_step();

        for level in 0..smooth_levels {
            let tag = 20 + level as i32;
            // Halo exchange of p's boundaries with ring neighbors.
            if n > 1 {
                let s1 = env.isend_arr(world, p, 0..boundary, left, tag);
                let s2 = env.isend_arr(world, p, rows - boundary..rows, right, tag);
                let r1 = env.irecv_into(world, halo, 0, SrcSpec::Rank(left), TagSpec::Tag(tag));
                let r2 = env.irecv_into(
                    world,
                    halo,
                    boundary,
                    SrcSpec::Rank(right),
                    TagSpec::Tag(tag),
                );
                env.wait_slot(r1);
                env.wait_slot(r2);
                env.wait_slot(s1);
                env.wait_slot(s2);
            }
            // q = A p (tridiagonal-ish stencil with halo boundaries). Only
            // level 0 computes it: nothing in this loop writes p and every
            // level receives the same halo, so a later level's product is
            // the bits q already holds (even after a restart between
            // levels, which restores level 0's q). Every level still opens
            // the windows and charges the sweep.
            env.work(spmv_time, |m| {
                m.with3_mut(p, q, halo, |pv, qv, hv| {
                    let (lo, hi) = (hv[0], hv[hv.len() / 2]);
                    if level == 0 {
                        stencil(pv, qv, lo, hi);
                    } else if cfg!(debug_assertions) {
                        let mut again = vec![0.0; pv.len()];
                        stencil(pv, &mut again, lo, hi);
                        assert!(
                            qv.iter()
                                .map(|v| v.to_bits())
                                .eq(again.iter().map(|v| v.to_bits())),
                            "{label}: smoothing level {level} would change q"
                        );
                    }
                });
            });
        }

        // rho = r·r ; pq = p·q (two local dots, one fused allreduce pair).
        env.work(axpy_time, |m| {
            m.with3_mut(r, q, scal, |rv, qv, s| {
                // p·q approximated over q and r windows deterministically.
                (s[1], s[2]) = dot_pair(rv, qv);
            });
        });
        env.allreduce_arr(world, scal, ReduceOp::Sum);
        env.work(SimDuration::micros(2), |m| {
            m.with_mut(scal, |s| {
                s[0] = (s[0] / f64::from(n)).round();
                s[1] /= f64::from(n).max(1.0);
                let denom = if s[2].abs() < 1e-300 { 1.0 } else { s[2] };
                s[3] = s[1] / denom; // alpha
            });
        });

        // x += alpha p ; r -= alpha q ; p = r + beta p.
        env.work(axpy_time, |m| {
            m.with3_mut(x, p, scal, |xv, pv, s| {
                axpy(xv, s[3].clamp(-10.0, 10.0), pv);
            });
        });
        env.work(axpy_time, |m| {
            m.with3_mut(r, q, scal, |rv, qv, s| {
                s[5] = update_residual(rv, s[3].clamp(-10.0, 10.0), qv);
            });
        });
        env.work(axpy_time, |m| {
            m.with3_mut(p, r, scal, |pv, rv, s| {
                update_direction(pv, rv, 0.5);
                s[0] += 1.0;
            });
        });
    }
}

// The CG kernels. Each computes every output with the operations of the
// plain indexed loop, in the same order (the crate docs' kernel rule; the
// tests below compare them bit for bit), in a form the compiler can
// vectorise: no per-element branch, no bounds check.

/// `q = A p` for the tridiagonal stencil `2.5 p[i] - p[i-1] - p[i+1]`,
/// with `lo` / `hi` standing in for `p[-1]` / `p[len]` (the halo).
fn stencil(pv: &[f64], qv: &mut [f64], lo: f64, hi: f64) {
    let len = pv.len();
    match len {
        0 => {}
        1 => qv[0] = 2.5 * pv[0] - lo - hi,
        _ => {
            qv[0] = 2.5 * pv[0] - lo - pv[1];
            for (q, w) in qv[1..len - 1].iter_mut().zip(pv.windows(3)) {
                *q = 2.5 * w[1] - w[0] - w[2];
            }
            qv[len - 1] = 2.5 * pv[len - 1] - pv[len - 2] - hi;
        }
    }
}

/// `(Σ r·r, Σ q·r)`: two independent left folds from `-0.0`, the start
/// `Iterator::sum::<f64>` folds from, so each equals its own `sum()`.
fn dot_pair(rv: &[f64], qv: &[f64]) -> (f64, f64) {
    let (mut rr, mut qr) = (-0.0, -0.0);
    for (r, q) in rv.iter().zip(qv) {
        rr += r * r;
        qr += q * r;
    }
    (rr, qr)
}

/// `x += a p`.
fn axpy(xv: &mut [f64], a: f64, pv: &[f64]) {
    for (x, p) in xv.iter_mut().zip(pv) {
        *x += a * p;
    }
}

/// `r -= a q`, returning `Σ r·r` of the updated `r` folded from `0.0`.
fn update_residual(rv: &mut [f64], a: f64, qv: &[f64]) -> f64 {
    let mut resid = 0.0;
    for (r, q) in rv.iter_mut().zip(qv) {
        *r -= a * q;
        resid += *r * *r;
    }
    resid
}

/// `p = r + beta p`.
fn update_direction(pv: &mut [f64], rv: &[f64], beta: f64) {
    for (p, r) in pv.iter_mut().zip(rv) {
        *p = r + beta * *p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mana_sim::rng::splitmix64;

    // Each kernel's indexed loop as `run_cg` wrote it before the kernels
    // were factored out: the bitwise reference.

    fn stencil_ref(pv: &[f64], qv: &mut [f64], hv: &[f64]) {
        let len = pv.len();
        for i in 0..len {
            let lo = if i == 0 { hv[0] } else { pv[i - 1] };
            let hi = if i + 1 == len {
                hv[hv.len() / 2]
            } else {
                pv[i + 1]
            };
            qv[i] = 2.5 * pv[i] - lo - hi;
        }
    }

    fn dots_ref(rv: &[f64], qv: &[f64]) -> (f64, f64) {
        (
            rv.iter().map(|v| v * v).sum(),
            qv.iter().zip(rv.iter()).map(|(a, b)| a * b).sum(),
        )
    }

    fn axpy_ref(xv: &mut [f64], a: f64, pv: &[f64]) {
        for i in 0..xv.len() {
            xv[i] += a * pv[i];
        }
    }

    fn update_residual_ref(rv: &mut [f64], a: f64, qv: &[f64]) -> f64 {
        let mut resid = 0.0;
        for i in 0..rv.len() {
            rv[i] -= a * qv[i];
            resid += rv[i] * rv[i];
        }
        resid
    }

    fn update_direction_ref(pv: &mut [f64], rv: &[f64], beta: f64) {
        for i in 0..pv.len() {
            pv[i] = rv[i] + beta * pv[i];
        }
    }

    /// Bitwise equality, except that any NaN equals any NaN: Rust does not
    /// specify the sign or payload of a NaN that arithmetic produces.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_same(what: &str, a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                same(*x, *y),
                "{what}[{i}]: {x:e} ({:#x}) vs {y:e} ({:#x})",
                x.to_bits(),
                y.to_bits()
            );
        }
    }

    const SPECIALS: [f64; 8] = [
        0.0,
        -0.0,
        5e-324,
        -2.5e-310,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// Seeded values spread over 2^±40 (so sums round), one in eight drawn
    /// from `SPECIALS` when `specials` is set.
    struct Values(u64);

    impl Values {
        fn next_u64(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }

        fn value(&mut self, specials: bool) -> f64 {
            let u = self.next_u64();
            if specials && u.is_multiple_of(8) {
                return SPECIALS[(u >> 8) as usize % SPECIALS.len()];
            }
            let unit = (u >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            unit * 2f64.powi((self.next_u64() % 81) as i32 - 40)
        }

        fn vec(&mut self, len: usize, specials: bool) -> Vec<f64> {
            (0..len).map(|_| self.value(specials)).collect()
        }
    }

    /// 0 to 4, 4097, and twenty seeded lengths below 600.
    fn lengths(v: &mut Values) -> Vec<usize> {
        let mut out = vec![0, 1, 2, 3, 4, 4097];
        out.extend((0..20).map(|_| (v.next_u64() % 600) as usize));
        out
    }

    /// Run `check` over every length, with and without special values.
    fn sweep(seed: u64, mut check: impl FnMut(&mut Values, usize, bool)) {
        let mut v = Values(seed);
        for len in lengths(&mut v) {
            for specials in [false, true] {
                check(&mut v, len, specials);
            }
        }
    }

    #[test]
    fn stencil_matches_the_indexed_loop_bit_for_bit() {
        sweep(1, |v, len, specials| {
            let pv = v.vec(len, specials);
            let boundary = 1 + (v.next_u64() % 4) as usize;
            let hv = v.vec(2 * boundary, specials);
            let (mut want, mut got) = (v.vec(len, false), v.vec(len, false));
            stencil_ref(&pv, &mut want, &hv);
            stencil(&pv, &mut got, hv[0], hv[hv.len() / 2]);
            assert_same(&format!("stencil len {len}"), &got, &want);
        });
    }

    #[test]
    fn dot_pair_matches_two_sums_bit_for_bit() {
        sweep(2, |v, len, specials| {
            let (rv, qv) = (v.vec(len, specials), v.vec(len, specials));
            let (want, got) = (dots_ref(&rv, &qv), dot_pair(&rv, &qv));
            assert_same(
                &format!("dots len {len}"),
                &[got.0, got.1],
                &[want.0, want.1],
            );
        });
    }

    /// Every `q·r` is `-0.0`, so the sum is `-0.0` only if the fold starts
    /// from `-0.0`, as `Iterator::sum::<f64>` does.
    #[test]
    fn dot_pair_folds_from_negative_zero() {
        for len in [0, 1, 2, 4097] {
            let rv: Vec<f64> = (0..len).map(|i| -1.0 - i as f64).collect();
            let qv = vec![0.0; len];
            let ((rr, qr), want) = (dot_pair(&rv, &qv), dots_ref(&rv, &qv));
            assert_eq!(qr.to_bits(), (-0.0f64).to_bits(), "len {len}");
            assert_same(
                &format!("-0.0 dots len {len}"),
                &[rr, qr],
                &[want.0, want.1],
            );
        }
    }

    #[test]
    fn axpy_matches_the_indexed_loop_bit_for_bit() {
        sweep(3, |v, len, specials| {
            let (pv, a) = (v.vec(len, specials), v.value(specials));
            let mut want = v.vec(len, specials);
            let mut got = want.clone();
            axpy_ref(&mut want, a, &pv);
            axpy(&mut got, a, &pv);
            assert_same(&format!("axpy len {len}"), &got, &want);
        });
    }

    #[test]
    fn update_residual_matches_the_indexed_loop_bit_for_bit() {
        sweep(4, |v, len, specials| {
            let (qv, a) = (v.vec(len, specials), v.value(specials));
            let mut want = v.vec(len, specials);
            let mut got = want.clone();
            let want_resid = update_residual_ref(&mut want, a, &qv);
            let got_resid = update_residual(&mut got, a, &qv);
            assert_same(&format!("residual len {len}"), &got, &want);
            assert_same(&format!("resid len {len}"), &[got_resid], &[want_resid]);
        });
    }

    #[test]
    fn update_direction_matches_the_indexed_loop_bit_for_bit() {
        sweep(5, |v, len, specials| {
            let (rv, beta) = (v.vec(len, specials), v.value(specials));
            let mut want = v.vec(len, specials);
            let mut got = want.clone();
            update_direction_ref(&mut want, &rv, beta);
            update_direction(&mut got, &rv, beta);
            assert_same(&format!("direction len {len}"), &got, &want);
        });
    }
}
