//! Deterministic random-number derivation.
//!
//! Every source of randomness in the simulator (straggler factors, workload
//! initial conditions, adversarial checkpoint timing in tests) is derived
//! from a single root seed through stable mixing, so a simulation replays
//! bit-identically given the same seed. This property is load-bearing: the
//! correctness tests compare checksums between a native run, a run under
//! MANA, and a run that was checkpointed and restarted.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step — the standard seed-mixing finalizer.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a parent seed and a label.
///
/// Labels are small structured identifiers ("rank 7", "straggler", ...)
/// hashed with FNV-1a and mixed, so unrelated subsystems never share
/// correlated streams.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in label.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    splitmix64(parent ^ h)
}

/// Derive a child seed from a parent seed and an index.
pub fn derive_seed_idx(parent: u64, label: &str, idx: u64) -> u64 {
    splitmix64(derive_seed(parent, label) ^ splitmix64(idx))
}

/// Build a deterministic [`SmallRng`] for a labelled subsystem.
pub fn rng_for(parent: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(parent, label))
}

/// A deterministic multiplicative "straggler" factor in `[1.0, max]`.
///
/// The paper (section 3.4) observes that during a parallel checkpoint the
/// slowest rank's write time can be up to 4x the time of 90% of the ranks.
/// We reproduce that with a heavy-ish tailed deterministic draw: most ranks
/// land near 1.0, a small fraction far above.
pub fn straggler_factor(seed: u64, rank: u64, epoch: u64, max: f64) -> f64 {
    let u = splitmix64(seed ^ splitmix64(rank) ^ splitmix64(epoch.wrapping_mul(0x9E37)));
    // uniform in [0,1)
    let x = (u >> 11) as f64 / (1u64 << 53) as f64;
    // Heavy tail: (1-x)^(-0.25) is ~1 for most x, rising sharply near x=1.
    let f = (1.0 - x).powf(-0.25);
    f.min(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn derivation_is_stable() {
        assert_eq!(derive_seed(42, "rank"), derive_seed(42, "rank"));
        assert_ne!(derive_seed(42, "rank"), derive_seed(42, "node"));
        assert_ne!(derive_seed(42, "rank"), derive_seed(43, "rank"));
        assert_ne!(
            derive_seed_idx(42, "rank", 0),
            derive_seed_idx(42, "rank", 1)
        );
    }

    #[test]
    fn rngs_replay() {
        let mut a = rng_for(7, "x");
        let mut b = rng_for(7, "x");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn straggler_bounds() {
        let mut max_seen: f64 = 0.0;
        for rank in 0..4096 {
            let f = straggler_factor(99, rank, 0, 4.0);
            assert!((1.0..=4.0).contains(&f), "factor {f} out of range");
            max_seen = max_seen.max(f);
        }
        // The tail must actually produce stragglers well above the median.
        assert!(max_seen > 1.8, "no straggler tail observed: {max_seen}");
    }

    #[test]
    fn straggler_mostly_near_one() {
        let mut near = 0;
        for rank in 0..1000 {
            if straggler_factor(5, rank, 1, 4.0) < 1.5 {
                near += 1;
            }
        }
        // (1-x)^(-1/4) < 1.5 iff x < 1 - 1.5^-4 ≈ 0.80.
        assert!(near > 750, "too many stragglers: only {near}/1000 near 1.0");
    }

    #[test]
    fn splitmix_known_nonzero() {
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }
}
