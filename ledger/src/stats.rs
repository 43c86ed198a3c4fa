//! Sample summaries and the regression-bound comparator.

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, bytes).
    Lower,
    /// Larger values are better (shares of work avoided).
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median, extremes and count of a sample; a p90 only when at least ten
/// samples lie beyond it, so no percentile is claimed for a handful of reps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median (mean of the two middle values for even `n`).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Nearest-rank 90th percentile, for `n >= 100`.
    pub p90: Option<f64>,
}

impl Summary {
    /// `(max - min) / median`: whether a difference between two medians of
    /// this metric is resolvable at all.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

/// Summarise `samples`; `None` for an empty sample.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let p90 = (n >= 100).then(|| v[(n * 9).div_ceil(10) - 1]);
    Some(Summary {
        n,
        median,
        min: v[0],
        max: v[n - 1],
        p90,
    })
}

/// Median of `samples`, 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// Share of `base` by which `new` is worse (negative when it is better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Whether `new` is no worse than `base` by more than `bound` (a share of
/// `base`). A bound of 0 admits only values that are not worse at all.
pub fn within_bound(better: Better, bound: f64, base: f64, new: f64) -> bool {
    worse_by(better, base, new) <= bound
}
