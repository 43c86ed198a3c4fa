//! Offline shim for the `criterion` crate.
//!
//! Implements the subset the `micro` bench target uses — `Criterion`,
//! `bench_function`, `benchmark_group` with `Throughput::Bytes`,
//! `Bencher::{iter, iter_batched}`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple
//! warmup-then-measure timer instead of criterion's statistical engine.
//! Reports nanoseconds per iteration (and, for a group with a throughput,
//! GB/s) on stdout.

use std::time::Instant;

/// Opaque value barrier (defeats constant folding).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Batch sizing hint (accepted for API compatibility; ignored).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Work done per iteration, so a rate is printed beside the time.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Benchmark driver handed to each registered function.
#[derive(Default)]
pub struct Criterion {
    _private: (),
}

/// Benchmarks sharing a name prefix and a [`Throughput`].
pub struct BenchmarkGroup {
    name: String,
    throughput: Option<Throughput>,
}

/// Per-benchmark measurement loop.
pub struct Bencher {
    ns_per_iter: f64,
}

/// Target measurement time per benchmark.
const TARGET_NS: u128 = 200_000_000;

/// Measure `f` and print one result line for `name`.
fn run(name: &str, throughput: Option<Throughput>, mut f: impl FnMut(&mut Bencher)) {
    let mut b = Bencher { ns_per_iter: 0.0 };
    f(&mut b);
    let rate = match throughput {
        // bytes per nanosecond = GB/s
        Some(Throughput::Bytes(n)) => format!(" {:>8.2} GB/s", n as f64 / b.ns_per_iter),
        None => String::new(),
    };
    println!("{name:<32} {:>12.1} ns/iter{rate}", b.ns_per_iter);
}

impl Criterion {
    /// Run `f` as the benchmark `name` and print its per-iteration time.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Criterion
    where
        F: FnMut(&mut Bencher),
    {
        run(name, None, f);
        self
    }

    /// Open a group of benchmarks named `name/<function>`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
        }
    }
}

impl BenchmarkGroup {
    /// Declare the work one iteration of the following benchmarks does.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut BenchmarkGroup {
        self.throughput = Some(throughput);
        self
    }

    /// Run `f` as `group/name`; prints its per-iteration time and, when a
    /// throughput was declared, the rate.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut BenchmarkGroup
    where
        F: FnMut(&mut Bencher),
    {
        run(&format!("{}/{name}", self.name), self.throughput, f);
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

impl Bencher {
    /// Measure `routine` called in a tight loop.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // Warmup + calibration: find an iteration count that fills the
        // measurement window, growing geometrically.
        let mut n: u64 = 1;
        loop {
            let t0 = Instant::now();
            for _ in 0..n {
                black_box(routine());
            }
            let elapsed = t0.elapsed().as_nanos();
            if elapsed >= TARGET_NS || n >= 1 << 24 {
                self.ns_per_iter = elapsed as f64 / n as f64;
                return;
            }
            n *= 4;
        }
    }

    /// Measure `routine` over inputs produced by `setup` (setup excluded
    /// from timing).
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        let mut n: u64 = 1;
        loop {
            let inputs: Vec<I> = (0..n).map(|_| setup()).collect();
            let t0 = Instant::now();
            for i in inputs {
                black_box(routine(i));
            }
            let elapsed = t0.elapsed().as_nanos();
            if elapsed >= TARGET_NS / 4 || n >= 1 << 20 {
                self.ns_per_iter = elapsed as f64 / n as f64;
                return;
            }
            n *= 4;
        }
    }
}

/// Group benchmark functions under one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running each group.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion::default();
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        c.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        let mut g = c.benchmark_group("group");
        g.throughput(Throughput::Bytes(16));
        g.bench_function("rated", |b| b.iter(|| [0u8; 16].iter().sum::<u8>()));
        g.finish();
    }
}
