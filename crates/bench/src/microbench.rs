//! Minimal wall-clock micro-benchmark harness — the in-house stand-in for
//! Criterion, keeping bench targets hermetic (no registry access).
//!
//! The API mirrors the small slice of Criterion the benches use
//! (`bench_function` + `b.iter(..)`), so a target reads the same either
//! way: each sample invokes the closure once, the closure times the work
//! it wraps with `iter`, and the harness prints median/min/max across
//! samples. Each benchmark's median and quartiles are kept for
//! [`Bench::ledger_json`], which renders them for a committed ledger.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// A benchmark runner: collects `sample_size` timed samples per
/// registered function, prints a summary line and keeps its quartiles.
pub struct Bench {
    sample_size: u32,
    rows: Vec<Row>,
}

/// One benchmark's seconds per iteration across its timed samples.
struct Row {
    name: String,
    median_s: f64,
    q1_s: f64,
    q3_s: f64,
    samples: usize,
}

impl Default for Bench {
    fn default() -> Bench {
        Bench::new()
    }
}

impl Bench {
    /// Creates a runner with the default sample count (20).
    pub fn new() -> Bench {
        Bench { sample_size: 20, rows: Vec::new() }
    }

    /// Sets how many timed samples each benchmark collects.
    pub fn sample_size(mut self, n: u32) -> Bench {
        self.sample_size = n.max(1);
        self
    }

    /// Runs one benchmark: a warm-up invocation, then `sample_size` timed
    /// samples, then a `name ... median [min .. max]` report.
    pub fn bench_function<F: FnMut(&mut Sampler)>(&mut self, name: &str, mut f: F) {
        let mut warmup = Sampler::new();
        f(&mut warmup);

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.sample_size as usize);
        for _ in 0..self.sample_size {
            let mut sampler = Sampler::new();
            f(&mut sampler);
            if sampler.iters > 0 {
                per_iter.push(sampler.total.as_secs_f64() / sampler.iters as f64);
            }
        }
        per_iter.sort_by(f64::total_cmp);
        if per_iter.is_empty() {
            println!("{name:<40} (no samples)");
            return;
        }
        let n = per_iter.len();
        let median = per_iter[n / 2];
        println!(
            "{name:<40} {:>12} [{} .. {}]",
            format_time(median),
            format_time(per_iter[0]),
            format_time(per_iter[n - 1]),
        );
        self.rows.push(Row {
            name: name.to_string(),
            median_s: median,
            q1_s: per_iter[n / 4],
            q3_s: per_iter[3 * n / 4],
            samples: n,
        });
    }

    /// The rows as a JSON ledger (nanoseconds per iteration), headed by
    /// the `bench` name and the host's core count.
    pub fn ledger_json(&self, bench: &str) -> String {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ns = |s: f64| format!("{:.1}", s * 1e9);
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"name\": {:?}, \"median_ns\": {}, \"q1_ns\": {}, \"q3_ns\": {}, \
                     \"samples\": {}}}",
                    r.name,
                    ns(r.median_s),
                    ns(r.q1_s),
                    ns(r.q3_s),
                    r.samples
                )
            })
            .collect();
        format!(
            "{{\n  \"bench\": {bench:?},\n  \"cores\": {cores},\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }
}

/// Handed to each benchmark closure; [`Sampler::iter`] times one
/// execution of the wrapped work.
pub struct Sampler {
    total: Duration,
    iters: u64,
}

impl Sampler {
    fn new() -> Sampler {
        Sampler { total: Duration::ZERO, iters: 0 }
    }

    /// Times one execution of `f`, keeping its result opaque to the
    /// optimizer.
    pub fn iter<T>(&mut self, mut f: impl FnMut() -> T) {
        let start = Instant::now();
        let value = f();
        self.total += start.elapsed();
        self.iters += 1;
        black_box(value);
    }
}

fn format_time(seconds: f64) -> String {
    if seconds >= 1.0 {
        format!("{seconds:.3} s")
    } else if seconds >= 1e-3 {
        format!("{:.3} ms", seconds * 1e3)
    } else if seconds >= 1e-6 {
        format!("{:.3} µs", seconds * 1e6)
    } else {
        format!("{:.1} ns", seconds * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_counts_iterations() {
        let mut s = Sampler::new();
        s.iter(|| 1 + 1);
        s.iter(|| 2 + 2);
        assert_eq!(s.iters, 2);
    }

    #[test]
    fn bench_function_runs_all_samples() {
        let mut calls = 0u32;
        Bench::new().sample_size(5).bench_function("noop", |b| {
            calls += 1;
            b.iter(|| ());
        });
        // 1 warm-up + 5 samples.
        assert_eq!(calls, 6);
    }

    #[test]
    fn rows_keep_median_and_quartiles() {
        let mut bench = Bench::new().sample_size(8);
        let mut k = 0u64;
        bench.bench_function("spin/a", |b| {
            k += 1;
            b.iter(|| (0..k * 1000).fold(0u64, |acc, v| acc ^ black_box(v)));
        });
        assert_eq!(bench.rows.len(), 1);
        let row = &bench.rows[0];
        assert_eq!((row.name.as_str(), row.samples), ("spin/a", 8));
        assert!(row.q1_s <= row.median_s && row.median_s <= row.q3_s);
        let json = bench.ledger_json("kernels");
        assert!(json.starts_with("{\n  \"bench\": \"kernels\",\n  \"cores\": "));
        assert!(json.contains("{\"name\": \"spin/a\", \"median_ns\": "));
        assert!(json.contains("\"samples\": 8}"));
    }

    #[test]
    fn time_formatting_scales() {
        assert!(format_time(2.5).ends_with(" s"));
        assert!(format_time(2.5e-3).ends_with(" ms"));
        assert!(format_time(2.5e-6).ends_with(" µs"));
        assert!(format_time(2.5e-9).ends_with(" ns"));
    }
}
