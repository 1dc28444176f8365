//! The metrics registry: counters, gauges, power-of-two histograms.
//!
//! Design constraints, in order:
//!
//! 1. **Off the sweep loop.** A registry is filled by harvesting the
//!    simulators' plain counter structs after a solve, never from inside
//!    a kernel, so every registry records and none needs an off switch.
//! 2. **Deterministic.** Keys live in `BTreeMap`s so iteration — and
//!    therefore every exported document — has one stable order.
//!    [`MetricsRegistry::merge`] is a plain sum over counters and
//!    histograms, so folding per-replica registries in replica order
//!    yields the same snapshot for any worker-thread count.
//! 3. **No wall-clock.** Nothing here reads a clock; histogram samples
//!    and span timestamps arrive from the simulator's cycle domain.

use std::collections::BTreeMap;

/// Number of finite histogram buckets. Bucket `k` has upper bound
/// `2^k` (so the finite bounds are `1, 2, 4, …, 2^63`); one extra
/// overflow bucket catches values above `2^63`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-shape histogram with power-of-two bucket bounds.
///
/// Bucket `k` counts observations `v` with `prev < v <= 2^k` (bucket 0
/// holds `v <= 1`, including zero); the overflow bucket holds
/// `v > 2^63`. The shape is fixed so two histograms always merge
/// bucket-by-bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS + 1],
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS + 1],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Index of the bucket that holds `v`.
    fn bucket_index(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            // Smallest k with v <= 2^k, i.e. ceil(log2(v)); v - 1 has
            // bit length k exactly when 2^(k-1) < v <= 2^k.
            (u64::BITS - (v - 1).leading_zeros()) as usize
        }
    }

    /// Upper bound (`le` label) of finite bucket `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k >= HISTOGRAM_BUCKETS`.
    pub fn bucket_bound(k: usize) -> u64 {
        assert!(k < HISTOGRAM_BUCKETS, "finite buckets only");
        1u64 << k
    }

    /// Records one observation.
    pub fn observe(&mut self, v: u64) {
        self.counts[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values (u128: 2^64 samples of u64::MAX fit).
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Per-bucket (non-cumulative) counts; index [`HISTOGRAM_BUCKETS`]
    /// is the overflow (`+Inf`) bucket.
    pub fn bucket_counts(&self) -> &[u64; HISTOGRAM_BUCKETS + 1] {
        &self.counts
    }

    /// Adds every bucket, the count, and the sum of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }
}

/// A registry of named counters, gauges, and histograms.
///
/// Names are expected to be `snake_case` with a subsystem prefix
/// (`sram_`, `l1_`, `dram_`, `machine_`, `solver_`, `recovery_`,
/// `ensemble_`, `workload_`, `energy_`); the JSON schema validator
/// checks coverage by those prefixes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the named monotonic counter (creating it at 0).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into the named histogram.
    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// The named histogram, if it has any observations.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Folds `other` into `self`: counters and histograms add; gauges
    /// take `other`'s value (last write wins — deterministic as long as
    /// callers merge in a fixed order, which the ensemble fold does by
    /// walking replicas in index order).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// Counters in sorted name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Histograms in sorted name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// True if nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_iterate_sorted() {
        let mut reg = MetricsRegistry::new();
        reg.counter_add("zeta", 1);
        reg.counter_add("alpha", 2);
        reg.counter_add("zeta", 3);
        let names: Vec<_> = reg.counters().collect();
        assert_eq!(names, vec![("alpha", 2), ("zeta", 4)]);
    }

    #[test]
    fn histogram_bucket_boundaries_are_powers_of_two() {
        // v lands in the bucket whose bound is the smallest 2^k >= v.
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 0);
        assert_eq!(Histogram::bucket_index(2), 1);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 2);
        assert_eq!(Histogram::bucket_index(5), 3);
        assert_eq!(Histogram::bucket_index(1 << 10), 10);
        assert_eq!(Histogram::bucket_index((1 << 10) + 1), 11);
        assert_eq!(Histogram::bucket_index(1u64 << 63), 63);
        assert_eq!(Histogram::bucket_index((1u64 << 63) + 1), HISTOGRAM_BUCKETS);
        assert_eq!(Histogram::bucket_index(u64::MAX), HISTOGRAM_BUCKETS);
        assert_eq!(Histogram::bucket_bound(0), 1);
        assert_eq!(Histogram::bucket_bound(13), 8192);
    }

    #[test]
    fn histogram_observe_and_merge() {
        let mut a = Histogram::new();
        a.observe(3);
        a.observe(4);
        a.observe(u64::MAX);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 7 + u128::from(u64::MAX));
        assert_eq!(a.bucket_counts()[2], 2);
        assert_eq!(a.bucket_counts()[HISTOGRAM_BUCKETS], 1);

        let mut b = Histogram::new();
        b.observe(4);
        b.merge(&a);
        assert_eq!(b.count(), 4);
        assert_eq!(b.bucket_counts()[2], 3);
    }

    #[test]
    fn merge_sums_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        a.counter_add("c", 1);
        a.observe("h", 2);
        a.gauge_set("g", 1.0);
        let mut b = MetricsRegistry::new();
        b.counter_add("c", 10);
        b.counter_add("only_b", 7);
        b.observe("h", 2);
        b.gauge_set("g", 2.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 11);
        assert_eq!(a.counter("only_b"), 7);
        assert_eq!(a.gauge("g"), Some(2.0));
        assert_eq!(a.histogram("h").expect("merged").count(), 2);
    }

    #[test]
    fn merge_is_order_insensitive_for_counters_and_histograms() {
        let mk = |c: u64, h: u64| {
            let mut r = MetricsRegistry::new();
            r.counter_add("c", c);
            r.observe("h", h);
            r
        };
        let parts = [mk(1, 8), mk(2, 9), mk(3, 1000)];
        let mut fwd = MetricsRegistry::new();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = MetricsRegistry::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
    }
}
