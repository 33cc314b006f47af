//! Fixed-bucket log-scale latency histograms.
//!
//! 256 buckets: values below 16 get exact unit buckets (0..=15); above
//! that, each power-of-two octave is split into 4 linear sub-buckets,
//! covering the full `u64` range. Relative quantile error is therefore
//! bounded by one sub-bucket width: at most 25 % of the value, and far
//! less once values exceed a few hundred nanoseconds.
//!
//! The live [`Histogram`] is all relaxed atomics (recordable from any
//! thread, `const`-constructible for statics); [`HistogramSnapshot`]
//! is the plain-data view that supports `merge` (across workers),
//! `diff` (windowed measurements), and quantile extraction.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets.
pub const HIST_BUCKETS: usize = 256;

/// Sentinel returned by [`HistogramSnapshot::quantile`] when the
/// snapshot carries no rankable information: it is empty, or every
/// sample landed in a single multi-value bucket (any point inside
/// that bucket's span would be a resolution artefact, not an order
/// statistic). Chosen as `2^53 - 1` so the value survives the f64
/// JSON wire format exactly and is far outside any plausible latency.
pub const QUANTILE_SENTINEL: u64 = (1 << 53) - 1;

/// Bucket index for a recorded value.
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros() as u64;
        let sub = (v >> (exp - 2)) & 3;
        (16 + (exp - 4) * 4 + sub) as usize
    }
}

/// Inclusive `(low, high)` value range covered by a bucket.
pub fn bucket_bounds(idx: usize) -> (u64, u64) {
    if idx < 16 {
        (idx as u64, idx as u64)
    } else {
        let b = (idx - 16) as u64;
        let exp = 4 + b / 4;
        let sub = b % 4;
        let width = 1u64 << (exp - 2);
        let low = (1u64 << exp) + sub * width;
        (low, low + (width - 1))
    }
}

/// A concurrent log-scale histogram. All operations are wait-free
/// relaxed atomics; `record` is a handful of instructions. There is no
/// separate count: a snapshot derives it from the buckets it copied,
/// so a snapshot racing `record` or `reset` is still well-formed.
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);

    /// An empty histogram; usable in `static` position.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [Self::ZERO; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (dst, b) in buckets.iter_mut().zip(&self.buckets) {
            *dst = b.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: buckets.iter().sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Zero every counter (between experiment cells).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

/// Plain-data histogram state: mergeable, diffable, queryable.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (see [`bucket_bounds`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Combine two snapshots (e.g. per-worker histograms into one).
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets;
        for (dst, src) in buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
        HistogramSnapshot {
            buckets,
            count: self.count + other.count,
            sum: self.sum + other.sum,
            max: self.max.max(other.max),
        }
    }

    /// Counts accumulated since `earlier` (saturating; `max` is kept
    /// from `self` since a maximum cannot be windowed exactly).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = self.buckets;
        for (dst, src) in buckets.iter_mut().zip(&earlier.buckets) {
            *dst = dst.saturating_sub(*src);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            max: self.max,
        }
    }

    /// Value at quantile `q` in `[0, 1]`: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)`,
    /// clamped to the observed maximum.
    ///
    /// Degenerate snapshots return [`QUANTILE_SENTINEL`] instead of a
    /// fabricated value: an empty snapshot has no order statistics at
    /// all, and a snapshot whose every sample fell into one
    /// multi-value bucket cannot resolve *any* point within that
    /// bucket (previously this returned the bucket's upper bound
    /// clamped to `max` — after a [`HistogramSnapshot::diff`] the
    /// retained `max` may lie outside the window, making that bound a
    /// bogus midpoint of values never recorded). Single-unit buckets
    /// (values below 16) are exact and still return the true value.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return QUANTILE_SENTINEL;
        }
        let mut nonempty = self.buckets.iter().enumerate().filter(|(_, &c)| c > 0);
        if let (Some((idx, _)), None) = (nonempty.next(), nonempty.next()) {
            let (lo, hi) = bucket_bounds(idx);
            if lo < hi {
                return QUANTILE_SENTINEL;
            }
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bounds(idx).1.min(self.max);
            }
        }
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Non-empty buckets as `(index, count)` pairs — the sparse wire
    /// form used by the JSON exporter.
    pub fn sparse(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }

    /// Rebuild from sparse `(index, count)` pairs plus the scalar
    /// fields. Indices out of range are rejected.
    pub fn from_sparse(
        pairs: &[(usize, u64)],
        count: u64,
        sum: u64,
        max: u64,
    ) -> Result<HistogramSnapshot, String> {
        let mut buckets = [0u64; HIST_BUCKETS];
        for &(idx, c) in pairs {
            if idx >= HIST_BUCKETS {
                return Err(format!("bucket index {idx} out of range"));
            }
            buckets[idx] += c;
        }
        Ok(HistogramSnapshot {
            buckets,
            count,
            sum,
            max,
        })
    }

    /// Internal consistency: bucket counts must add up to `count`.
    pub fn well_formed(&self) -> bool {
        self.buckets.iter().sum::<u64>() == self.count
    }
}

impl std::fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p95", &self.quantile(0.95))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_tile_the_u64_range() {
        // Every bucket's bounds invert back to its own index, and
        // consecutive buckets are contiguous.
        for idx in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(idx);
            assert_eq!(bucket_index(lo), idx, "low bound of bucket {idx}");
            assert_eq!(bucket_index(hi), idx, "high bound of bucket {idx}");
            if idx + 1 < HIST_BUCKETS {
                assert_eq!(bucket_bounds(idx + 1).0, hi + 1);
            }
        }
        assert_eq!(bucket_bounds(HIST_BUCKETS - 1).1, u64::MAX);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_bound_relative_error() {
        let h = Histogram::new();
        for v in [100u64, 200, 300, 1_000, 5_000, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert!(s.well_formed());
        // p100-ish never exceeds max; every quantile is within 25 % above
        // the true order statistic.
        assert!(s.quantile(1.0) <= s.max);
        let p50 = s.quantile(0.5);
        assert!((300..=375).contains(&p50), "p50 = {p50}");
    }

    #[test]
    fn merge_and_diff_are_inverse_ish() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in 0..100u64 {
            a.record(v * 7);
            b.record(v * 13);
        }
        let sa = a.snapshot();
        let sb = b.snapshot();
        let merged = sa.merge(&sb);
        assert_eq!(merged.count, 200);
        assert!(merged.well_formed());
        let back = merged.diff(&sb);
        assert_eq!(back.buckets, sa.buckets);
        assert_eq!(back.count, sa.count);
        assert_eq!(back.sum, sa.sum);
    }

    #[test]
    fn sparse_roundtrip() {
        let h = Histogram::new();
        for v in [1u64, 1, 2, 900, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        let rebuilt = HistogramSnapshot::from_sparse(&s.sparse(), s.count, s.sum, s.max).unwrap();
        assert_eq!(rebuilt, s);
        assert!(HistogramSnapshot::from_sparse(&[(9999, 1)], 1, 1, 1).is_err());
    }

    #[test]
    fn degenerate_quantiles_return_the_sentinel() {
        // Empty snapshot: no order statistic exists at any q.
        let empty = HistogramSnapshot::empty();
        for q in [0.0, 0.5, 0.95, 1.0] {
            assert_eq!(empty.quantile(q), QUANTILE_SENTINEL);
        }
        // Single multi-value bucket: 1000 lands in a bucket spanning
        // 896..=1023, so no point inside it is resolvable.
        let h = Histogram::new();
        for _ in 0..3 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.sparse().len(), 1);
        assert_eq!(s.quantile(0.5), QUANTILE_SENTINEL);
        assert_eq!(s.quantile(0.99), QUANTILE_SENTINEL);
        // Single unit bucket (values below 16) is exact, not bogus.
        let unit = Histogram::new();
        for _ in 0..3 {
            unit.record(5);
        }
        assert_eq!(unit.snapshot().quantile(0.95), 5);
        // A second bucket restores normal rank-based resolution.
        h.record(5);
        let s2 = h.snapshot();
        assert_ne!(s2.quantile(0.99), QUANTILE_SENTINEL);
        assert!(s2.quantile(0.99) <= s2.max);
        // The sentinel itself must survive the f64 JSON wire format.
        assert_eq!((QUANTILE_SENTINEL as f64) as u64, QUANTILE_SENTINEL);
    }

    /// Snapshots and resets racing `record` never see `count` disagree
    /// with the buckets.
    #[test]
    fn snapshots_racing_record_and_reset_stay_well_formed() {
        let h = Histogram::new();
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (h, stop) = (&h, &stop);
                s.spawn(move || {
                    let mut v = t;
                    while !stop.load(Ordering::Relaxed) {
                        h.record(v % 100_000);
                        v += 7;
                    }
                });
            }
            for i in 0..20_000 {
                assert!(h.snapshot().well_formed(), "torn snapshot at iteration {i}");
                if i % 16 == 0 {
                    h.reset();
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn reset_zeroes_everything() {
        let h = Histogram::new();
        h.record(5);
        h.reset();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.max, 0);
        assert_eq!(s, HistogramSnapshot::empty());
    }
}
