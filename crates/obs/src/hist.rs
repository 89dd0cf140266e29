//! Log-bucketed (HDR-style) latency histograms with exact merge laws.
//!
//! A [`LatencyHistogram`] stores per-bucket packet counts over a **fixed
//! log-linear bucket layout**: values below [`SUB_BUCKETS`] ns get one
//! bucket each (exact), and every further power-of-two range is split
//! into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative bucket
//! width — and therefore the quantile error — at `1/SUB_BUCKETS`
//! (3.125%). Recording is O(1) (a leading-zeros count and an index add),
//! and every aggregate is an integer, so [`LatencyHistogram::merge`] is
//! **bit-exact commutative, associative, and has the empty histogram as
//! identity** — the same algebraic laws `RuntimeProfile::merge` obeys,
//! which is what lets sharded datapaths merge per-worker histograms into
//! a result that is identical for any worker count.

/// log2 of the number of linear sub-buckets per power-of-two range.
pub const SUB_BUCKET_BITS: u32 = 5;

/// Linear sub-buckets per power-of-two range; also the bound below which
/// every value gets its own (exact) bucket.
pub const SUB_BUCKETS: u64 = 1 << SUB_BUCKET_BITS;

/// Total buckets in the fixed layout, covering the full `u64` range of
/// nanosecond values: `SUB_BUCKETS` exact buckets plus `SUB_BUCKETS` per
/// remaining octave.
pub const NUM_BUCKETS: usize =
    (SUB_BUCKETS + (63 - SUB_BUCKET_BITS as u64 + 1) * SUB_BUCKETS) as usize;

/// The bucket index a nanosecond value falls into.
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // bit length - 1; >= SUB_BUCKET_BITS
    let block = (e - SUB_BUCKET_BITS + 1) as u64;
    let sub = (v >> (e - SUB_BUCKET_BITS)) - SUB_BUCKETS;
    (block * SUB_BUCKETS + sub) as usize
}

/// The smallest nanosecond value mapping to `index`.
pub fn bucket_lower(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_BUCKETS {
        return index;
    }
    let block = index >> SUB_BUCKET_BITS;
    let sub = index & (SUB_BUCKETS - 1);
    (SUB_BUCKETS + sub) << (block - 1)
}

/// The largest nanosecond value mapping to `index`.
pub fn bucket_upper(index: usize) -> u64 {
    if index + 1 < NUM_BUCKETS {
        bucket_lower(index + 1) - 1
    } else {
        u64::MAX
    }
}

/// A mergeable latency histogram over nanosecond values.
///
/// ```
/// use pipeleon_obs::LatencyHistogram;
/// let mut h = LatencyHistogram::new();
/// for v in [12.0, 100.0, 101.0, 5000.0] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 4);
/// // Values below 32 ns are exact; larger ones land within 3.125%.
/// assert_eq!(h.quantile(0.0), Some(12));
/// let p99 = h.quantile(0.99).unwrap() as f64;
/// assert!((p99 - 5000.0).abs() / 5000.0 <= 1.0 / 32.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (the identity of [`LatencyHistogram::merge`]).
    pub fn new() -> Self {
        Self {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        }
    }

    /// Records one latency sample, in nanoseconds. Negative and NaN
    /// inputs clamp to 0; values beyond `u64::MAX` saturate.
    pub fn record(&mut self, ns: f64) {
        let v = if ns.is_finite() && ns > 0.0 {
            ns.round() as u64 // saturating float->int cast
        } else {
            0
        };
        self.record_ns(v);
    }

    /// Records one wall-clock duration, saturating to `u64` nanoseconds.
    /// The convenience entry point for end-to-end (ingest→egress) timing,
    /// where callers hold `std::time::Duration`s from `Instant` pairs.
    pub fn record_duration(&mut self, d: core::time::Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one latency sample as an integer nanosecond value.
    pub fn record_ns(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum_ns += v as u128;
        self.min_ns = self.min_ns.min(v);
        self.max_ns = self.max_ns.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// Smallest recorded value; `None` if empty.
    pub fn min_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min_ns)
    }

    /// Largest recorded value; `None` if empty.
    pub fn max_ns(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max_ns)
    }

    /// Mean of all recorded values; `None` if empty.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum_ns as f64 / self.count as f64)
    }

    /// Nearest-rank quantile, `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the sample of rank `ceil(q * count)` (clamped into
    /// the recorded min/max). The exact sample of that rank lies in the
    /// same bucket, so the error is bounded by one bucket width —
    /// `1/SUB_BUCKETS` relative (3.125%), exact below [`SUB_BUCKETS`] ns.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_upper(i).min(self.max_ns).max(bucket_lower(i)));
            }
        }
        Some(self.max_ns) // unreachable if counters are consistent
    }

    /// Merges another histogram into this one. Bit-exact: commutative,
    /// associative, with [`LatencyHistogram::new`] as identity — all
    /// aggregates are integer sums/mins/maxes over the same fixed layout.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
    }

    /// Samples recorded in buckets entirely at or below `v` nanoseconds
    /// (the cumulative count Prometheus `le` buckets report; a bucket
    /// straddling `v` is *not* included, so the result underestimates by
    /// at most one bucket).
    pub fn count_le(&self, v: u64) -> u64 {
        self.counts
            .iter()
            .enumerate()
            .take_while(|(i, _)| bucket_upper(*i) <= v)
            .map(|(_, &c)| c)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_monotone() {
        // Every bucket's upper is one below the next bucket's lower, and
        // index(v) inverts lower/upper at every boundary.
        for i in 0..NUM_BUCKETS - 1 {
            assert_eq!(bucket_upper(i) + 1, bucket_lower(i + 1), "bucket {i}");
            assert_eq!(bucket_index(bucket_lower(i)), i);
            assert_eq!(bucket_index(bucket_upper(i)), i);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(0), 0);
    }

    #[test]
    fn relative_width_is_bounded() {
        for v in [33u64, 100, 1000, 123_456, 1 << 40, u64::MAX / 3] {
            let i = bucket_index(v);
            let width = (bucket_upper(i) - bucket_lower(i)) as f64;
            assert!(
                width / bucket_lower(i) as f64 <= 1.0 / SUB_BUCKETS as f64,
                "bucket {i} for {v} too wide"
            );
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_BUCKETS {
            h.record_ns(v);
        }
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(1.0), Some(SUB_BUCKETS - 1));
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(SUB_BUCKETS - 1));
    }

    #[test]
    fn merge_is_exact() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..1000u64 {
            let v = i * 37 % 50_000;
            if i % 2 == 0 { &mut a } else { &mut b }.record_ns(v);
            whole.record_ns(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "commutative");
        assert_eq!(ab, whole, "partition-invariant");
        let mut id = a.clone();
        id.merge(&LatencyHistogram::new());
        assert_eq!(id, a, "identity");
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean_ns(), None);
        assert_eq!(h.min_ns(), None);
        assert_eq!(h.max_ns(), None);
    }

    #[test]
    fn record_clamps_pathological_floats() {
        let mut h = LatencyHistogram::new();
        h.record(-5.0);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1e30); // saturates to u64::MAX
        assert_eq!(h.count(), 4);
        assert_eq!(h.min_ns(), Some(0));
        assert_eq!(h.max_ns(), Some(u64::MAX));
    }

    #[test]
    fn count_le_is_cumulative() {
        let mut h = LatencyHistogram::new();
        for v in [10u64, 20, 100, 200, 100_000] {
            h.record_ns(v);
        }
        assert_eq!(h.count_le(10), 1);
        assert_eq!(h.count_le(31), 2);
        assert_eq!(h.count_le(u64::MAX), 5);
        let mut prev = 0;
        for e in [1u64, 32, 64, 1024, 1 << 20, u64::MAX] {
            let c = h.count_le(e);
            assert!(c >= prev, "count_le must be monotone");
            prev = c;
        }
    }
}
