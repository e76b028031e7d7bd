//! The arithmetic the benchmark reports with: quantiles and the tail
//! rule, output digests, busy fractions and span self time.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of samples that are
/// already sorted ascending.
///
/// # Panics
/// Panics on an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, 0.5)
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_LADDER_PCT: [u64; 4] = [99, 95, 90, 75];

/// The highest ladder percentile that still has at least ten of `n`
/// samples beyond it; the median when even p75 has fewer.
pub fn tail_pct(n: usize) -> u64 {
    TAIL_LADDER_PCT
        .iter()
        .copied()
        .find(|&p| n as u64 * (100 - p) / 100 >= 10)
        .unwrap_or(50)
}

/// A timing distribution as the benchmark reports it: the median, the
/// tail percentile the sample count supports, and the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Dist {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Value at [`tail_pct`]`(n)`.
    pub tail: f64,
    /// Which percentile `tail` is.
    pub tail_pct: u64,
    /// Sum of all samples.
    pub total: f64,
}

impl Dist {
    /// Summarizes `samples` (any order).
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Self {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = tail_pct(v.len());
        Self {
            n: v.len(),
            p50: quantile_sorted(&v, 0.5),
            tail: quantile_sorted(&v, tail_pct as f64 / 100.0),
            tail_pct,
            total: v.iter().sum(),
        }
    }
}

/// 64-bit FNV-1a digest: the stored fingerprint of a workload's report
/// JSON on the recorded seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of one byte string.
    pub fn of(bytes: &[u8]) -> Self {
        let mut d = Self::default();
        d.update(bytes);
        d
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Share of `threads` workers' capacity over `wall_us` that `busy_us` of
/// serial work fills.
pub fn busy_frac(busy_us: f64, threads: usize, wall_us: f64) -> f64 {
    busy_us / (threads as f64 * wall_us)
}

/// A span's self time: its duration minus the part of it that the union
/// of its children's intervals covers (children are clipped to the span;
/// overlapping children count once). Intervals are `[start, end)`.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (lo, hi) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    hi.saturating_sub(lo) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&v, 1.0), 4.0);
        assert_eq!(quantile_sorted(&v, 0.5), 2.5);
        assert!((quantile_sorted(&v, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_pct(1000), 99);
        assert_eq!(tail_pct(999), 95);
        assert_eq!(tail_pct(200), 95);
        assert_eq!(tail_pct(199), 90);
        assert_eq!(tail_pct(100), 90);
        assert_eq!(tail_pct(40), 75);
        assert_eq!(tail_pct(39), 50);
        assert_eq!(tail_pct(0), 50);
        for n in [40, 100, 200, 1000, 5000] {
            let p = tail_pct(n);
            assert!(n as u64 * (100 - p) / 100 >= 10, "{n} samples at p{p}");
        }
    }

    #[test]
    fn dist_summarizes_unsorted_samples() {
        let samples: Vec<f64> = (0..100).rev().map(f64::from).collect();
        let d = Dist::of(&samples);
        assert_eq!(d.n, 100);
        assert_eq!(d.p50, 49.5);
        assert_eq!(d.tail_pct, 90);
        assert!((d.tail - 89.1).abs() < 1e-9);
        assert_eq!(d.total, 4950.0);
    }

    #[test]
    fn digest_is_fnv1a() {
        // Reference values of 64-bit FNV-1a.
        assert_eq!(Digest::of(b"").value(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Digest::of(b"a").value(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Digest::of(b"foobar").value(), 0x8594_4171_f739_67e8);
        let mut split = Digest::default();
        split.update(b"foo");
        split.update(b"bar");
        assert_eq!(split, Digest::of(b"foobar"));
        assert_ne!(Digest::of(b"foobar"), Digest::of(b"foobaz"));
    }

    #[test]
    fn busy_frac_divides_by_capacity() {
        assert_eq!(busy_frac(1_000.0, 2, 1_000.0), 0.5);
        assert_eq!(busy_frac(3_000.0, 2, 1_500.0), 1.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // Overlapping children count once.
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // A child nested in another adds nothing.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
        // Children are clipped to the span.
        assert_eq!(self_time((10, 20), &[(0, 15), (18, 40)]), 3);
        assert_eq!(self_time((10, 20), &[(30, 40)]), 10);
        assert_eq!(self_time((0, 10), &[(0, 10)]), 0);
    }
}
