//! Order statistics and digests for the harness.

/// Percentiles a latency metric may be named after, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a tail percentile needs beyond it before it is quoted.
pub const SAMPLES_BEYOND: usize = 10;

/// The `p`-th percentile (0..=100) of an ascending slice, linearly
/// interpolated between order statistics. `NaN` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorts a sample ascending (total order; the harness never records NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(f64::total_cmp);
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// Samples strictly beyond the `p`-th percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps 99.9 % of 10 000 at rank 9990, not 9991.
    n - (p * n as f64 / 100.0 - 1e-9).ceil().max(0.0) as usize
}

/// The highest percentile of [`LADDER`] that `n` samples support: at
/// least [`SAMPLES_BEYOND`] samples lie beyond it. The median is always
/// supported.
pub fn highest_supported(n: usize) -> f64 {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= SAMPLES_BEYOND)
        .unwrap_or(LADDER[0])
}

/// FNV-1a over the values fed to it: the op-stream and result digests
/// that must repeat for a seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert!((percentile(&v, 90.0) - 4.6).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn picker_honours_the_ten_samples_beyond_rule() {
        // p99 of 1000 leaves exactly ten samples beyond it; 999 do not.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported(1000), 99.0);
        assert_eq!(highest_supported(999), 95.0);
        // 250 history cases support p95 (12 beyond), not p99 (2 beyond).
        assert_eq!(highest_supported(250), 95.0);
        assert_eq!(highest_supported(199), 90.0);
        assert_eq!(highest_supported(100), 90.0);
        assert_eq!(highest_supported(99), 50.0);
        assert_eq!(highest_supported(10_000), 99.9);
        // Too few samples for any tail: only the median is quoted.
        assert_eq!(highest_supported(5), 50.0);
        assert_eq!(highest_supported(0), 50.0);
    }

    #[test]
    fn digest_separates_streams() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.u64(1);
        a.f64(2.5);
        b.u64(1);
        b.f64(2.5);
        assert_eq!(a, b);
        b.u64(0);
        assert_ne!(a, b);
    }
}
