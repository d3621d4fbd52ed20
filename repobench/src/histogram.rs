//! A latency histogram of fixed size: the percentiles of every call of a
//! run without keeping every sample, so the process's memory does not grow
//! with the number of passes that fit in the run.

/// Sub-buckets per power of two. A bucket is at most 1/256 of its lower
/// bound wide, so a percentile is within 0.4% of the exact sample.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// Counts of nanosecond latencies in log-linear buckets: exact below
/// 2 × 256 ns, then 256 buckets for each power of two.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) << SUB_BITS],
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[bucket(ns)] += 1;
        self.total += 1;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// The `q` quantile in nanoseconds, at rank `q * (len - 1)` as a
    /// linear-interpolation quantile over the samples would take it; the
    /// samples of a bucket are taken as spread evenly over its width. NaN
    /// for no samples.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = q * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            if count > 0 && rank < (below + count) as f64 {
                let (low, width) = bounds(i);
                let within = (rank - below as f64 + 0.5) / count as f64;
                return low as f64 + width as f64 * within;
            }
            below += count;
        }
        unreachable!("rank {rank} is below the sample count {}", self.total)
    }
}

/// The bucket of `ns`: `ns` itself below `2 * SUB`, else
/// `shift * SUB + (ns >> shift)` where `ns >> shift` keeps the top
/// `SUB_BITS + 1` bits.
fn bucket(ns: u64) -> usize {
    if ns < 2 * SUB {
        return ns as usize;
    }
    let shift = 63 - ns.leading_zeros() - SUB_BITS;
    ((u64::from(shift) << SUB_BITS) + (ns >> shift)) as usize
}

/// Lower bound and width of bucket `i`, the inverse of `bucket`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) - 1;
    ((i - (shift << SUB_BITS)) << shift, 1 << shift)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_value_lies_in_its_bucket() {
        for ns in (0..5000).chain([u64::MAX, 1 << 40, (1 << 40) + 12345]) {
            let (low, width) = bounds(bucket(ns));
            assert!(
                low <= ns && ns - low < width,
                "{ns} not in [{low}, +{width})"
            );
            assert!(width == 1 || width * SUB <= low, "{ns}: bucket too wide");
        }
    }

    #[test]
    fn quantiles_are_close_to_the_exact_ones() {
        let mut h = Histogram::new();
        let samples: Vec<u64> = (1..=10_000u64).map(|i| i * i % 100_003 + 1_000).collect();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let exact = sorted[(q * (sorted.len() - 1) as f64) as usize] as f64;
            let got = h.quantile_ns(q);
            assert!(
                (got - exact).abs() <= exact / 200.0,
                "q {q}: {got} vs {exact}"
            );
        }
        assert_eq!(h.len(), 10_000);
        assert!(Histogram::new().quantile_ns(0.5).is_nan());
    }
}
