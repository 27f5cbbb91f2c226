//! Order statistics and the seeded input stream every workload draws from.

/// The median of `values` (mean of the middle pair for an even count); 0
/// for an empty slice, which only a run whose every operation failed sees.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The first and third quartiles, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method), so
/// the spread this benchmark reports is the one its consumers recompute.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let data = sorted(values);
    let len = data.len();
    match len {
        0 => (0.0, 0.0),
        1 => (data[0], data[0]),
        _ => {
            let m = len as i64 + 1;
            let cut = |i: i64| {
                let j = (i * m / 4).clamp(1, len as i64 - 1);
                // May be negative for tiny samples, as in Python.
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
            };
            (cut(1), cut(3))
        }
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `values`; 0 for
/// an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    // The epsilon keeps float error (0.999 * 10000 > 9990) off the rank.
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the percentiles 50, 90, 99 and 99.9 that has at least
/// ten samples beyond it, for a run of `count` samples; `None` below 20
/// samples, where not even the median has ten beyond it.
pub fn tail_percentile(count: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|p| count as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Failed operations as a share of the attempted ones (0 when nothing was
/// attempted).
pub fn failed_ratio(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// SplitMix64: a small, fixed generator, so a seed names the same inputs
/// on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Stream(u64);

impl Stream {
    /// A stream for one use of the benchmark seed; `salt` keeps the
    /// workloads' streams apart.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut stream = Stream(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        stream.next_u64();
        stream
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// `count` distinct indices of `0..len`, in draw order.
    pub fn sample(&mut self, len: usize, count: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..len).collect();
        let take = count.min(len);
        for i in 0..take {
            let j = i + self.below(len - i);
            pool.swap(i, j);
        }
        pool.truncate(take);
        pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_runs() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for count in [20, 100, 150, 1000, 5000, 10_000, 50_000] {
            let p = tail_percentile(count).expect("enough samples");
            let values: Vec<f64> = (1..=count).map(|v| v as f64).collect();
            let cut = percentile(&values, p);
            assert!(values.iter().filter(|&&v| v > cut).count() >= 10, "p{p} of {count}");
        }
    }

    #[test]
    fn failed_ratio_counts_against_attempts() {
        assert_eq!(failed_ratio(0, 0), 0.0);
        assert_eq!(failed_ratio(0, 50), 0.0);
        assert_eq!(failed_ratio(5, 50), 0.1);
        assert_eq!(failed_ratio(50, 50), 1.0);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_per_salt() {
        let draw = |seed, salt| {
            let mut stream = Stream::new(seed, salt);
            (0..8).map(|_| stream.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
        assert_ne!(draw(1, 1), draw(2, 1));
        let picks = Stream::new(9, 0).sample(10, 4);
        assert_eq!(picks.len(), 4);
        assert!(picks.iter().all(|&i| i < 10));
        let mut unique = picks.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 4);
    }
}
