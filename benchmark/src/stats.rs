//! Order statistics for host-clock reps and virtual-time latency samples.

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), so the spread
/// printed here is the one the acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Latency samples in virtual nanoseconds, sorted once.
pub struct Latencies {
    sorted: Vec<u64>,
}

impl Latencies {
    /// Take ownership of the samples.
    pub fn new(mut samples: Vec<u64>) -> Latencies {
        samples.sort_unstable();
        Latencies { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank quantile in microseconds; 0 with no samples.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.sorted[rank - 1] as f64 / 1e3
    }

    /// The latency at [`Latencies::tail_q`], microseconds.
    pub fn tail_us(&self) -> f64 {
        self.quantile_us(self.tail_q())
    }

    /// Mean in microseconds; 0 with no samples.
    pub fn mean_us(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<u64>() as f64 / self.sorted.len() as f64 / 1e3
    }

    /// The tail quantile this sample supports: 0.99 when at least ten
    /// samples lie beyond it, otherwise the highest quantile that still
    /// has ten beyond (never below the median).
    pub fn tail_q(&self) -> f64 {
        let n = self.sorted.len() as f64;
        if n <= 20.0 {
            return 0.5;
        }
        (1.0 - 10.0 / n).clamp(0.5, 0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        let l = Latencies::new((0..100).collect());
        assert!((l.tail_q() - 0.9).abs() < 1e-12);
        assert_eq!(Latencies::new((0..5000).collect()).tail_q(), 0.99);
        assert_eq!(l.quantile_us(0.5), 0.049);
    }
}
