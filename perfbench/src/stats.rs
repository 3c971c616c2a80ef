//! Order statistics over timing samples.

/// Linearly interpolated quantile of an ascending, non-empty sample
/// (`q` in `[0, 1]`; the same rule as numpy's default).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest quantile, at most `cap`, that leaves at least ten samples
/// above it — the tail a sample of `n` can still support (never below
/// the median).
pub fn tail_quantile(n: usize, cap: f64) -> f64 {
    (1.0 - 10.0 / n.max(1) as f64).clamp(0.5, cap)
}

/// Count, quartiles and median of one sample.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Summarize `samples` (must be non-empty).
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "summary of an empty sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Summary { sorted }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    pub fn q(&self, q: f64) -> f64 {
        quantile(&self.sorted, q)
    }

    pub fn median(&self) -> f64 {
        self.q(0.5)
    }

    /// The sample's supported tail (see [`tail_quantile`]) as
    /// `(quantile, value)`.
    pub fn tail(&self, cap: f64) -> (f64, f64) {
        let q = tail_quantile(self.n(), cap);
        (q, self.q(q))
    }

    /// Every sample transformed by `f` (e.g. ms → GFLOP/s); order is
    /// re-established, so decreasing maps are fine.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Summary {
        let v: Vec<f64> = self.sorted.iter().map(|&x| f(x)).collect();
        Summary::of(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.q(0.25), 2.0);
        assert_eq!(s.q(0.875), 4.5);
    }

    #[test]
    fn tail_leaves_ten_samples() {
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(100, 0.99), 0.9);
        assert_eq!(tail_quantile(50, 0.9), 0.8);
        assert_eq!(tail_quantile(5, 0.9), 0.5);
    }
}
