//! Online statistics and series collection for experiment harnesses.

/// Streaming mean/variance accumulator (Welford's algorithm) with min/max.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A named sample set retaining all observations, for percentiles and
/// table output. Used by the figure harnesses.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples { values: Vec::new() }
    }

    /// Adds an observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// All observations, in insertion order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Sample standard deviation (0.0 with fewer than two observations).
    pub fn std_dev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.values.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// Percentile in `[0, 100]` by linear interpolation between closest
    /// ranks (0.0 when empty).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = rank - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    /// Median (p50).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basic() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.571428571428571).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty_is_zeroes() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn online_stats_single_observation() {
        let mut s = OnlineStats::new();
        s.push(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn samples_percentiles() {
        let mut s = Samples::new();
        for x in 1..=100 {
            s.push(f64::from(x));
        }
        assert!((s.median() - 50.5).abs() < 1e-9);
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-9);
        assert!((s.percentile(100.0) - 100.0).abs() < 1e-9);
        assert!((s.percentile(95.0) - 95.05).abs() < 1e-9);
    }

    #[test]
    fn samples_percentile_out_of_range_clamped() {
        let mut s = Samples::new();
        s.push(1.0);
        s.push(2.0);
        assert_eq!(s.percentile(-5.0), 1.0);
        assert_eq!(s.percentile(250.0), 2.0);
    }

    #[test]
    fn samples_std_dev_matches_known_value() {
        let mut s = Samples::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert!((s.std_dev() - 2.138089935299395).abs() < 1e-9);
    }

    #[test]
    fn samples_empty_safe() {
        let s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.median(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }
}
