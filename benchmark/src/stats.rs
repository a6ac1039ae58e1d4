//! Order statistics over small sample sets, and the metric record every
//! lane reports through.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// closest ranks. Panics on an empty slice: a lane that measured nothing is
/// a bug in the benchmark, not a value to report.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample set");
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Interquartile range as a share of the median.
pub fn iqr_share(samples: &[f64]) -> f64 {
    (quantile(samples, 0.75) - quantile(samples, 0.25)) / median(samples)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Reported value (calibrated when time-valued).
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Free-form context printed beside the value: the raw reading of a
    /// calibrated time, a sample count, or nothing.
    pub note: String,
}

impl Metric {
    /// A metric without a note.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: String::new(),
        }
    }

    /// Attaches a note (builder style).
    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&samples), 2.5);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 4.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
        assert!((iqr_share(&samples) - 0.6).abs() < 1e-12);
    }
}
