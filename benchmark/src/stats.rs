//! Percentiles and the metric record every report line is made of.

/// One reported figure: name, value, unit, and how many samples stand
/// behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            samples,
        }
    }
}

/// Linear-interpolation percentile (`q` in 0..=1) of unsorted samples;
/// NaN when there are none. A failed operation is recorded as an infinite
/// latency, so it counts as missing every percentile it lands on.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `p50` and `p90` metrics named `<prefix>_p50<suffix>` / `_p90<suffix>`.
pub fn p50_p90(prefix: &str, suffix: &str, samples: &[f64], unit: &'static str) -> [Metric; 2] {
    [
        Metric::new(
            format!("{prefix}_p50{suffix}"),
            percentile(samples, 0.5),
            unit,
            samples.len(),
        ),
        Metric::new(
            format!("{prefix}_p90{suffix}"),
            percentile(samples, 0.9),
            unit,
            samples.len(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_like_numpy_linear() {
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert!((percentile(&[0.0, 10.0], 0.9) - 9.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(percentile(&[1.0, f64::INFINITY], 1.0), f64::INFINITY);
    }
}
