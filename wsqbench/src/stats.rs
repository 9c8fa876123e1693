//! Sample summaries. Timings are reported as a median and one tail
//! percentile, with the sample count alongside so a reader can tell
//! whether the tail had enough samples beyond it to mean anything.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; `None` for an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Latency samples of one kind of event, in the unit the caller chose.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median; 0 for an empty sample (a metric that does not apply to
    /// the workload reads 0, see README "Reading a 0").
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn quantile(&self, q: f64) -> f64 {
        quantile(&self.sorted(), q).unwrap_or(0.0)
    }
}

/// Median of a handful of plain numbers (set-up repetitions, A/B pairs).
pub fn median_of(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    values.iter().for_each(|&v| s.push(v));
    s.median()
}

/// The spread the acceptance rule uses: distance between the first and
/// third quartile as a share of the median, with the quartiles Python's
/// `statistics.quantiles(values, n=4)` gives (the "exclusive" method:
/// position `q·(n+1)` in 1-based order statistics, clamped to the ends).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.len() < 2 {
        return 0.0;
    }
    let at = |q: f64| {
        let pos = (q * (v.len() as f64 + 1.0) - 1.0).clamp(0.0, v.len() as f64 - 1.0);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let median = at(0.5);
    if median == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_handle_edges() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[4.0], 0.95), Some(4.0));
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.5), Some(3.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        assert_eq!(quantile(&v, 0.95), Some(4.8));
    }

    #[test]
    fn samples_sort_before_ranking_and_count() {
        let mut s = Samples::default();
        for v in [9.0, 1.0, 5.0, 3.0, 7.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.quantile(0.25), 3.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(Samples::default().median(), 0.0);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn iqr_share_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
        assert_eq!(iqr_share(&[5.0, 5.0, 5.0]), 0.0);
    }
}
