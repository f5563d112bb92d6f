//! Exact order statistics over every sample, and small numeric helpers.

/// An ascending-sorted sample set.
pub struct Sorted(Vec<u64>);

impl Sorted {
    pub fn new(mut samples: Vec<u64>) -> Sorted {
        samples.sort_unstable();
        Sorted(samples)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least a
    /// share `q` of all samples at or below it (0 when empty).
    pub fn pct(&self, q: f64) -> u64 {
        if self.0.is_empty() {
            return 0;
        }
        let rank = (q * self.0.len() as f64).ceil().max(1.0) as usize;
        self.0[rank.min(self.0.len()) - 1]
    }

    /// The highest percentile that still has at least ten samples above
    /// it, as `(q, value)`; `None` with ten samples or fewer.
    pub fn top(&self) -> Option<(f64, u64)> {
        let n = self.0.len();
        (n > 10).then(|| ((n - 10) as f64 / n as f64, self.0[n - 11]))
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The median of a non-empty list of measurements.
pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s = Sorted::new((1..=100).rev().collect());
        assert_eq!(s.pct(0.5), 50);
        assert_eq!(s.pct(0.99), 99);
        assert_eq!(s.pct(1.0), 100);
        assert_eq!(s.pct(0.0), 1);
        assert_eq!(s.top(), Some((0.9, 90)));
        assert_eq!(Sorted::new(vec![7; 10]).top(), None);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
