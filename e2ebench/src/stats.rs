//! Small statistics and outcome bookkeeping shared by every workload.

/// Median of `values` (mean of the two middle values for an even count);
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 0 {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// A tail percentile chosen so that it is backed by data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. `90.0`.
    pub percentile: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Percentiles considered for the tail, highest first.
const TAIL_PERCENTILES: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest percentile of `values` that has at least `min_beyond`
/// samples beyond its nearest rank. `None` when even the median lacks that
/// support (fewer than `2 * min_beyond` samples).
pub fn tail(values: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        // Nearest rank: the smallest 1-based rank k with k/n ≥ p/100.
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank == 0 || rank > n {
            return None;
        }
        let beyond = n - rank;
        (beyond >= min_beyond).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond,
        })
    })
}

/// How operations ended, for the result line's `attempted`/`failed` and the
/// printed failure ratio.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations started.
    pub attempted: usize,
    /// Cells or jobs whose outcome was `failed` or `skipped`.
    pub failed: usize,
    /// HTTP submissions the server refused (429, 503, other 5xx).
    pub refused: usize,
    /// Operations that errored outside the program (I/O, bad response).
    pub errored: usize,
    /// Cells or jobs that produced a value on a recovery path.
    pub degraded: usize,
}

impl Tally {
    /// Counts one cell or job by its outcome name (`ok`, `retried`,
    /// `degraded`, `failed`, `skipped`).
    pub fn outcome(&mut self, outcome: &str) {
        self.attempted += 1;
        match outcome {
            "failed" | "skipped" => self.failed += 1,
            "degraded" => self.degraded += 1,
            _ => {}
        }
    }

    /// Counts one HTTP submission by its status code. Returns whether the
    /// server accepted it.
    pub fn http(&mut self, status: u16) -> bool {
        if status == 429 || status >= 500 {
            self.attempted += 1;
            self.refused += 1;
            false
        } else if status != 200 {
            self.attempted += 1;
            self.errored += 1;
            false
        } else {
            true
        }
    }

    /// Counts one operation that errored before it produced an outcome.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errored += 1;
    }

    /// Every operation that did not produce a value.
    pub fn failed_total(&self) -> usize {
        self.failed + self.refused + self.errored
    }

    /// `failed_total / attempted` (0 when nothing was attempted).
    pub fn failed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed_total() as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_picks_highest_supported_percentile() {
        // 100 samples 1..=100: p90 has rank 90 and 10 beyond; p95 only 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        // 1000 samples: p99 has 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
    }

    #[test]
    fn tail_falls_back_and_gives_up() {
        // 40 samples: p75 (rank 30) has exactly 10 beyond, p80 only 8.
        let v: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (75.0, 30.0, 10));
        // 20 samples: only the median is supported.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v, 10).unwrap().percentile, 50.0);
        // 19 samples: nothing is.
        assert_eq!(tail(&v[..19], 10), None);
    }

    #[test]
    fn tally_counts_outcomes_refusals_and_errors() {
        let mut t = Tally::default();
        for o in ["ok", "retried", "degraded", "failed", "skipped"] {
            t.outcome(o);
        }
        assert!(t.http(200), "accepted submissions are counted by outcome");
        assert!(!t.http(429));
        assert!(!t.http(503));
        assert!(!t.http(400));
        t.error();
        assert_eq!(t.attempted, 9);
        assert_eq!((t.failed, t.refused, t.errored, t.degraded), (2, 2, 2, 1));
        assert_eq!(t.failed_total(), 6);
        assert!((t.failed_ratio() - 6.0 / 9.0).abs() < 1e-12);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }
}
