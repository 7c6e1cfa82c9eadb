//! Summary statistics: the median, the tail percentile rule, and failure
//! accounting shared by every workload.

/// Latency charged to a request that failed, was refused, or was never
/// answered: it sorts above every answered request, so a failure always
/// counts as missing any latency limit.
pub const MISS_MS: f64 = 1.0e6;

/// Nearest-rank percentile `q` (0..=100) of already sorted samples.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(
        !samples.iter().any(|s| s.is_nan()),
        "NaN sample: the benchmark clock is broken"
    );
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank percentile `q` (0..=100); `None` for no samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    (!samples.is_empty()).then(|| nearest_rank(&sorted(samples), q))
}

/// Median (nearest-rank p50); `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Percentile `q` of each group, then the mean of the middle half of those
/// (a quarter of the groups, rounded down, is dropped at each end). Groups
/// are independent sessions of one phase: a session that drew an unlucky
/// state is dropped instead of moving the whole figure, and the mean keeps
/// the figure continuous where each session's value falls on a coarse grid
/// (burst latencies land on 4 ms timer ticks).
pub fn midmean_of_percentiles(groups: &[Vec<f64>], q: f64) -> Option<f64> {
    let per_group = sorted(
        &groups
            .iter()
            .filter_map(|g| percentile(g, q))
            .collect::<Vec<_>>(),
    );
    let cut = per_group.len() / 4;
    let middle = &per_group[cut..per_group.len() - cut];
    (!middle.is_empty()).then(|| middle.iter().sum::<f64>() / middle.len() as f64)
}

/// A tail figure: which percentile was taken, its value, and the sample
/// count it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported (100.0 means the maximum).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The tail rule: the highest percentile, at most p99, that leaves at least
/// ten samples beyond it. Below eleven samples no percentile qualifies and
/// the maximum is reported as p100, so callers must print the sample count
/// with it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let sorted = sorted(samples);
    let n = sorted.len();
    if n < 11 {
        return Some(Tail {
            pct: 100.0,
            value: sorted[n - 1],
            n,
        });
    }
    // Nearest rank `r` leaves `n - r` samples beyond it; p99's rank caps it.
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10);
    Some(Tail {
        pct: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        n,
    })
}

/// How one tune request ended, as the client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    /// A prediction came back.
    Answered,
    /// A tune response carrying an error.
    Error,
    /// A typed `Rejected` answer (shed or deadline).
    Rejected,
    /// No answer before the drain deadline.
    Unanswered,
}

/// Requests sent, succeeded and failed in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent.
    pub sent: usize,
    /// Requests answered with a prediction.
    pub succeeded: usize,
    /// Errors, rejections and unanswered requests.
    pub failed: usize,
}

impl Tally {
    /// Counts `statuses`; everything but [`Status::Answered`] is a failure.
    pub fn of(statuses: impl IntoIterator<Item = Status>) -> Tally {
        let mut tally = Tally::default();
        for status in statuses {
            tally.sent += 1;
            match status {
                Status::Answered => tally.succeeded += 1,
                Status::Error | Status::Rejected | Status::Unanswered => tally.failed += 1,
            }
        }
        tally
    }

    /// Failed requests over requests sent (0 when nothing was sent).
    pub fn failed_ratio(&self) -> f64 {
        match self.sent {
            0 => 0.0,
            n => self.failed as f64 / n as f64,
        }
    }
}

/// The latency a request contributes to the percentiles: its measured
/// latency when answered, [`MISS_MS`] otherwise.
pub fn charged_latency_ms(status: Status, latency_ms: Option<f64>) -> f64 {
    match (status, latency_ms) {
        (Status::Answered, Some(ms)) => ms,
        _ => MISS_MS,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond_and_caps_at_p99() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value, t.n), (99.0, 990.0, 1000));

        // 200 samples: p99 would leave 2 beyond, so the rule drops to p95.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value, t.n), (95.0, 190.0, 200));
        assert_eq!(samples.iter().filter(|&&s| s > t.value).count(), 10);

        // 5000 samples: p99 leaves 50 beyond, more than enough.
        let samples: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!((t.pct, t.value), (99.0, 4950.0));

        // Eleven samples: exactly one qualifies, the smallest.
        let samples: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&samples).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.n, 11);
    }

    #[test]
    fn tail_below_eleven_samples_is_the_labelled_maximum() {
        let t = tail(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((t.pct, t.value, t.n), (100.0, 3.0, 3));
        assert!(tail(&[]).is_none());
        assert!(median(&[]).is_none());
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn midmean_of_percentiles_resists_one_unlucky_session() {
        let calm: Vec<f64> = (1..=10).map(f64::from).collect();
        let stalled = vec![100.0; 10];
        let groups = vec![calm.clone(), stalled, calm.clone(), calm.clone()];
        let pooled: Vec<f64> = groups.concat();
        assert_eq!(percentile(&pooled, 90.0), Some(100.0));
        assert_eq!(midmean_of_percentiles(&groups, 90.0), Some(9.0));
        assert_eq!(midmean_of_percentiles(&groups, 50.0), Some(5.0));
        assert_eq!(midmean_of_percentiles(&[], 50.0), None);
        assert_eq!(midmean_of_percentiles(&[vec![], calm], 50.0), Some(5.0));
    }

    #[test]
    fn midmean_of_percentiles_averages_sessions_on_a_grid() {
        // Four sessions whose medians fell on 4 ms ticks: the extremes are
        // dropped and the middle two averaged.
        let groups: Vec<Vec<f64>> = [96.0, 88.0, 100.0, 92.0].map(|v| vec![v]).to_vec();
        assert_eq!(midmean_of_percentiles(&groups, 50.0), Some(94.0));
    }

    #[test]
    fn failures_are_counted_against_requests_sent() {
        let statuses = [
            Status::Answered,
            Status::Error,
            Status::Rejected,
            Status::Unanswered,
            Status::Answered,
        ];
        let tally = Tally::of(statuses);
        assert_eq!(
            tally,
            Tally {
                sent: 5,
                succeeded: 2,
                failed: 3
            }
        );
        assert!((tally.failed_ratio() - 0.6).abs() < 1e-12);
        assert_eq!(Tally::default().failed_ratio(), 0.0);
    }

    #[test]
    fn failures_miss_every_latency_limit() {
        assert_eq!(charged_latency_ms(Status::Answered, Some(2.5)), 2.5);
        for status in [Status::Error, Status::Rejected, Status::Unanswered] {
            assert_eq!(charged_latency_ms(status, Some(2.5)), MISS_MS);
        }
        // One failure among eleven answers lands in the tail, not the median.
        let mut latencies = vec![1.0; 11];
        latencies.push(charged_latency_ms(Status::Rejected, None));
        assert_eq!(median(&latencies), Some(1.0));
        assert_eq!(tail(&latencies).unwrap().value, 1.0);
        let mut all_failed = vec![MISS_MS; 12];
        all_failed[0] = 1.0;
        assert_eq!(tail(&all_failed).unwrap().value, MISS_MS);
    }
}
