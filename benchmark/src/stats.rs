//! The benchmark's arithmetic: percentiles, open-loop accounting, the
//! load-ladder verdict and the server stage split. Pure functions, so the
//! unit tests pin every rule the README states.

/// A request or pass counts against a percentile only with at least this
/// many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
/// `+inf` samples (refused or missing requests) sort last.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many samples lie beyond the `q` percentile of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    n - rank(n.max(1), q).min(n)
}

/// The percentile a workload reports as its tail, and whether `n` samples
/// support it (at least [`MIN_BEYOND`] beyond it).
pub fn tail_supported(n: usize, q: f64) -> bool {
    n > 0 && beyond(n, q) >= MIN_BEYOND
}

/// Sort ascending with `+inf` last.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the middle pair for even counts).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// One open-loop request, timed in nanoseconds from the start of the
/// load ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timed {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator actually wrote it.
    pub sent_ns: u64,
    /// When its reply arrived; `None` if it never did.
    pub recv_ns: Option<u64>,
    /// Whether the reply was a correct result (not refused, not wrong).
    pub ok: bool,
}

impl Timed {
    /// Latency from the due time, in microseconds: a stalled generator's
    /// delay counts against the requests it held back. Refused, wrong and
    /// missing requests are `+inf`, so they miss any latency limit.
    pub fn due_latency_us(&self) -> f64 {
        match self.recv_ns {
            Some(r) if self.ok => r.saturating_sub(self.due_ns) as f64 / 1e3,
            _ => f64::INFINITY,
        }
    }

    /// How late the generator sent it, in microseconds.
    pub fn lateness_us(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e3
    }
}

/// A generator counts as late on a request it sent more than this long
/// after the request's due time.
pub const LATE_US: f64 = 1000.0;

/// The verdict on one ladder step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub rate_rps: f64,
    pub sent: usize,
    pub ok: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub p99_supported: bool,
    /// 99th percentile of how late the generator sent.
    pub late_p99_us: f64,
    /// Share of requests sent more than [`LATE_US`] late.
    pub late_frac: f64,
    /// The last reply's arrival after the step's end, in seconds;
    /// `+inf` if a reply is missing.
    pub drain_s: f64,
}

/// Summarise one step's requests. `end_ns` is when the step's schedule
/// ended.
pub fn step_summary(rate_rps: f64, reqs: &[Timed], end_ns: u64) -> Step {
    let lat = sorted(reqs.iter().map(Timed::due_latency_us).collect());
    let late = sorted(reqs.iter().map(Timed::lateness_us).collect());
    let drain_s = reqs.iter().try_fold(0.0f64, |acc, r| {
        r.recv_ns.map(|t| acc.max(t.saturating_sub(end_ns) as f64 / 1e9))
    });
    Step {
        rate_rps,
        sent: reqs.len(),
        ok: reqs.iter().filter(|r| r.ok).count(),
        p50_us: percentile(&lat, 0.50),
        p99_us: percentile(&lat, 0.99),
        p99_supported: tail_supported(reqs.len(), 0.99),
        late_p99_us: percentile(&late, 0.99),
        late_frac: late.iter().filter(|&&l| l > LATE_US).count() as f64 / reqs.len().max(1) as f64,
        drain_s: drain_s.unwrap_or(f64::INFINITY),
    }
}

/// The p99 latency limit a ladder step must meet.
pub const LIMIT_P99_US: f64 = 5000.0;
/// Every reply of a step must arrive within this long after the step
/// ends, or its backlog is growing.
pub const DRAIN_LIMIT_S: f64 = 1.0;

/// Whether a step meets the latency limit without a growing backlog.
pub fn step_meets_limit(s: &Step) -> bool {
    s.sent > 0 && s.p99_us <= LIMIT_P99_US && s.drain_s <= DRAIN_LIMIT_S
}

/// The highest step rate that meets the limit with every lower step
/// meeting it too, or 0 when the first step fails. A step that passes
/// above a failing one (load noise at the knee) does not count.
pub fn max_ok_rps(steps: &[Step]) -> f64 {
    steps.iter().take_while(|s| step_meets_limit(s)).map(|s| s.rate_rps).fold(0.0, f64::max)
}

/// The server's stage split, per request, from `metrics` deltas.
///
/// `stage_sums_us` holds each stage's summed time over the measured phase
/// (count × mean after, minus count × mean before); `requests` is how many
/// requests the client measured, and `client_mean_us` their mean latency.
/// Returns each stage's mean per request plus `transport`, the residual
/// the server does not see (sockets, and waiting behind earlier replies
/// of the same batch), so the parts add up to the client mean exactly.
pub fn stage_split(
    stage_sums_us: &[(&'static str, f64)],
    requests: usize,
    client_mean_us: f64,
) -> Vec<(&'static str, f64)> {
    let n = requests.max(1) as f64;
    let mut out: Vec<(&'static str, f64)> =
        stage_sums_us.iter().map(|&(name, sum)| (name, sum / n)).collect();
    let server: f64 = out.iter().map(|&(_, v)| v).sum();
    out.push(("transport", client_mean_us - server));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn infinite_samples_sort_last_and_dominate_the_tail() {
        let mut v = vec![f64::INFINITY; 2];
        v.extend((1..=98).map(f64::from));
        let s = sorted(v);
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), f64::INFINITY);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert_eq!(beyond(200, 0.95), 10);
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(!tail_supported(0, 0.5));
        assert_eq!(beyond(0, 0.99), 0);
    }

    fn req(due: u64, sent: u64, recv: Option<u64>, ok: bool) -> Timed {
        Timed { due_ns: due, sent_ns: sent, recv_ns: recv, ok }
    }

    #[test]
    fn latency_counts_from_the_due_time_and_refusals_miss() {
        // Sent 300 µs late, answered 500 µs after sending: 800 µs.
        let r = req(1_000_000, 1_300_000, Some(1_800_000), true);
        assert_eq!(r.due_latency_us(), 800.0);
        assert_eq!(r.lateness_us(), 300.0);
        assert_eq!(req(0, 0, Some(10), false).due_latency_us(), f64::INFINITY);
        assert_eq!(req(0, 0, None, true).due_latency_us(), f64::INFINITY);
        // Sending early is impossible, but never underflows.
        assert_eq!(req(5_000, 4_000, Some(6_000), true).lateness_us(), 0.0);
    }

    #[test]
    fn step_summary_accounts_lateness_and_drain() {
        let mut reqs: Vec<Timed> =
            (0..100).map(|i| req(i * 1000, i * 1000, Some(i * 1000 + 200_000), true)).collect();
        reqs[0].sent_ns = 2_000_000; // 2 ms late
        let s = step_summary(1000.0, &reqs, 100_000);
        assert_eq!(s.sent, 100);
        assert_eq!(s.ok, 100);
        assert_eq!(s.p50_us, 200.0);
        assert_eq!(s.late_frac, 0.01);
        assert_eq!(s.late_p99_us, 0.0);
        // Last reply at 99 µs + 200 µs = 299 µs; the step ended at 100 µs.
        assert!((s.drain_s - 199e-6).abs() < 1e-12, "{}", s.drain_s);
        reqs[5].recv_ns = None;
        assert_eq!(step_summary(1000.0, &reqs, 100_000).drain_s, f64::INFINITY);
    }

    fn step(rate: f64, p99: f64, drain: f64) -> Step {
        Step {
            rate_rps: rate,
            sent: 1000,
            ok: 1000,
            p50_us: p99 / 2.0,
            p99_us: p99,
            p99_supported: true,
            late_p99_us: 0.0,
            late_frac: 0.0,
            drain_s: drain,
        }
    }

    #[test]
    fn max_ok_rps_takes_the_highest_step_within_the_limits() {
        let ladder = [
            step(3000.0, 900.0, 0.01),
            step(12000.0, 1200.0, 0.01),
            step(24000.0, 4999.0, 0.5),
            step(32000.0, f64::INFINITY, 0.01),
        ];
        assert_eq!(max_ok_rps(&ladder), 24000.0);
        // A growing backlog disqualifies a step even at a good p99.
        let backlog = [step(3000.0, 900.0, 0.01), step(12000.0, 1000.0, 1.5)];
        assert_eq!(max_ok_rps(&backlog), 3000.0);
        // A step that passes above a failing one does not count.
        let noisy =
            [step(3000.0, 900.0, 0.0), step(12000.0, 9000.0, 0.0), step(24000.0, 900.0, 0.0)];
        assert_eq!(max_ok_rps(&noisy), 3000.0);
        assert_eq!(max_ok_rps(&[step(3000.0, 5001.0, 0.0)]), 0.0);
        assert_eq!(max_ok_rps(&[]), 0.0);
    }

    #[test]
    fn stage_split_residual_closes_the_sum() {
        let sums = [("admission", 1000.0), ("queue_wait", 4000.0), ("compute", 5000.0)];
        let split = stage_split(&sums, 10, 1500.0);
        assert_eq!(split[0], ("admission", 100.0));
        assert_eq!(split[1], ("queue_wait", 400.0));
        assert_eq!(split[2], ("compute", 500.0));
        assert_eq!(split[3], ("transport", 500.0));
        let total: f64 = split.iter().map(|&(_, v)| v).sum();
        assert!((total - 1500.0).abs() < 1e-9);
    }
}
