//! The benchmark's own arithmetic: percentiles, failure accounting, the
//! capacity-ladder decision and span self time. Kept free of simulator
//! types so every rule is unit-tested on plain numbers.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of quantile `q` among `n` samples. The epsilon
/// keeps `0.99 * 1000` from rounding up past 990.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `[0, 1]`. Empty input reads 0.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// True when `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond
/// quantile `q` (p99 needs 1,000 samples).
pub fn supports(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_TAIL_SAMPLES
}

/// Latency samples of one class plus the requests that never produced a
/// latency (shed, timed out, refused, failed verification). A failure
/// counts as missing any latency limit, so it sorts above every sample.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    ns: Vec<u64>,
    failures: u64,
}

impl Latencies {
    /// Record one completed request's latency.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
    }

    /// Record one request that failed or was refused.
    pub fn fail(&mut self) {
        self.failures += 1;
    }

    /// Fold another set in.
    pub fn merge(&mut self, o: &Latencies) {
        self.ns.extend_from_slice(&o.ns);
        self.failures += o.failures;
    }

    /// Completed samples.
    pub fn completed(&self) -> usize {
        self.ns.len()
    }

    /// Requests counted, completed or failed.
    pub fn attempted(&self) -> usize {
        self.ns.len() + self.failures as usize
    }

    /// Mean latency of the completed requests, µs.
    pub fn mean_us(&self) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64 / 1e3
    }

    /// Quantile `q` in µs with failures ranked as infinitely slow.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.quantile_capped_us(q, f64::INFINITY)
    }

    /// Quantile `q` in µs with failures ranked at `failed_us`, the finite
    /// stand-in a reported percentile uses for "never completed".
    pub fn quantile_capped_us(&self, q: f64, failed_us: f64) -> f64 {
        let mut v: Vec<f64> = self.ns.iter().map(|&n| n as f64 / 1e3).collect();
        v.extend(std::iter::repeat_n(failed_us, self.failures as usize));
        v.sort_by(f64::total_cmp);
        percentile(&v, q)
    }

    /// True when quantile `q` is at most `limit_us` (failures included).
    pub fn meets(&self, q: f64, limit_us: f64) -> bool {
        self.attempted() > 0 && self.quantile_us(q) <= limit_us
    }
}

/// Request outcomes of one workload, in the terms of `failed_frac`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests or messages the workload attempted.
    pub attempted: u64,
    /// Shed by server admission control.
    pub shed: u64,
    /// Timed out on their last attempt.
    pub timed_out: u64,
    /// Refused at the client (no free arena slot, transport refusal).
    pub client_shed: u64,
    /// Completed, but the payload failed verification.
    pub bad_payload: u64,
}

impl Outcomes {
    /// Fold another tally in.
    pub fn merge(&mut self, o: &Outcomes) {
        self.attempted += o.attempted;
        self.shed += o.shed;
        self.timed_out += o.timed_out;
        self.client_shed += o.client_shed;
        self.bad_payload += o.bad_payload;
    }

    /// Attempts that did not end in a verified result.
    pub fn failed(&self) -> u64 {
        self.shed + self.timed_out + self.client_shed + self.bad_payload
    }

    /// `(shed + timed out + client-shed + failed verification) / attempted`.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.attempted as f64
    }
}

/// One rung of the open-loop rate ladder.
#[derive(Clone, Debug)]
pub struct Rung {
    /// Offered rate, requests per virtual second.
    pub rate: f64,
    /// Latency from scheduled arrival, failures included.
    pub lat: Latencies,
    /// Outstanding requests summed over generators at evenly spaced
    /// checkpoints through the rung.
    pub backlog: Vec<u64>,
}

/// A backlog grows when the mean of the rung's last quarter of
/// checkpoints exceeds twice the mean of its second quarter plus a
/// slack of one request per generator. A steady queue of any depth
/// passes; a queue that keeps filling through the rung does not.
pub fn backlog_growing(samples: &[u64], generators: u64) -> bool {
    let n = samples.len();
    if n < 4 {
        return false;
    }
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let q = n / 4;
    let early = mean(&samples[q..2 * q]);
    let late = mean(&samples[n - q..]);
    late > 2.0 * early + generators as f64
}

/// Index of the capacity rung: the highest rung such that it and every
/// rung below it meet the p99 limit without a growing backlog. `None`
/// when even the lightest rung fails.
pub fn capacity_rung(rungs: &[Rung], q: f64, limit_us: f64, generators: u64) -> Option<usize> {
    let mut cap = None;
    for (i, r) in rungs.iter().enumerate() {
        if !r.lat.meets(q, limit_us) || backlog_growing(&r.backlog, generators) {
            break;
        }
        cap = Some(i);
    }
    cap
}

/// A closed interval of one span, in any time base.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Start.
    pub start: u64,
    /// End (`>= start`).
    pub end: u64,
}

/// Self time of a span: its duration minus the part of it that its
/// children cover. Children may overlap each other and stick out of the
/// parent; only the covered part of the parent's own interval counts.
pub fn self_time(parent: Interval, children: &[Interval]) -> u64 {
    let mut kids: Vec<Interval> = children
        .iter()
        .map(|c| Interval {
            start: c.start.max(parent.start),
            end: c.end.min(parent.end),
        })
        .filter(|c| c.end > c.start)
        .collect();
    kids.sort_by_key(|c| c.start);
    let mut covered = 0;
    let mut cursor = parent.start;
    for c in kids {
        let s = c.start.max(cursor);
        if c.end > s {
            covered += c.end - s;
            cursor = c.end;
        }
    }
    (parent.end - parent.start) - covered
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(samples: impl IntoIterator<Item = u64>, failures: u64) -> Latencies {
        let mut l = Latencies::default();
        for s in samples {
            l.push(s * 1000);
        }
        for _ in 0..failures {
            l.fail();
        }
        l
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert!(!supports(999, 0.99));
        assert!(supports(1000, 0.99));
        assert!(supports(20, 0.5));
        // 1,000 samples: exactly ten sit above the p99 rank.
        let l = lat(1..=1000, 0);
        assert_eq!(l.quantile_us(0.99), 990.0);
    }

    #[test]
    fn failures_miss_the_limit() {
        // 98 fast requests and 2 failures: p99 is a failure.
        let l = lat(std::iter::repeat_n(10, 98), 2);
        assert_eq!(l.attempted(), 100);
        assert!(l.quantile_us(0.99).is_infinite());
        assert!(!l.meets(0.99, 1_000.0));
        // Without the failures the same samples meet it.
        assert!(lat(std::iter::repeat_n(10, 98), 0).meets(0.99, 1_000.0));
        // Nothing attempted never meets a limit.
        assert!(!Latencies::default().meets(0.99, 1_000.0));
        // The mean ignores failures.
        assert_eq!(l.mean_us(), 10.0);
    }

    #[test]
    fn failed_frac_counts_every_failure_kind() {
        let o = Outcomes {
            attempted: 200,
            shed: 3,
            timed_out: 2,
            client_shed: 4,
            bad_payload: 1,
        };
        assert_eq!(o.failed(), 10);
        assert_eq!(o.failed_frac(), 0.05);
        assert_eq!(Outcomes::default().failed_frac(), 0.0);
        let mut m = o;
        m.merge(&o);
        assert_eq!(m.failed_frac(), 0.05);
    }

    fn rung(rate: f64, p99_us: u64, failures: u64, backlog: &[u64]) -> Rung {
        Rung {
            rate,
            lat: lat(std::iter::repeat_n(p99_us, 1000), failures),
            backlog: backlog.to_vec(),
        }
    }

    #[test]
    fn backlog_test_separates_steady_from_growing() {
        assert!(!backlog_growing(&[10, 12, 11, 13, 12, 11, 12, 12], 4));
        assert!(backlog_growing(&[5, 10, 20, 40, 80, 160, 320, 640], 4));
        // A deep but flat queue is not growth.
        assert!(!backlog_growing(&[200; 8], 4));
        // Too few checkpoints to judge.
        assert!(!backlog_growing(&[1, 100], 4));
    }

    #[test]
    fn capacity_is_last_rung_meeting_limit_without_growth() {
        let flat = [4, 4, 4, 4, 4, 4, 4, 4];
        let grow = [4, 8, 16, 32, 64, 128, 256, 512];
        let rungs = vec![
            rung(1e4, 300, 0, &flat),
            rung(2e4, 500, 0, &flat),
            rung(4e4, 900, 0, &grow),
            rung(8e4, 5000, 0, &grow),
        ];
        // The third rung meets the limit but its backlog grows.
        assert_eq!(capacity_rung(&rungs, 0.99, 1000.0, 4), Some(1));
        // Failures past 1% push p99 over the limit.
        let failing = vec![rung(1e4, 300, 0, &flat), rung(2e4, 300, 20, &flat)];
        assert_eq!(capacity_rung(&failing, 0.99, 1000.0, 4), Some(0));
        // A rung above a failed one does not count.
        let gap = vec![rung(1e4, 2000, 0, &flat), rung(2e4, 300, 0, &flat)];
        assert_eq!(capacity_rung(&gap, 0.99, 1000.0, 4), None);
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let p = Interval { start: 0, end: 100 };
        assert_eq!(self_time(p, &[]), 100);
        assert_eq!(self_time(p, &[Interval { start: 10, end: 30 }]), 80);
        // Overlapping children are covered once.
        assert_eq!(
            self_time(
                p,
                &[
                    Interval { start: 10, end: 30 },
                    Interval { start: 20, end: 50 }
                ]
            ),
            60
        );
        // A child sticking out of the parent only covers the inside part.
        assert_eq!(
            self_time(
                p,
                &[Interval {
                    start: 90,
                    end: 150
                }]
            ),
            90
        );
        // Full coverage leaves nothing.
        assert_eq!(self_time(p, &[Interval { start: 0, end: 100 }]), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
