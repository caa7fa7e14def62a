//! The harness's own statistics: percentiles under the ten-beyond rule,
//! open-loop latency, SLO attainment, backlog, and the token ledger that the
//! replay must share with `ServingEngine::run`.

use bat_sim::RunStats;

/// A percentile is reported only when at least this many samples lie
/// beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (in `[0, 1]`) among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Nearest-rank percentile `p` of `samples` (any order); `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// [`percentile`], but `None` unless at least [`MIN_BEYOND`] samples lie
/// beyond it.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples_beyond(samples.len(), p) < MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// [`percentile`] with 0 for an empty sample (per-layer counters of a stage
/// a workload never reaches).
pub fn percentile_or_zero(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// One request of the open loop, on the run's clock (seconds since the
/// timed window opened).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// When the request was due to be sent.
    pub due_s: f64,
    /// When the serving thread started on it.
    pub start_s: f64,
    /// When its scores were returned (or its failure was known).
    pub done_s: f64,
    /// CPU time the serving thread spent on it, ms.
    pub cpu_ms: f64,
    /// Whether it returned checked scores.
    pub ok: bool,
}

impl Outcome {
    /// Latency from the due time, so a stall also charges every request
    /// queued behind it.
    pub fn latency_ms(&self) -> f64 {
        (self.done_s - self.due_s) * 1e3
    }

    /// Time spent waiting for the serving thread.
    pub fn queue_ms(&self) -> f64 {
        (self.start_s - self.due_s) * 1e3
    }

    /// Time the serving thread spent on the request.
    pub fn service_ms(&self) -> f64 {
        (self.done_s - self.start_s) * 1e3
    }
}

/// The window replayed on the serving thread's CPU clock: in due order,
/// each request starts when it is due or when the one before it is done,
/// whichever is later, and takes its CPU time. Time the thread spent off
/// the CPU (stolen by the hypervisor, or taken by other processes) then
/// delays no request, while every change in the program's own work still
/// shows, together with the queueing it causes at the workload's rate.
pub fn on_cpu_clock(outcomes: &[Outcome]) -> Vec<Outcome> {
    let mut free_s = f64::NEG_INFINITY;
    outcomes
        .iter()
        .map(|o| {
            let start_s = o.due_s.max(free_s);
            let done_s = start_s + o.cpu_ms / 1e3;
            free_s = done_s;
            Outcome {
                start_s,
                done_s,
                ..*o
            }
        })
        .collect()
}

/// Latencies of the requests that returned scores.
pub fn ok_latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .filter(|o| o.ok)
        .map(Outcome::latency_ms)
        .collect()
}

/// Share of requests *sent* that returned checked scores within
/// `limit_ms`; a failed request counts as a miss.
pub fn slo_attainment(outcomes: &[Outcome], limit_ms: f64) -> f64 {
    if outcomes.is_empty() {
        return 0.0;
    }
    let met = outcomes
        .iter()
        .filter(|o| o.ok && o.latency_ms() <= limit_ms)
        .count();
    met as f64 / outcomes.len() as f64
}

/// Requests due by `t` and not yet finished at `t`.
pub fn backlog_at(outcomes: &[Outcome], t: f64) -> usize {
    outcomes
        .iter()
        .filter(|o| o.due_s <= t && o.done_s > t)
        .count()
}

/// Time-averaged backlog over `[from, to)`: the requests due and not yet
/// finished, averaged over the interval.
pub fn mean_backlog(outcomes: &[Outcome], from: f64, to: f64) -> f64 {
    let waiting: f64 = outcomes
        .iter()
        .map(|o| (o.done_s.min(to) - o.due_s.max(from)).max(0.0))
        .sum();
    waiting / (to - from)
}

/// Mean backlog a second half-window must exceed before it counts as
/// growing; a steady queue at the benchmark's rates averages under one.
pub const GROWING_BACKLOG: f64 = 4.0;

/// A backlog is growing when its mean over the window's second half is
/// above both [`GROWING_BACKLOG`] and twice its mean over the first half:
/// the offered rate exceeds what the serving thread sustains (a backlog
/// growing linearly from empty averages three times as much over the
/// second half as over the first), so the percentiles are not steady-state
/// numbers. Means over halves, unlike the backlog at one instant, do not
/// trip on a short burst of slow requests.
pub fn backlog_grows(first_half: f64, second_half: f64) -> bool {
    second_half > (2.0 * first_half).max(GROWING_BACKLOG)
}

/// The tokens and bytes a replay moved, in the units `RunStats` counts.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Ledger {
    /// Prompt tokens served from cached KV.
    pub reused_tokens: u64,
    /// Prompt tokens computed for the request.
    pub computed_tokens: u64,
    /// Requests laid out user-as-prefix.
    pub up_requests: u64,
    /// Requests laid out item-as-prefix.
    pub ip_requests: u64,
    /// Nominal KV bytes of the entries pulled from remote holders.
    pub remote_bytes: u64,
}

impl Ledger {
    /// The same counters from a simulated run.
    pub fn of_run(stats: &RunStats) -> Self {
        Ledger {
            reused_tokens: stats.reused_tokens,
            computed_tokens: stats.computed_tokens,
            up_requests: stats.up_requests as u64,
            ip_requests: stats.ip_requests as u64,
            remote_bytes: stats.remote_bytes.as_u64(),
        }
    }

    /// The counters accumulated after `earlier` was taken.
    pub fn since(&self, earlier: &Ledger) -> Ledger {
        Ledger {
            reused_tokens: self.reused_tokens - earlier.reused_tokens,
            computed_tokens: self.computed_tokens - earlier.computed_tokens,
            up_requests: self.up_requests - earlier.up_requests,
            ip_requests: self.ip_requests - earlier.ip_requests,
            remote_bytes: self.remote_bytes - earlier.remote_bytes,
        }
    }

    /// One line per counter that differs from `expected`; empty when equal.
    pub fn mismatches(&self, expected: &Ledger) -> Vec<String> {
        let pairs = [
            ("reused_tokens", self.reused_tokens, expected.reused_tokens),
            (
                "computed_tokens",
                self.computed_tokens,
                expected.computed_tokens,
            ),
            ("up_requests", self.up_requests, expected.up_requests),
            ("ip_requests", self.ip_requests, expected.ip_requests),
            ("remote_bytes", self.remote_bytes, expected.remote_bytes),
        ];
        pairs
            .iter()
            .filter(|(_, got, want)| got != want)
            .map(|(name, got, want)| format!("{name}: replay {got} != engine {want}"))
            .collect()
    }
}
