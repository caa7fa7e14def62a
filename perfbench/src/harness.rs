//! Set-up and the open loop.
//!
//! One generator thread sends request indices at their due times on the
//! wall clock (a fixed rate); the serving thread takes them in order and
//! serves each through [`Replay::serve`], recording its wall times and the
//! CPU time it spent on it. The planner plans on the trace's nominal
//! arrival times, so its decisions do not depend on the host.

use crate::replay::{build_model, Counters, Replay};
use crate::spans::Tracer;
use crate::stats::{Ledger, Outcome};
use crate::workload::{WorkloadSpec, PREROLL_SECS};
use bat_types::RankRequest;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Requests served back to back, untimed, at the end of set-up.
pub const WARMUP_REQUESTS: usize = 20;

/// CPU seconds of the calling thread.
///
/// # Panics
///
/// Panics where the kernel does not report per-thread CPU time; the
/// benchmark times its service on that clock.
pub fn cpu_s() -> f64 {
    crate::host::thread_cpu_s().expect("the kernel reports per-thread CPU time")
}

/// A set-up worker and the trace it serves.
pub struct Setup {
    /// The serving state after warm-up.
    pub replay: Replay,
    /// The workload's full trace.
    pub trace: Vec<RankRequest>,
    /// Seconds of the whole set-up.
    pub setup_s: f64,
    /// CPU seconds the set-up thread ran.
    pub setup_cpu_s: f64,
    /// Seconds spent generating the trace.
    pub trace_s: f64,
    /// Seconds spent in the offline KV pre-computation.
    pub precompute_s: f64,
    /// Requests only planned, before the warm-up.
    pub preroll: usize,
    /// Index of the first request after the warm-up.
    pub first_timed: usize,
    /// Warm-up requests that failed.
    pub warmup_failed: usize,
}

/// Builds the weights, the trace, the planner and the stores; plans the
/// requests of the first [`PREROLL_SECS`] of trace time, so the planner's
/// caches and frequency estimates reach steady state; precomputes the KV
/// the next requests will read; then serves [`WARMUP_REQUESTS`] of them
/// untimed, leaving `timed` requests for the window.
///
/// # Errors
///
/// Returns a message if the loopback link cannot be set up or the trace is
/// too short for the run.
pub fn set_up(spec: &WorkloadSpec, seed: u64, timed: usize) -> Result<Setup, String> {
    let t = Instant::now();
    let cpu0 = cpu_s();
    let model = build_model();
    let tt = Instant::now();
    let trace = spec.trace(seed);
    let trace_s = tt.elapsed().as_secs_f64();
    let preroll = trace.partition_point(|r| r.arrival.as_secs() < PREROLL_SECS);
    let first_timed = preroll + WARMUP_REQUESTS;
    let end = first_timed + timed;
    if trace.len() < end {
        return Err(format!(
            "the trace has {} requests; the run needs {end}",
            trace.len()
        ));
    }
    let mut replay =
        Replay::new(model, &spec.engine_config()).map_err(|e| format!("loopback link: {e}"))?;
    replay.preroll(&trace[..preroll]);
    let tp = Instant::now();
    replay.precompute(&trace[preroll..end]);
    let precompute_s = tp.elapsed().as_secs_f64();
    let mut tracer = Tracer::new(false, t);
    let mut warmup_failed = 0;
    for req in &trace[preroll..first_timed] {
        let served = catch_unwind(AssertUnwindSafe(|| replay.serve(req, &mut tracer, false)));
        if served.is_err() {
            warmup_failed += 1;
        }
    }
    Ok(Setup {
        replay,
        trace,
        setup_s: t.elapsed().as_secs_f64(),
        setup_cpu_s: cpu_s() - cpu0,
        trace_s,
        precompute_s,
        preroll,
        first_timed,
        warmup_failed,
    })
}

/// A request whose scores are checked against the reference forward after
/// the window.
pub struct Kept {
    /// Index in the window.
    pub idx: usize,
    /// Scores the replay returned.
    pub scores: Vec<f32>,
    /// The unsplit prompt.
    pub prompt: bat_model::TokenSeq,
    /// Candidate identifier tokens, in candidate order.
    pub ids: Vec<u32>,
}

/// What one timed window measured.
pub struct Window {
    /// One entry per request sent, in due order.
    pub outcomes: Vec<Outcome>,
    /// How late the generator sent each request, ms.
    pub gen_lag_ms: Vec<f64>,
    /// Requests kept for the reference check.
    pub kept: Vec<Kept>,
    /// Spans (empty unless traced).
    pub tracer: Tracer,
    /// Layer counters over the window.
    pub counters: Counters,
    /// Ledger over the window.
    pub ledger: Ledger,
    /// Wall seconds from the window's start to the last completion.
    pub wall_s: f64,
    /// Share of the host's CPU time stolen by the hypervisor during the
    /// window (0 where the host does not report it).
    pub steal_share: f64,
}

/// Serves `requests` open-loop at `rate_rps`, keeping every
/// `check_every`-th request for the reference check.
pub fn run_window(
    replay: &mut Replay,
    requests: &[RankRequest],
    rate_rps: f64,
    check_every: usize,
    traced: bool,
) -> Window {
    let n = requests.len();
    let (counters0, ledger0) = (replay.counters, replay.ledger);
    let ticks0 = crate::host::cpu_ticks();
    let (tx, rx) = mpsc::channel::<usize>();
    // A short lead lets the generator thread start before the first due.
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut tracer = Tracer::new(traced, t0);
    let mut outcomes = Vec::with_capacity(n);
    let mut kept = Vec::new();
    let secs = |t: Instant| t.saturating_duration_since(t0).as_secs_f64();
    let gen_lag_ms = std::thread::scope(|s| {
        let gen = s.spawn(move || {
            let mut lag = Vec::with_capacity(n);
            for i in 0..n {
                let due = t0 + Duration::from_secs_f64(i as f64 / rate_rps);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                tx.send(i).expect("serving thread receives every request");
            }
            lag
        });
        for _ in 0..n {
            let i = rx.recv().expect("generator sends every request");
            let cpu0 = cpu_s();
            let start = Instant::now();
            let keep = i % check_every == 0;
            let served = catch_unwind(AssertUnwindSafe(|| {
                replay.serve(&requests[i], &mut tracer, keep)
            }));
            let done = Instant::now();
            let cpu_ms = (cpu_s() - cpu0) * 1e3;
            let ok = match served {
                Ok(served) => {
                    if let Some((prompt, ids)) = served.prompt {
                        kept.push(Kept {
                            idx: i,
                            scores: served.scores,
                            prompt,
                            ids,
                        });
                    }
                    true
                }
                Err(_) => {
                    tracer.close_all();
                    false
                }
            };
            outcomes.push(Outcome {
                due_s: i as f64 / rate_rps,
                start_s: secs(start),
                done_s: secs(done),
                cpu_ms,
                ok,
            });
        }
        gen.join().expect("generator thread")
    });
    let wall_s = outcomes.last().map_or(0.0, |o: &Outcome| o.done_s);
    let steal_share = match (ticks0, crate::host::cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    };
    Window {
        outcomes,
        gen_lag_ms,
        kept,
        tracer,
        counters: replay.counters.since(&counters0),
        ledger: replay.ledger.since(&ledger0),
        wall_s,
        steal_share,
    }
}

/// Checks the kept requests' scores against `forward_reference` on the
/// unsplit prompt; returns the window indices that disagree by more than
/// `tol`.
pub fn reference_mismatches(replay: &Replay, kept: &[Kept], tol: f32) -> Vec<usize> {
    kept.iter()
        .filter(|k| {
            let reference = replay
                .model()
                .forward_reference(&k.prompt, None)
                .candidate_scores(&k.ids);
            k.scores.len() != reference.len()
                || k.scores
                    .iter()
                    .zip(&reference)
                    .any(|(a, b)| (a - b).abs() > tol)
        })
        .map(|k| k.idx)
        .collect()
}
