//! Tests of the harness's own statistics and bookkeeping.

use bat_sim::{RequestPlanner, ServingEngine};
use bat_types::PrefixKind;
use perfbench::spans::Tracer;
use perfbench::stats::{
    backlog_at, backlog_grows, mean_backlog, ok_latencies_ms, on_cpu_clock, percentile,
    samples_beyond, slo_attainment, supported_percentile, Ledger, Outcome, MIN_BEYOND,
};
use perfbench::workload::WorkloadSpec;
use std::time::Instant;

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled 1..=n, so selection must sort.
    (0..n).map(|i| ((i * 7919) % n + 1) as f64).collect()
}

#[test]
fn percentile_is_nearest_rank() {
    let s = ramp(200);
    assert_eq!(percentile(&s, 0.5), Some(100.0));
    assert_eq!(percentile(&s, 0.95), Some(190.0));
    assert_eq!(percentile(&s, 1.0), Some(200.0));
    assert_eq!(percentile(&[], 0.5), None);
}

#[test]
fn percentile_needs_ten_samples_beyond() {
    // 200 samples leave exactly ten above p95; 199 leave nine.
    assert_eq!(samples_beyond(200, 0.95), MIN_BEYOND);
    assert_eq!(supported_percentile(&ramp(200), 0.95), Some(190.0));
    assert_eq!(samples_beyond(199, 0.95), MIN_BEYOND - 1);
    assert_eq!(supported_percentile(&ramp(199), 0.95), None);
    // p99 needs a thousand samples.
    assert_eq!(supported_percentile(&ramp(999), 0.99), None);
    assert_eq!(supported_percentile(&ramp(1000), 0.99), Some(990.0));
    // The median is supported from twenty samples on.
    assert_eq!(supported_percentile(&ramp(19), 0.5), None);
    assert_eq!(supported_percentile(&ramp(20), 0.5), Some(10.0));
}

/// An outcome whose CPU time equals its wall service time.
fn outcome(due_s: f64, start_s: f64, done_s: f64, ok: bool) -> Outcome {
    Outcome {
        due_s,
        start_s,
        done_s,
        cpu_ms: (done_s - start_s) * 1e3,
        ok,
    }
}

#[test]
fn latency_counts_from_the_due_time() {
    // Due at 1.0 s, started 50 ms late behind a stalled request, served in
    // 10 ms: the user waited 60 ms, not 10.
    let o = outcome(1.0, 1.05, 1.06, true);
    assert!((o.latency_ms() - 60.0).abs() < 1e-9);
    assert!((o.queue_ms() - 50.0).abs() < 1e-9);
    assert!((o.service_ms() - 10.0).abs() < 1e-9);
}

#[test]
fn cpu_clock_replays_the_queue_on_cpu_time() {
    // Request 0 ran 100 ms of wall time but only 20 ms on the CPU (the
    // rest was stolen); request 1, due at 10 ms, queued behind it.
    let wall = [
        Outcome {
            cpu_ms: 20.0,
            ..outcome(0.0, 0.0, 0.1, true)
        },
        outcome(0.01, 0.1, 0.12, true),
        outcome(0.5, 0.5, 0.51, false),
    ];
    let cpu = on_cpu_clock(&wall);
    // Request 0 takes its 20 ms of CPU time; request 1 waits 10 ms for it,
    // then takes 20 ms: 30 ms from its due time, not 110.
    let lat: Vec<f64> = cpu.iter().map(Outcome::latency_ms).collect();
    assert!((lat[0] - 20.0).abs() < 1e-9);
    assert!((lat[1] - 30.0).abs() < 1e-9);
    assert!((cpu[1].queue_ms() - 10.0).abs() < 1e-9);
    // A request due after the server is idle starts at its due time; a
    // failed one keeps its place and its flag.
    assert!((cpu[2].start_s - 0.5).abs() < 1e-12);
    assert!(!cpu[2].ok);
    assert_eq!(ok_latencies_ms(&cpu).len(), 2);
}

#[test]
fn slo_attainment_counts_failures_as_misses() {
    let outcomes = [
        outcome(0.0, 0.0, 0.010, true),  // 10 ms: met
        outcome(0.1, 0.1, 0.105, false), // fast but failed: missed
        outcome(0.2, 0.3, 0.320, true),  // 120 ms from due: missed at 100 ms
        outcome(0.3, 0.3, 0.350, true),  // 50 ms: met
    ];
    assert!((slo_attainment(&outcomes, 100.0) - 0.5).abs() < 1e-12);
    assert!((slo_attainment(&outcomes, 200.0) - 0.75).abs() < 1e-12);
    assert_eq!(ok_latencies_ms(&outcomes).len(), 3);
    assert_eq!(slo_attainment(&[], 100.0), 0.0);
}

#[test]
fn backlog_counts_due_and_unfinished() {
    let outcomes = [
        outcome(0.0, 0.0, 0.5, true),
        outcome(0.1, 0.5, 1.5, true),
        outcome(0.2, 1.5, 2.5, true),
        outcome(3.0, 3.0, 3.1, true),
    ];
    assert_eq!(backlog_at(&outcomes, 1.0), 2);
    assert_eq!(backlog_at(&outcomes, 2.0), 1);
    assert_eq!(backlog_at(&outcomes, 2.9), 0);
    // Over [0, 2): request 0 waits 0.5 s, request 1 1.4 s, request 2 1.8 s.
    assert!((mean_backlog(&outcomes, 0.0, 2.0) - 1.85).abs() < 1e-12);
    assert!((mean_backlog(&outcomes, 2.0, 4.0) - 0.3).abs() < 1e-12);
}

#[test]
fn only_a_backlog_that_keeps_growing_fails() {
    assert!(!backlog_grows(3.0, 3.0));
    assert!(!backlog_grows(0.0, 4.0));
    assert!(backlog_grows(3.0, 9.0));
    // Offered 10 req/s, served 8 req/s: the backlog is about 2t + 1, so
    // over a 20 s window its halves average 11 and 31.
    let outcomes: Vec<Outcome> = (0..200)
        .map(|i| {
            let due = i as f64 / 10.0;
            let done = (i + 1) as f64 / 8.0;
            outcome(due, done - 0.125, done, true)
        })
        .collect();
    let first = mean_backlog(&outcomes, 0.0, 10.0);
    let second = mean_backlog(&outcomes, 10.0, 20.0);
    assert!((first - 11.0).abs() < 0.1 && (second - 31.0).abs() < 0.1);
    assert!(backlog_grows(first, second));
    // Served 20 req/s: a short queue, never growing.
    let steady: Vec<Outcome> = (0..200)
        .map(|i| {
            let due = i as f64 / 10.0;
            outcome(due, due, due + 0.05, true)
        })
        .collect();
    let (a, b) = (
        mean_backlog(&steady, 0.0, 10.0),
        mean_backlog(&steady, 10.0, 20.0),
    );
    assert!((a - 0.5).abs() < 1e-9 && (b - 0.5).abs() < 1e-9);
    assert!(!backlog_grows(a, b));
}

#[test]
fn ledger_mismatches_name_each_counter() {
    let a = Ledger {
        reused_tokens: 10,
        computed_tokens: 20,
        up_requests: 1,
        ip_requests: 2,
        remote_bytes: 300,
    };
    assert!(a.mismatches(&a).is_empty());
    let b = Ledger {
        computed_tokens: 21,
        remote_bytes: 0,
        ..a
    };
    let diff = a.mismatches(&b);
    assert_eq!(diff.len(), 2);
    assert!(diff[0].starts_with("computed_tokens: replay 20 != engine 21"));
    assert!(diff[1].starts_with("remote_bytes"));
    let earlier = Ledger {
        reused_tokens: 4,
        ip_requests: 2,
        ..Ledger::default()
    };
    assert_eq!(
        a.since(&earlier),
        Ledger {
            reused_tokens: 6,
            ip_requests: 0,
            ..a
        }
    );
}

/// The ledger check compares the replay against the engine's run to the
/// window's end minus its run to the window's start. That is sound only if
/// the engine's counters are the per-request sums of the planner's jobs, in
/// trace order; this pins it.
#[test]
fn engine_ledger_is_additive_over_planned_requests() {
    let spec = WorkloadSpec::find("games-up").expect("workload exists");
    let trace = spec.trace(3);
    let (start, end) = (400, 700);
    let run = |n: usize| {
        let mut engine = ServingEngine::new(spec.engine_config()).expect("valid config");
        Ledger::of_run(&engine.run(&trace[..n]))
    };
    let expected = run(end).since(&run(start));
    let mut planner = RequestPlanner::from_config(&spec.engine_config());
    let mut got = Ledger::default();
    for (i, req) in trace[..end].iter().enumerate() {
        let job = planner.plan(req, req.arrival.as_secs());
        if i < start {
            continue;
        }
        got.reused_tokens += job.reused_tokens();
        got.computed_tokens += job.suffix_tokens;
        got.remote_bytes += job.remote_bytes.as_u64();
        match job.prefix {
            PrefixKind::User => got.up_requests += 1,
            PrefixKind::Item => got.ip_requests += 1,
        }
    }
    assert!(
        got.mismatches(&expected).is_empty(),
        "{got:?} vs {expected:?}"
    );
    assert!(got.up_requests > 0 && got.ip_requests > 0);
}

#[test]
fn self_time_excludes_child_spans() {
    let mut t = Tracer::new(true, Instant::now());
    let root = t.begin("request", 7);
    let child = t.begin("assemble", 7);
    let grandchild = t.begin("compute_kv", 7);
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.end(grandchild);
    t.end(child);
    t.end(root);
    let spans = t.spans();
    assert_eq!(spans.len(), 3);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[2].parent, Some(1));
    assert!(spans.iter().all(|s| s.req == 7));
    let own = t.self_times_ns();
    let total: u64 = own.iter().sum();
    assert_eq!(total, spans[0].dur_ns(), "self times partition the root");
    assert!(own[2] >= 2_000_000);
    // A disabled tracer records nothing.
    let mut off = Tracer::new(false, Instant::now());
    let s = off.begin("plan", 1);
    off.end(s);
    assert!(off.spans().is_empty());
}
