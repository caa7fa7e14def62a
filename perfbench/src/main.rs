//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets the workload up [`SETUPS`] times (the median is `setup_s`), serves
//! `rate × seconds` requests open-loop on the last set-up, checks the
//! outputs, and prints every metric by name and unit. The last line of
//! standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when a score check or the ledger check fails, or when the
//! backlog grows over the window.
//!
//! End-to-end times are taken on the serving thread's CPU clock, which
//! leaves out the time a busy virtual-machine host steals: set-up and
//! service are CPU seconds, and latency is the window replayed on those
//! service times ([`stats::on_cpu_clock`]). The wall-clock figures are
//! printed beside them. The compute pool runs one thread unless
//! `BAT_THREADS` says otherwise, so the serving thread's CPU time is the
//! request's compute.
//!
//! A traced run serves the same `rate × seconds / 2` requests twice, on two
//! fresh set-ups: untraced, then with spans. The difference of the two
//! mean latencies is the tracing overhead.

use perfbench::harness::{self, Window, WARMUP_REQUESTS};
use perfbench::host::{self, Fingerprint};
use perfbench::stats::{self, Ledger, Outcome};
use perfbench::workload::{WorkloadSpec, TOKEN_SCALE, WORKLOADS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests per window checked against the reference forward.
const CHECKS: usize = 4;
/// Largest score difference from `forward_reference` accepted.
const SCORE_TOL: f32 = 1e-3;
/// `sim.replay_rps` times a batch of simulated runs at six points spread
/// over the run (at the start, after each set-up, after the window and after
/// the checks), each of at least this many repetitions and CPU seconds, and
/// reports the median batch. Memory-bound work like the simulator changes
/// speed by up to a third on the CPU clock for seconds at a time as other
/// machines load the host; batches spread over the run meet different host
/// states, and their median follows the state the host is in most.
const SIM_BATCH_REPS: usize = 2;
const SIM_BATCH_SECS: f64 = 0.4;

struct Args {
    spec: &'static WorkloadSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(usage());
        };
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |f: &str| flags.get(f).copied().ok_or_else(usage);
    let name = get("--workload")?;
    let spec = WorkloadSpec::find(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let bad = |f: &str| format!("bad value for {f}\n{}", usage());
    let seed = get("--seed")?.parse().map_err(|_| bad("--seed"))?;
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| bad("--seconds"))?;
    let traced = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err(bad("--trace")),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(usage());
    }
    Ok(Args {
        spec,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Requests per CPU second of `ServingEngine::run` over the full trace, over
/// one batch of repetitions.
fn sim_batch_rps(spec: &WorkloadSpec, trace: &[bat_types::RankRequest]) -> f64 {
    let cfg = spec.engine_config();
    let mut reps = 0;
    let t = harness::cpu_s();
    while reps < SIM_BATCH_REPS || harness::cpu_s() - t < SIM_BATCH_SECS {
        let mut engine = bat_sim::ServingEngine::new(cfg.clone()).expect("workload config");
        std::hint::black_box(engine.run(std::hint::black_box(trace)));
        reps += 1;
    }
    (reps * trace.len()) as f64 / (harness::cpu_s() - t)
}

fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// Metrics in print order: name, value, unit.
type Metrics = Vec<(String, f64, &'static str)>;

fn push(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
    m.push((name.to_owned(), value + 0.0, unit));
}

fn run() -> Result<ExitCode, String> {
    let process_start = Instant::now();
    let args = parse_args()?;
    let spec = args.spec;
    let nproc = host::nproc();
    match std::env::var("BAT_THREADS") {
        Ok(v) if v.trim().parse::<usize>().is_ok_and(|t| t > nproc) => {
            return Err(format!("BAT_THREADS={v} exceeds nproc={nproc}"));
        }
        Ok(_) => {}
        // One compute thread: the worker's compute stays on the serving
        // thread's CPU clock, and the generator has a core of its own.
        Err(_) => std::env::set_var("BAT_THREADS", "1"),
    }
    if host::thread_cpu_s().is_none() {
        return Err("the kernel reports no per-thread CPU time".into());
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository");
    let fp = Fingerprint::read(root);
    println!(
        "host: cpu=\"{}\" simd={} nproc={} BAT_THREADS={} pool_threads={} commit={}",
        fp.cpu,
        fp.simd_tier,
        fp.nproc,
        fp.bat_threads.as_deref().unwrap_or("unset"),
        fp.pool_threads,
        fp.commit
    );
    println!(
        "run: workload={} seed={} seconds={} trace={} rate_rps={} latency_limit_ms={} token_scale={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.traced),
        spec.rate_rps,
        spec.latency_limit_ms,
        TOKEN_SCALE
    );

    let window_s = if args.traced {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let n = (spec.rate_rps * window_s).round().max(1.0) as usize;
    let check_every = (n / CHECKS).max(1);
    let mut setup_cpu = Vec::new();
    let mut setup_wall = Vec::new();
    let mut untraced_mean = None;
    let mut sim_batches = Vec::new();
    if args.traced {
        sim_batches.push(sim_batch_rps(spec, &spec.trace(args.seed)));
    }
    let mut last = None;
    for k in 0..SETUPS {
        let mut setup = harness::set_up(spec, args.seed, n)?;
        setup_cpu.push(setup.setup_cpu_s);
        setup_wall.push(setup.setup_s);
        println!(
            "setup {k}: {:.3} CPU s, {:.3} wall s (trace {:.3} s, {} requests, {} planned only, KV precomputed in {:.3} s); warm-up sent {} succeeded {} failed {}",
            setup.setup_cpu_s,
            setup.setup_s,
            setup.trace_s,
            setup.trace.len(),
            setup.preroll,
            setup.precompute_s,
            WARMUP_REQUESTS,
            WARMUP_REQUESTS - setup.warmup_failed,
            setup.warmup_failed
        );
        if args.traced {
            sim_batches.push(sim_batch_rps(spec, &setup.trace));
        }
        let needed = setup.first_timed + n;
        let timed = &setup.trace[setup.first_timed..needed];
        if k + 1 == SETUPS {
            let window = harness::run_window(
                &mut setup.replay,
                timed,
                spec.rate_rps,
                check_every,
                args.traced,
            );
            last = Some((setup, window));
        } else if args.traced && k + 2 == SETUPS {
            let window =
                harness::run_window(&mut setup.replay, timed, spec.rate_rps, check_every, false);
            untraced_mean = Some(mean(&stats::ok_latencies_ms(&stats::on_cpu_clock(
                &window.outcomes,
            ))));
            setup.replay.close();
        } else {
            setup.replay.close();
        }
    }
    let (setup, mut window) = last.expect("the last set-up runs the window");
    if args.traced {
        sim_batches.push(sim_batch_rps(spec, &setup.trace));
    }

    // Output checks, outside the timed window.
    let check_start = Instant::now();
    let mismatches = harness::reference_mismatches(&setup.replay, &window.kept, SCORE_TOL);
    for &i in &mismatches {
        window.outcomes[i].ok = false;
    }
    println!(
        "check: {} of {} kept requests match forward_reference within {SCORE_TOL} ({:.2} s)",
        window.kept.len() - mismatches.len(),
        window.kept.len(),
        check_start.elapsed().as_secs_f64()
    );
    // The replay served requests [preroll, needed); the engine's counters
    // over that span are its run to `needed` minus its run to `preroll`.
    let needed = setup.first_timed + n;
    let engine_ledger = |end: usize| -> Result<Ledger, String> {
        let mut engine = bat_sim::ServingEngine::new(spec.engine_config())
            .map_err(|e| format!("engine config: {e}"))?;
        Ok(Ledger::of_run(&engine.run(&setup.trace[..end])))
    };
    let expected = engine_ledger(needed)?.since(&engine_ledger(setup.preroll)?);
    let ledger_diff = setup.replay.ledger.mismatches(&expected);
    if ledger_diff.is_empty() {
        println!(
            "check: ledger equals ServingEngine::run over requests {}..{needed}: {:?}",
            setup.preroll, setup.replay.ledger
        );
    }
    for d in &ledger_diff {
        println!("check FAILED: ledger {d}");
    }
    let resident_mb = setup.replay.resident_bytes() as f64 / (1u64 << 20) as f64;
    setup.replay.close();

    let sent = window.outcomes.len();
    let failed = window.outcomes.iter().filter(|o| !o.ok).count();
    println!(
        "timed: sent {sent} succeeded {} failed {failed}",
        sent - failed
    );
    let (c, l) = (window.counters, window.ledger);
    println!(
        "mix: UP {} IP {} reused {} computed {} tokens; store hits {} fills {} evictions {}; pulls {}",
        l.up_requests, l.ip_requests, l.reused_tokens, l.computed_tokens, c.hits, c.fills, c.evictions, c.pulls
    );
    println!(
        "host: {:.1}% of CPU time stolen by the hypervisor during the window",
        window.steal_share * 100.0
    );
    let lag_p95 = stats::percentile_or_zero(&window.gen_lag_ms, 0.95);
    let lag_max = window.gen_lag_ms.iter().copied().fold(0.0, f64::max);
    println!("generator: lateness p95 {lag_p95:.3} ms, max {lag_max:.3} ms");
    let wall_lat = stats::ok_latencies_ms(&window.outcomes);
    println!(
        "wall clock: latency mean {:.2} p95 {:.2} ms; backlog {} at mid-window, {} at end",
        mean(&wall_lat),
        stats::percentile_or_zero(&wall_lat, 0.95),
        stats::backlog_at(&window.outcomes, window_s / 2.0),
        stats::backlog_at(&window.outcomes, window_s)
    );
    // Sustainability is judged on the CPU clock, where the host's
    // interference cannot make the backlog grow; only the program can.
    let on_cpu = stats::on_cpu_clock(&window.outcomes);
    let half = window_s / 2.0;
    let first = stats::mean_backlog(&on_cpu, 0.0, half);
    let second = stats::mean_backlog(&on_cpu, half, window_s);
    let end = stats::backlog_at(&on_cpu, window_s);
    let sustainable = !stats::backlog_grows(first, second);
    println!(
        "backlog: mean {first:.2} over the first half, {second:.2} over the second, {end} at end{}",
        if sustainable {
            ""
        } else {
            " -> check FAILED: the backlog grows, so the latencies are not steady-state values"
        }
    );

    let metrics = if args.traced {
        sim_batches.push(sim_batch_rps(spec, &setup.trace));
        println!("sim: batches {sim_batches:.0?} req/s");
        let sim_rps = stats::percentile_or_zero(&sim_batches, 0.5);
        let m = per_layer(
            &window,
            &on_cpu,
            resident_mb,
            setup.trace_s,
            untraced_mean,
            end,
            sim_rps,
        );
        write_trace(spec.name, args.seed, &window);
        m
    } else {
        println!(
            "setup: CPU {setup_cpu:?} s, wall {setup_wall:?} s; process up {:.3} s",
            process_start.elapsed().as_secs_f64()
        );
        end_to_end(&on_cpu, spec.latency_limit_ms, &setup_cpu)?
    };
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let correct = mismatches.is_empty()
        && ledger_diff.is_empty()
        && failed == 0
        && setup.warmup_failed == 0
        && sustainable;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {sent}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// End-to-end metrics of a window given on the CPU clock.
fn end_to_end(on_cpu: &[Outcome], limit_ms: f64, setup_cpu: &[f64]) -> Result<Metrics, String> {
    let lat = stats::ok_latencies_ms(on_cpu);
    let p95 = stats::supported_percentile(&lat, 0.95).ok_or_else(|| {
        format!(
            "{} samples leave fewer than {} beyond p95; run longer",
            lat.len(),
            stats::MIN_BEYOND
        )
    })?;
    let q = |p: f64| stats::percentile_or_zero(&lat, p);
    let service: Vec<f64> = on_cpu.iter().map(Outcome::service_ms).collect();
    println!(
        "service: p50 {:.1} p95 {:.1} ms",
        stats::percentile_or_zero(&service, 0.5),
        stats::percentile_or_zero(&service, 0.95)
    );
    println!(
        "latency: {} samples, {} beyond p95; p50 {:.1} p80 {:.1} p90 {:.1} p95 {:.1} max {:.1} ms",
        lat.len(),
        stats::samples_beyond(lat.len(), 0.95),
        q(0.5),
        q(0.8),
        q(0.9),
        q(0.95),
        q(1.0)
    );
    let sent = on_cpu.len();
    let ok = on_cpu.iter().filter(|o| o.ok).count();
    let busy_s: f64 = on_cpu.iter().map(|o| o.cpu_ms / 1e3).sum();
    let mut m = Metrics::new();
    // The mean, not the median: where UP and IP requests each make up about
    // half of a workload and UP runs several times slower, the median sits
    // between the two modes and jumps from one to the other between runs.
    push(&mut m, "mean_ms", mean(&lat), "ms");
    push(&mut m, "p95_ms", p95, "ms");
    push(
        &mut m,
        "slo_attainment",
        stats::slo_attainment(on_cpu, limit_ms),
        "ratio",
    );
    push(&mut m, "service_rps", ok as f64 / busy_s, "req/s");
    push(&mut m, "success_share", ok as f64 / sent as f64, "ratio");
    push(
        &mut m,
        "setup_s",
        stats::percentile_or_zero(setup_cpu, 0.5),
        "s",
    );
    push(
        &mut m,
        "peak_rss_mb",
        host::peak_rss_mb().unwrap_or(0.0),
        "MB",
    );
    Ok(m)
}

fn per_layer(
    window: &Window,
    on_cpu: &[Outcome],
    resident_mb: f64,
    trace_s: f64,
    untraced_mean: Option<f64>,
    backlog_end: usize,
    sim_rps: f64,
) -> Metrics {
    let spans = window.tracer.spans();
    let own = window.tracer.self_times_ns();
    // Self times by span name, in the unit each metric reports.
    let mut by: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (s, &t) in spans.iter().zip(&own) {
        by.entry(s.name).or_default().push(t as f64);
    }
    // Mean self time per request of each stage, ms; `request` is the
    // harness's own time between the stages.
    let requests = window.outcomes.len().max(1) as f64;
    let stage_ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| by.get(n))
            .flatten()
            .sum::<f64>()
            / 1e6
            / requests
    };
    let stages = [
        ("plan", stage_ms(&["plan"])),
        ("assemble", stage_ms(&["assemble"])),
        ("pull", stage_ms(&["pull"])),
        ("compute_kv", stage_ms(&["compute_kv"])),
        (
            "forward",
            stage_ms(&["forward_up", "forward_ip", "forward_full"]),
        ),
        ("score", stage_ms(&["score"])),
    ];
    let stage_sum_ms: f64 = stages.iter().map(|(_, v)| v).sum();
    let ms = |name: &str| -> Vec<f64> {
        by.get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|t| t / 1e6).collect())
    };
    let us = |name: &str| -> Vec<f64> {
        by.get(name)
            .map_or_else(Vec::new, |v| v.iter().map(|t| t / 1e3).collect())
    };
    let p = stats::percentile_or_zero;
    let outcomes: &[Outcome] = &window.outcomes;
    let service: Vec<f64> = outcomes.iter().map(Outcome::service_ms).collect();
    let queue: Vec<f64> = outcomes.iter().map(Outcome::queue_ms).collect();
    let service_total_ms: f64 = service.iter().sum();
    let c = window.counters;
    let l = window.ledger;
    let forward_s: f64 = ["forward_up", "forward_ip", "forward_full"]
        .iter()
        .flat_map(|n| ms(n))
        .sum::<f64>()
        / 1e3;
    let traced_mean = mean(&stats::ok_latencies_ms(on_cpu));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    let mut m = Metrics::new();
    let fup = ms("forward_up");
    let fip = ms("forward_ip");
    push(&mut m, "model.forward_up_ms.p50", p(&fup, 0.5), "ms");
    push(&mut m, "model.forward_up_ms.p95", p(&fup, 0.95), "ms");
    push(&mut m, "model.forward_ip_ms.p50", p(&fip, 0.5), "ms");
    push(&mut m, "model.forward_ip_ms.p95", p(&fip, 0.95), "ms");
    push(
        &mut m,
        "model.forward_full_ms.p50",
        p(&ms("forward_full"), 0.5),
        "ms",
    );
    let ckv = ms("compute_kv");
    push(&mut m, "model.compute_kv_ms.p50", p(&ckv, 0.5), "ms");
    push(&mut m, "model.compute_kv_ms.p95", p(&ckv, 0.95), "ms");
    push(&mut m, "model.compute_kv_calls", ckv.len() as f64, "count");
    push(
        &mut m,
        "model.compute_kv_tokens",
        c.compute_kv_tokens as f64,
        "count",
    );
    push(
        &mut m,
        "model.suffix_tokens_per_s",
        ratio(c.suffix_tokens as f64, forward_s),
        "1/s",
    );
    push(&mut m, "model.score_us.p50", p(&us("score"), 0.5), "us");
    let asm = us("assemble");
    push(&mut m, "kvcache.assemble_us.p50", p(&asm, 0.5), "us");
    push(&mut m, "kvcache.assemble_us.p95", p(&asm, 0.95), "us");
    push(&mut m, "kvcache.hits", c.hits as f64, "count");
    push(&mut m, "kvcache.fills", c.fills as f64, "count");
    push(&mut m, "kvcache.inserts", c.inserts as f64, "count");
    push(&mut m, "kvcache.evictions", c.evictions as f64, "count");
    push(
        &mut m,
        "kvcache.hit_ratio",
        ratio(c.hits as f64, (c.hits + c.fills) as f64),
        "ratio",
    );
    push(&mut m, "kvcache.resident_mb", resident_mb, "MB");
    let pulls = us("pull");
    push(&mut m, "net.pulls", c.pulls as f64, "count");
    push(&mut m, "net.pull_bytes", c.pull_bytes as f64, "bytes");
    push(&mut m, "net.pull_us.p50", p(&pulls, 0.5), "us");
    push(&mut m, "net.pull_us.p95", p(&pulls, 0.95), "us");
    let plan = us("plan");
    push(&mut m, "sim.plan_us.p50", p(&plan, 0.5), "us");
    push(&mut m, "sim.plan_us.p95", p(&plan, 0.95), "us");
    push(
        &mut m,
        "sim.up_share",
        ratio(l.up_requests as f64, (l.up_requests + l.ip_requests) as f64),
        "ratio",
    );
    push(
        &mut m,
        "sim.token_reuse",
        ratio(
            l.reused_tokens as f64,
            (l.reused_tokens + l.computed_tokens) as f64,
        ),
        "ratio",
    );
    push(&mut m, "sim.replay_rps", sim_rps, "req/s");
    push(&mut m, "harness.queue_ms.p50", p(&queue, 0.5), "ms");
    push(&mut m, "harness.queue_ms.p95", p(&queue, 0.95), "ms");
    push(&mut m, "harness.service_ms.p50", p(&service, 0.5), "ms");
    push(&mut m, "harness.service_ms.p95", p(&service, 0.95), "ms");
    push(
        &mut m,
        "harness.busy_share",
        ratio(service_total_ms / 1e3, window.wall_s),
        "ratio",
    );
    // Share of the serving thread's wall service time it spent on a CPU;
    // the rest was stolen or taken by other processes.
    let cpu_total_ms: f64 = outcomes.iter().map(|o| o.cpu_ms).sum();
    push(
        &mut m,
        "harness.on_cpu_share",
        ratio(cpu_total_ms, service_total_ms),
        "ratio",
    );
    push(
        &mut m,
        "harness.wall_mean_ms",
        mean(&stats::ok_latencies_ms(outcomes)),
        "ms",
    );
    for (name, v) in stages {
        push(&mut m, &format!("stage.{name}_ms"), v, "ms");
    }
    push(&mut m, "stage.harness_ms", stage_ms(&["request"]), "ms");
    push(
        &mut m,
        "harness.stage_share",
        ratio(stage_sum_ms * requests, service_total_ms),
        "ratio",
    );
    push(
        &mut m,
        "harness.gen_lag_ms.p95",
        p(&window.gen_lag_ms, 0.95),
        "ms",
    );
    push(&mut m, "harness.backlog_end", backlog_end as f64, "count");
    if let Some(base) = untraced_mean {
        push(
            &mut m,
            "harness.trace_overhead_ms",
            traced_mean - base,
            "ms",
        );
    }
    push(&mut m, "workload.trace_s", trace_s, "s");
    push(&mut m, "host.steal_share", window.steal_share, "ratio");
    m
}

/// Writes the window's spans as Chrome trace-event JSON under `out/` in
/// the benchmark's directory.
fn write_trace(workload: &str, seed: u64, window: &Window) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}-seed{seed}.trace.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| window.tracer.write_chrome_trace(&path));
    match written {
        Ok(()) => println!(
            "trace: {} spans -> {}",
            window.tracer.spans().len(),
            path.display()
        ),
        Err(e) => println!("trace: not written ({e})"),
    }
}
