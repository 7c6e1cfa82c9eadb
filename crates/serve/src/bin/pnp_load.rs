//! The serve-path load generator behind `BENCH_serve.json` (SERVING.md
//! "Measuring"): replays paper-suite regions plus `pnp_ir::gen` synthetic
//! kernels against a running `pnp_serve` daemon, sweeping the daemon's
//! batch worker count and reporting sustained throughput and p50/p99
//! latency per phase — written as the same [`pnp_bench::Trajectory`] as the
//! other three perf harnesses (`BENCH_dataset_build.json`,
//! `BENCH_loocv_train.json`, `BENCH_inference.json`). Each phase is one run
//! with `accepted`, `shed`, `deadline_rejected`, `throughput_rps`, `p50_ms`
//! and `p99_ms` metrics; the daemon's counters land in `params`.
//!
//! ```text
//! pnp_load (--addr HOST:PORT | --port-file PATH) [--machine haswell]
//!          [--workers 1,2,4,8] [--requests N] [--inflight N] [--rate R]
//!          [--deadline-ms MS] [--gen-kernels N] [--out BENCH_serve.json]
//!          [--min-speedup S:T] [--min-throughput R] [--max-p99-ms MS]
//!          [--require-sheds] [--wait-machine NAME] [--wait-secs N]
//!          [--shutdown]
//! ```
//!
//! By default the loop is closed with `--inflight` requests outstanding;
//! `--rate R` switches to an open loop offering `R` requests/s (still
//! capped at `--inflight` outstanding so an overloaded daemon applies
//! backpressure instead of unbounded queueing). The `--min-speedup S:T`
//! gate requires batched throughput at `T` workers to reach `S×` the
//! 1-worker phase, with the usual fewer-cores auto-skip; it is a usage
//! error unless `--workers` lists both 1 and `T`. Without a 1-worker phase
//! every `speedup_vs_1w` is `null`. `--min-throughput` is an absolute floor
//! on the best phase.
//!
//! Degradation-aware gates (SERVING.md "Overload behavior"): typed
//! `Rejected` responses are counted as sheds or deadline rejections — never
//! as protocol errors, which must stay zero. Latency percentiles cover
//! *accepted* requests only. `--require-sheds` fails the run when the
//! daemon shed nothing (the overload smoke asserts backpressure actually
//! engaged); `--max-p99-ms` bounds every phase's accepted-p99 — together
//! they demonstrate that under saturation the daemon refuses load fast
//! instead of serving everything slowly. `--wait-machine NAME` polls the
//! daemon until NAME appears in its serving list (up to `--wait-secs`,
//! default 30) — how the reload smoke synchronizes with the registry
//! watcher.

use pnp_bench::{
    anchor_speedups, banner, bool_flag_from, parse_min_speedup, percentile, string_flag_from,
    usage_exit, Run, Trajectory,
};
use pnp_core::serving::{KernelInput, TuneObjective, TuneRequest};
use pnp_serve::{read_message, write_message, Client, RejectReason, Request, Response};
use std::collections::{BTreeMap, HashMap};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const USAGE: &str = "(--addr HOST:PORT | --port-file PATH) [--machine haswell] \
     [--workers 1,2,4,8] [--requests N] [--inflight N] [--rate R] [--deadline-ms MS] \
     [--gen-kernels N] [--out BENCH_serve.json] [--min-speedup S:T] [--min-throughput R] \
     [--max-p99-ms MS] [--require-sheds] [--wait-machine NAME] [--wait-secs N] [--shutdown]";

/// What one measured phase observed on the wire.
struct PhaseOutcome {
    wall_s: f64,
    /// Latencies of accepted (answered) requests only, in milliseconds.
    latencies: Vec<f64>,
    shed: usize,
    deadline_rejected: usize,
    errors: usize,
}

/// The request mix: every region of the paper suite as a `Source` input
/// plus `gen_kernels` generated kernels, round-robined. Returns
/// `(templates, suite count, generated count)`.
fn workload(
    machine: &str,
    gen_kernels: usize,
    deadline_ms: u64,
) -> (Vec<TuneRequest>, usize, usize) {
    let mut kernels: Vec<KernelInput> = Vec::new();
    let mut suite_kernels = 0;
    for app in pnp_benchmarks::full_suite() {
        let regions: Vec<_> = app.regions.iter().map(|r| r.source.clone()).collect();
        for region in &app.regions {
            kernels.push(KernelInput::Source {
                app: app.name.clone(),
                regions: regions.clone(),
                region: region.name().to_string(),
            });
            suite_kernels += 1;
        }
    }
    for (i, kernel) in pnp_ir::gen::corpus(pnp_core::validate::DEFAULT_OOD_SEED, gen_kernels)
        .into_iter()
        .enumerate()
    {
        kernels.push(KernelInput::Source {
            app: format!("gen{i}"),
            region: kernel.source.name.clone(),
            regions: vec![kernel.source],
        });
    }
    let templates = kernels
        .into_iter()
        .enumerate()
        .map(|(i, kernel)| TuneRequest {
            id: i as u64,
            machine: machine.to_string(),
            objective: if i % 2 == 0 {
                TuneObjective::Time { power_idx: 0 }
            } else {
                TuneObjective::Edp
            },
            deadline_ms: (deadline_ms > 0).then_some(deadline_ms),
            kernel,
        })
        .collect();
    (templates, suite_kernels, gen_kernels)
}

/// One measured phase: `requests` tune requests pipelined over the
/// connection, `inflight` outstanding (closed loop), or paced at `rate`/s
/// (open loop) when `rate > 0`. Typed rejections are tallied, not treated
/// as errors — a shed request still consumes one offered slot and one
/// response frame.
fn run_phase(
    stream: &TcpStream,
    templates: &[TuneRequest],
    requests: usize,
    inflight: usize,
    rate: f64,
) -> PhaseOutcome {
    let sent_at: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    let started = Instant::now();

    let reader_sent_at = sent_at.clone();
    let mut read_stream = stream.try_clone().expect("clone stream for reading");
    let reader = std::thread::spawn(move || {
        let mut latencies = Vec::with_capacity(requests);
        let mut shed = 0usize;
        let mut deadline_rejected = 0usize;
        let mut errors = 0usize;
        for _ in 0..requests {
            let response = read_message::<Response>(&mut read_stream)
                .expect("read response")
                .expect("server closed mid-phase");
            let done = Instant::now();
            match response {
                Response::Tune(tune) => {
                    let sent = reader_sent_at
                        .lock()
                        .unwrap()
                        .remove(&tune.id)
                        .expect("response correlates to a sent request");
                    latencies.push(done.duration_since(sent).as_secs_f64() * 1e3);
                    if tune.error.is_some() {
                        errors += 1;
                    }
                }
                Response::Rejected { id, reason } => {
                    reader_sent_at
                        .lock()
                        .unwrap()
                        .remove(&id)
                        .expect("rejection correlates to a sent request");
                    match reason {
                        RejectReason::Overloaded => shed += 1,
                        RejectReason::DeadlineExceeded => deadline_rejected += 1,
                    }
                }
                other => panic!("unexpected response in tune phase: {other:?}"),
            }
            let _ = credit_tx.send(());
        }
        (latencies, shed, deadline_rejected, errors)
    });

    let mut write_stream = stream.try_clone().expect("clone stream for writing");
    for i in 0..requests {
        if i >= inflight {
            credit_rx.recv().expect("reader alive");
        }
        if rate > 0.0 {
            let due = started + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
        }
        let mut request = templates[i % templates.len()].clone();
        request.id = i as u64;
        sent_at.lock().unwrap().insert(request.id, Instant::now());
        write_message(&mut write_stream, &Request::Tune(request)).expect("send request");
    }
    let (latencies, shed, deadline_rejected, errors) = reader.join().expect("reader thread");
    PhaseOutcome {
        wall_s: started.elapsed().as_secs_f64(),
        latencies,
        shed,
        deadline_rejected,
        errors,
    }
}

fn main() {
    banner(
        "pnp_load",
        "serve-path load generator: throughput + latency vs daemon batch workers",
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| string_flag_from(&args, name);
    let addr = match (flag("--addr"), flag("--port-file")) {
        (Some(addr), _) => addr,
        (None, Some(path)) => {
            let port = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read port file {path}: {e}"));
            format!("127.0.0.1:{}", port.trim())
        }
        (None, None) => panic!("pass --addr HOST:PORT or --port-file PATH"),
    };
    let machine = flag("--machine").unwrap_or_else(|| "haswell".into());
    let workers: Vec<usize> = flag("--workers")
        .unwrap_or_else(|| "1,2,4,8".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--workers takes e.g. 1,2,4"))
        .collect();
    assert!(!workers.is_empty(), "--workers list must be non-empty");
    let requests: usize = flag("--requests").map_or(300, |v| v.parse().expect("--requests N"));
    let inflight: usize = flag("--inflight").map_or(32, |v| v.parse().expect("--inflight N"));
    let rate: f64 = flag("--rate").map_or(0.0, |v| v.parse().expect("--rate R"));
    let deadline_ms: u64 =
        flag("--deadline-ms").map_or(0, |v| v.parse().expect("--deadline-ms MS"));
    let gen_kernels: usize =
        flag("--gen-kernels").map_or(24, |v| v.parse().expect("--gen-kernels N"));
    let out = flag("--out").unwrap_or_else(|| "BENCH_serve.json".into());
    let min_speedup = flag("--min-speedup")
        .map(|v| parse_min_speedup(&v, &workers).unwrap_or_else(|e| usage_exit(USAGE, &e)));
    let min_throughput: Option<f64> =
        flag("--min-throughput").map(|v| v.parse().expect("--min-throughput R"));
    let max_p99_ms: Option<f64> = flag("--max-p99-ms").map(|v| v.parse().expect("--max-p99-ms MS"));
    let require_sheds = bool_flag_from(&args, "--require-sheds");
    let wait_secs: u64 = flag("--wait-secs").map_or(30, |v| v.parse().expect("--wait-secs N"));

    let (templates, suite_kernels, generated_kernels) =
        workload(&machine, gen_kernels, deadline_ms);
    eprintln!(
        "[pnp_load] workload: {suite_kernels} suite kernel(s) + {generated_kernels} generated, \
         {requests} request(s)/phase, inflight {inflight}, machine {machine}"
    );

    let mut control = Client::connect(&addr).unwrap_or_else(|e| panic!("connect {addr}: {e}"));
    match control.request(&Request::Ping) {
        Ok(Response::Ok) => eprintln!("[pnp_load] daemon at {addr} is live"),
        other => panic!("daemon ping failed: {other:?}"),
    }

    if let Some(wanted) = flag("--wait-machine") {
        // The registry watcher reloads asynchronously; poll until the
        // machine shows up in the serving list or the budget runs out.
        let waiting_since = Instant::now();
        loop {
            let machines = match control.request(&Request::Stats) {
                Ok(Response::Stats(stats)) => stats.machines,
                other => panic!("Stats failed while waiting for machine: {other:?}"),
            };
            if machines.iter().any(|m| m == &wanted) {
                eprintln!(
                    "[pnp_load] machine {wanted} is now served ({:.1}s wait)",
                    waiting_since.elapsed().as_secs_f64()
                );
                break;
            }
            assert!(
                waiting_since.elapsed().as_secs() < wait_secs,
                "machine {wanted} did not appear within --wait-secs {wait_secs} \
                 (serving: {machines:?})"
            );
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    let mut runs: Vec<Run> = Vec::new();
    for &w in &workers {
        match control.request(&Request::SetWorkers { workers: w }) {
            Ok(Response::Ok) => {}
            other => panic!("SetWorkers({w}) failed: {other:?}"),
        }
        let stream = Client::connect(&addr)
            .unwrap_or_else(|e| panic!("connect {addr}: {e}"))
            .into_stream();
        let outcome = run_phase(&stream, &templates, requests, inflight, rate);
        let accepted = outcome.latencies.len();
        let run = Run {
            workers: w,
            wall_s: outcome.wall_s,
            speedup_vs_1w: None,
            identical: None,
            metrics: BTreeMap::from([
                ("accepted".to_string(), accepted as f64),
                ("shed".to_string(), outcome.shed as f64),
                (
                    "deadline_rejected".to_string(),
                    outcome.deadline_rejected as f64,
                ),
                (
                    "throughput_rps".to_string(),
                    accepted as f64 / outcome.wall_s,
                ),
                ("p50_ms".to_string(), percentile(&outcome.latencies, 50.0)),
                ("p99_ms".to_string(), percentile(&outcome.latencies, 99.0)),
            ]),
        };
        let m = &run.metrics;
        eprintln!(
            "[pnp_load] workers {w}: {:.1} req/s accepted, p50 {:.2} ms, p99 {:.2} ms, \
             {} shed, {} deadline-rejected, {} error(s)",
            m["throughput_rps"],
            m["p50_ms"],
            m["p99_ms"],
            outcome.shed,
            outcome.deadline_rejected,
            outcome.errors
        );
        assert_eq!(
            outcome.errors, 0,
            "served workload must not produce error responses (typed rejections are not errors)"
        );
        runs.push(run);
    }
    anchor_speedups(&mut runs, |r| r.metrics["throughput_rps"]);

    let stats = match control.request(&Request::Stats) {
        Ok(Response::Stats(stats)) => stats,
        other => panic!("Stats failed: {other:?}"),
    };
    if bool_flag_from(&args, "--shutdown") {
        match control.request(&Request::Shutdown) {
            Ok(Response::Ok) => eprintln!("[pnp_load] daemon asked to shut down"),
            other => eprintln!("[pnp_load] shutdown request failed: {other:?}"),
        }
    }

    eprintln!(
        "[pnp_load] daemon counters: {} shed, {} deadline-expired, {} hot reload(s)",
        stats.shed_requests, stats.deadline_expired, stats.reloads
    );
    let trajectory = Trajectory::new("serve", runs)
        .param("machine", &machine)
        .param("suite_kernels", &suite_kernels)
        .param("generated_kernels", &generated_kernels)
        .param("requests_per_phase", &requests)
        .param("inflight", &inflight)
        .param("rate_rps", &rate)
        .param("deadline_ms", &deadline_ms)
        .param("grids_loaded", &stats.grids_loaded)
        .param("grids_skipped", &stats.grids_skipped)
        .param("max_batch_seen", &stats.max_batch_seen)
        .param("fused_batches", &stats.fused_batches)
        .param("fused_graphs", &stats.fused_graphs)
        .param("max_fused_batch", &stats.max_fused_batch)
        .param("shed_requests", &stats.shed_requests)
        .param("deadline_expired", &stats.deadline_expired)
        .param("reloads", &stats.reloads);
    trajectory.write_and_gate(&out, min_speedup);

    if require_sheds {
        let total_rejected: f64 = trajectory
            .runs
            .iter()
            .map(|r| r.metrics["shed"] + r.metrics["deadline_rejected"])
            .sum();
        if total_rejected == 0.0 {
            eprintln!(
                "[pnp_load] FAIL: --require-sheds was set but the daemon rejected nothing — \
                 backpressure never engaged"
            );
            std::process::exit(1);
        }
        eprintln!("[pnp_load] shed gate passed: {total_rejected} typed rejection(s) observed");
    }
    if let Some(bound) = max_p99_ms {
        for run in &trajectory.runs {
            let p99_ms = run.metrics["p99_ms"];
            if run.metrics["accepted"] > 0.0 && p99_ms > bound {
                eprintln!(
                    "[pnp_load] FAIL: workers {} accepted-p99 {p99_ms:.2} ms exceeds --max-p99-ms {bound:.2}",
                    run.workers
                );
                std::process::exit(1);
            }
        }
        eprintln!("[pnp_load] p99 gate passed: every phase's accepted-p99 <= {bound:.2} ms");
    }
    if let Some(floor) = min_throughput {
        let best = trajectory
            .runs
            .iter()
            .map(|r| r.metrics["throughput_rps"])
            .fold(0.0f64, f64::max);
        if best < floor {
            eprintln!(
                "[pnp_load] FAIL: best throughput {best:.1} req/s is below the \
                 --min-throughput floor {floor:.1}"
            );
            std::process::exit(1);
        }
        eprintln!("[pnp_load] throughput floor passed: {best:.1} >= {floor:.1} req/s");
    }
}
