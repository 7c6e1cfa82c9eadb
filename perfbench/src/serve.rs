//! The serve workloads: a real `pnp_serve` daemon on a store trained by the
//! offline pipeline, driven through the crate's public `Client`,
//! `write_message` and `read_message` only (no socket options of our own,
//! so the wire behaves as users get it), then checked bit for bit against
//! the in-process `TuneService::tune`, and — in a traced run — replayed
//! in-process layer by layer.

use crate::daemon::Daemon;
use crate::inputs::{self, Planned};
use crate::loadgen::{
    assemble, pace, poisson_schedule, steal_ticks, Answers, Clock, KeepAwake, PhaseRecord, Rng,
    WallClock,
};
use crate::stats::{median, midmean_of_percentiles, percentile, tail, Status, MISS_MS};
use crate::trace::{overhead_pct, Recorder, OVERHEAD_ROUNDS};
use crate::{train, train_settings, Outcome, Run};
use pnp_core::registry::{ModelDescriptor, ModelRegistry};
use pnp_core::serving::{
    committee_predict_batch, resolve_graph, restore_grid, serving_tables, GridPipeline,
    KernelInput, TuneObjective, TunePrediction, TuneRequest, TuneResponse, TuneService,
};
use pnp_core::Dataset;
use pnp_gnn::{GraphBatch, PnPModel};
use pnp_graph::{build_region_graph, EncodedGraph, Vocabulary};
use pnp_ir::try_lower_kernel;
use pnp_serve::{
    read_message, write_message, EngineConfig, Request, Response, ServeEngine, ServeStats,
};
use pnp_store::Store;
use std::collections::BTreeMap;
use std::net::Shutdown;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Daemon spawns per run; `setup_s` is their median readiness time.
const SETUPS: usize = 7;
/// Back-to-back sessions a phase is split into, each on fresh connections.
/// The per-connection TCP state (Nagle, delayed ACKs) has a long memory, so
/// one connection is one sample of it; the latency figures are taken over
/// the middle half of the sessions.
pub const SESSIONS: usize = 20;
/// How long after the last due time the paced phase waits for answers.
const DRAIN: Duration = Duration::from_secs(10);
/// Requests per burst in `serve_gen_burst`.
pub const BURST: usize = 32;
/// Closed-loop clients in `serve_gen_burst`.
const BURST_CLIENTS: usize = 2;
/// Generated kernels are prepared for at most this many requests per
/// second; a faster daemon ends the phase early instead of repeating one.
const BURST_POOL_RPS: f64 = 1200.0;
/// Requests replayed in-process by a traced paced run.
const REPLAY_REQUESTS: usize = 300;
/// Bursts replayed in-process by a traced burst run.
const REPLAY_BURSTS: usize = 16;

/// Which serve workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mode {
    /// Open loop at a fixed Poisson rate over the paper suite, source form.
    Paced {
        /// Requests per second.
        rate: f64,
    },
    /// Closed loop of bursts of generated, pre-encoded kernels.
    Burst,
}

/// One machine's served models, loaded exactly as the daemon loads them.
struct Loaded {
    ds: Dataset,
    s1: ModelDescriptor,
    s2: ModelDescriptor,
}

/// The static scenario-1/scenario-2 grids of every dataset in the registry.
fn served_models(registry: &ModelRegistry, rec: &mut Recorder) -> Result<Vec<Loaded>, String> {
    let mut loaded = Vec::new();
    for dataset in registry.datasets() {
        let ds = rec
            .span("store.load_dataset", |_| registry.load_dataset(dataset))
            .ok_or_else(|| format!("dataset {} failed to load", dataset.address))?;
        let find = |pipeline: &str| {
            registry
                .models()
                .iter()
                .find(|m| {
                    m.dataset_sha256 == dataset.sha256
                        && m.pipeline == pipeline
                        && !m.dynamic
                        && m.held_out_power.is_none()
                })
                .cloned()
                .ok_or_else(|| format!("{}: no static {pipeline} grid", dataset.machine))
        };
        loaded.push(Loaded {
            s1: find("scenario1")?,
            s2: find("scenario2")?,
            ds,
        });
    }
    Ok(loaded)
}

/// The in-process reference: one `TuneService` per machine, restored from
/// the same store artifacts the daemon restores.
fn services(store_dir: &Path, rec: &mut Recorder) -> Result<BTreeMap<String, TuneService>, String> {
    let registry = rec.span("store.open", |_| {
        ModelRegistry::open(Store::open(store_dir))
    });
    let mut services = BTreeMap::new();
    for m in served_models(&registry, rec)? {
        let settings = m.s1.settings()?;
        let grid1 = rec.span("store.load_grid", |_| registry.load_grid(&m.s1));
        let grid2 = rec.span("store.load_grid", |_| registry.load_grid(&m.s2));
        let (Some(grid1), Some(grid2)) = (grid1, grid2) else {
            return Err(format!(
                "{}: grid payload failed to load",
                m.ds.machine.name
            ));
        };
        let service = rec.span("core.restore", |_| {
            TuneService::restore(&m.ds, &settings, &grid1, &grid2, &m.s1.id, &m.s2.id)
        })?;
        services.insert(m.ds.machine.name.clone(), service);
    }
    Ok(services)
}

/// `a == b` down to the bits of every float.
fn same_prediction(a: &TunePrediction, b: &TunePrediction) -> bool {
    a == b
        && a.expected_gain.to_bits() == b.expected_gain.to_bits()
        && a.point.power_watts.to_bits() == b.point.power_watts.to_bits()
}

/// Checks every served prediction against `TuneService::tune` on the same
/// request. Answers are reused per `(kernel, machine, objective)`, which is
/// what the request carries. Returns `(predictions checked, mismatches)`.
fn check_predictions(
    store_dir: &Path,
    planned: &[Planned],
    responses: &[Option<TuneResponse>],
) -> Result<(usize, usize), String> {
    let work: Vec<(&Planned, &TunePrediction)> = planned
        .iter()
        .zip(responses)
        .filter_map(|(p, r)| Some((p, r.as_ref()?.prediction.as_ref()?)))
        .collect();
    let chunks: Vec<&[(&Planned, &TunePrediction)]> = work
        .chunks(work.len().div_ceil(crate::available_parallelism()).max(1))
        .collect();
    let results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| {
                scope.spawn(move || {
                    let mut services = services(store_dir, &mut Recorder::new(false))?;
                    let mut memo: BTreeMap<(usize, String, String), TunePrediction> =
                        BTreeMap::new();
                    let mut mismatches = 0;
                    for (p, served) in chunk {
                        let r = &p.request;
                        let key = (p.kernel, r.machine.clone(), format!("{:?}", r.objective));
                        if !memo.contains_key(&key) {
                            let service = services
                                .get_mut(&r.machine)
                                .ok_or_else(|| format!("no service for {}", r.machine))?;
                            let reference = service.tune(&r.kernel, r.objective)?;
                            memo.insert(key.clone(), reference);
                        }
                        if !same_prediction(&memo[&key], served) {
                            mismatches += 1;
                        }
                    }
                    Ok(mismatches)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("checker panicked".into())))
            .collect()
    });
    let mut mismatches = 0;
    for r in results {
        mismatches += r?;
    }
    Ok((work.len(), mismatches))
}

/// The daemon's answer to one tune request, as a status.
fn status_of(response: &Response) -> Option<(u64, Status)> {
    match response {
        Response::Tune(t) if t.prediction.is_some() => Some((t.id, Status::Answered)),
        Response::Tune(t) => Some((t.id, Status::Error)),
        Response::Rejected { id, .. } => Some((*id, Status::Rejected)),
        _ => None,
    }
}

/// Pipelines `requests` on one connection and waits for every answer —
/// warms the daemon before the measured phase.
fn warm_up(daemon: &Daemon, requests: &[Request]) -> Result<(), String> {
    let mut client = daemon.client()?;
    for request in requests {
        client.send(request)?;
    }
    for _ in requests {
        client.receive()?;
    }
    Ok(())
}

/// One open-loop session: one connection, the calling thread sends on
/// schedule and one thread receives. `requests` carry ids `first_id..`.
fn paced_session(
    daemon: &Daemon,
    requests: &[Request],
    first_id: usize,
    schedule: &[Duration],
) -> Result<(PhaseRecord, Vec<Option<TuneResponse>>), String> {
    let mut stream = daemon.client()?.into_stream();
    let mut reader = stream
        .try_clone()
        .map_err(|e| format!("clone stream: {e}"))?;
    let n = requests.len();
    let answers = Answers::new(n);
    let clock = WallClock::start();
    let (done_tx, done_rx) = mpsc::channel::<()>();
    let (sent, responses) = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| {
            let mut responses: Vec<Option<TuneResponse>> = vec![None; n];
            for _ in 0..n {
                let Ok(Some(response)) = read_message::<Response>(&mut reader) else {
                    break;
                };
                let Some((id, status)) = status_of(&response) else {
                    break;
                };
                let Some(index) = (id as usize).checked_sub(first_id) else {
                    break;
                };
                if !answers.record(index, clock.now(), status) {
                    break;
                }
                if let Response::Tune(t) = response {
                    responses[index] = Some(t);
                }
            }
            let _ = done_tx.send(());
            responses
        });
        let sent = pace(&clock, schedule, |i| {
            write_message(&mut stream, &requests[i])
        });
        let deadline = schedule.last().copied().unwrap_or_default() + DRAIN;
        if done_rx
            .recv_timeout(deadline.saturating_sub(clock.now()))
            .is_err()
        {
            // Unblocks the receiver; what is still missing is unanswered.
            let _ = stream.shutdown(Shutdown::Both);
        }
        let responses = receiver.join().expect("receiver thread panicked");
        (sent, responses)
    });
    let sent = sent.map_err(|e| format!("send: {e}"))?;
    Ok((assemble(schedule, sent, answers), responses))
}

/// What the closed-loop phase saw.
struct BurstPhase {
    /// Per request: burst start (its due time), send, answer, status.
    record: PhaseRecord,
    /// Per session, the latency of each completed burst, from its start to
    /// its last answer.
    burst_ms: Vec<Vec<f64>>,
    responses: Vec<Option<TuneResponse>>,
    wall: Duration,
}

/// One answered burst request: burst start (its due time), send time,
/// answer time, status, and the answer itself.
type Slot = (Duration, Duration, Duration, Status, Option<TuneResponse>);

/// The closed-loop phase, as [`SESSIONS`] back-to-back sessions on fresh
/// connections: in each, every client sends a whole burst, waits for every
/// answer, then takes the next unused burst, until the session's share of
/// `seconds` has passed or the kernel pool runs out.
fn burst_phase(
    daemon: &Daemon,
    pool: &[Request],
    seconds: f64,
    idle: usize,
) -> Result<BurstPhase, String> {
    let n = pool.len();
    let bursts = n / BURST;
    let clock = WallClock::start();
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Slot>>> = Mutex::new(vec![None; n]);
    let mut sessions = Vec::with_capacity(SESSIONS);
    for session in 0..SESSIONS {
        daemon.wait_idle(idle)?;
        let end = Duration::from_secs_f64(seconds * (session + 1) as f64 / SESSIONS as f64);
        sessions.push(burst_session(daemon, pool, &clock, end, &next, &slots)?);
    }
    let wall = clock.now();
    let used = next.load(Ordering::SeqCst).min(bursts) * BURST;
    let slots = slots.into_inner().expect("slots poisoned");
    let mut record = PhaseRecord::default();
    let mut responses = Vec::with_capacity(used);
    for slot in slots.into_iter().take(used) {
        let (due, sent, at, status, tune) = slot.ok_or("a sent request was never answered")?;
        record.due.push(due);
        record.sent.push(sent);
        record.answered.push(Some(at));
        record.status.push(status);
        responses.push(tune);
    }
    Ok(BurstPhase {
        record,
        burst_ms: sessions,
        responses,
        wall,
    })
}

/// One closed-loop session until `end`; returns its burst latencies.
fn burst_session(
    daemon: &Daemon,
    pool: &[Request],
    clock: &WallClock,
    end: Duration,
    next: &AtomicUsize,
    slots: &Mutex<Vec<Option<Slot>>>,
) -> Result<Vec<f64>, String> {
    let bursts = pool.len() / BURST;
    let burst_ms = Mutex::new(Vec::new());
    let clients: Vec<_> = (0..BURST_CLIENTS)
        .map(|_| daemon.client())
        .collect::<Result<_, _>>()?;
    let results: Vec<Result<(), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let burst_ms = &burst_ms;
                scope.spawn(move || -> Result<(), String> {
                    while clock.now() < end {
                        let b = next.fetch_add(1, Ordering::SeqCst);
                        if b >= bursts {
                            break;
                        }
                        let due = clock.now();
                        let mut sent = Vec::with_capacity(BURST);
                        for request in &pool[b * BURST..(b + 1) * BURST] {
                            sent.push(clock.now());
                            client.send(request)?;
                        }
                        let mut last = due;
                        let mut ok = true;
                        for _ in 0..BURST {
                            let response = client.receive()?;
                            let at = clock.now();
                            let (id, status) = status_of(&response)
                                .ok_or_else(|| format!("unexpected response {response:?}"))?;
                            let index = id as usize;
                            let in_burst = (b * BURST..(b + 1) * BURST).contains(&index);
                            if !in_burst {
                                return Err(format!("answer {id} outside burst {b}"));
                            }
                            ok &= status == Status::Answered;
                            last = at;
                            let tune = match response {
                                Response::Tune(t) => Some(t),
                                _ => None,
                            };
                            slots.lock().expect("slots poisoned")[index] =
                                Some((due, sent[index - b * BURST], at, status, tune));
                        }
                        let ms = if ok {
                            (last - due).as_secs_f64() * 1e3
                        } else {
                            MISS_MS
                        };
                        burst_ms.lock().expect("burst latencies poisoned").push(ms);
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    for r in results {
        r?;
    }
    Ok(burst_ms.into_inner().expect("burst latencies poisoned"))
}

/// Change of the daemon's counters over a phase.
fn engine_metrics(before: &ServeStats, after: &ServeStats, out: &mut BTreeMap<&'static str, f64>) {
    let d = |a: u64, b: u64| (b - a) as f64;
    let requests = d(before.requests, after.requests);
    let batches = d(before.batches, after.batches).max(1.0);
    let groups = d(before.fused_batches, after.fused_batches).max(1.0);
    out.insert("engine.mean_batch", requests / batches);
    out.insert(
        "engine.mean_fused_group",
        d(before.fused_graphs, after.fused_graphs) / groups,
    );
    out.insert("engine.groups_per_batch", groups / batches);
    out.insert("engine.shed", d(before.shed_requests, after.shed_requests));
    out.insert(
        "engine.deadline_expired",
        d(before.deadline_expired, after.deadline_expired),
    );
}

/// Runs one serve workload.
pub fn run(run: &Run, mode: Mode) -> Result<Outcome, String> {
    let store_dir = run.work.join("store");
    let mut rec = Recorder::new(run.trace);
    let models = train::build_store(&store_dir, &mut rec)?;

    // Inputs, from the seed alone.
    let (planned, schedules, warm) = match mode {
        Mode::Paced { rate } => {
            let kernels = inputs::suite_kernels();
            let per_session = (rate * run.seconds / SESSIONS as f64).round().max(1.0) as usize;
            let planned = inputs::suite_requests(run.seed, &kernels, per_session * SESSIONS);
            let schedules = (0..SESSIONS)
                .map(|s| poisson_schedule(&mut Rng::new(run.seed, 2 + s as u64), rate, per_session))
                .collect();
            let warm = inputs::suite_requests(run.seed ^ 0x5741_524D, &kernels, 64);
            (planned, schedules, warm)
        }
        Mode::Burst => {
            let bursts = (BURST_POOL_RPS * run.seconds / BURST as f64).ceil() as usize;
            let planned = inputs::generated_bursts(run.seed, bursts, BURST)?;
            let warm = inputs::generated_bursts(run.seed ^ 0x5741_524D, 2, BURST)?;
            (planned, Vec::<Vec<Duration>>::new(), warm)
        }
    };
    let requests: Vec<Request> = planned
        .iter()
        .map(|p| Request::Tune(p.request.clone()))
        .collect();
    // Warm-up ids stay clear of the measured ids.
    let warm: Vec<Request> = warm
        .into_iter()
        .map(|mut p| {
            p.request.id += 1 << 40;
            Request::Tune(p.request)
        })
        .collect();

    // Everything timed, set-up included, runs with the cores kept awake.
    let awake = KeepAwake::new(crate::available_parallelism());
    let steal_before = steal_ticks();

    // Set-up: spawn until the first Ping is answered, several times.
    let mut spare = Vec::new();
    let mut ready = Vec::new();
    for _ in 1..SETUPS {
        let mut daemon = Daemon::spawn(&run.daemon, &store_dir, &run.work)?;
        ready.push(daemon.ready.as_secs_f64());
        daemon.ask_to_stop()?;
        spare.push(daemon);
    }
    let daemon = Daemon::spawn(&run.daemon, &store_dir, &run.work)?;
    ready.push(daemon.ready.as_secs_f64());
    let setup_s = median(&ready).ok_or("no set-up measured")?;

    warm_up(&daemon, &warm)?;
    // The warm-up client has left: this is the daemon at rest.
    std::thread::sleep(Duration::from_millis(100));
    let idle = daemon.threads()?;
    let before = daemon.stats()?;
    let mut record = PhaseRecord::default();
    let mut responses = Vec::new();
    let mut sessions = Vec::new();
    let (mut burst_ms, mut wall) = (Vec::new(), Duration::ZERO);
    match mode {
        Mode::Paced { .. } => {
            let mut first = 0;
            for schedule in &schedules {
                daemon.wait_idle(idle)?;
                let range = first..first + schedule.len();
                let (r, answers) = paced_session(&daemon, &requests[range], first, schedule)?;
                sessions.push(r.latencies_ms());
                record.due.extend(r.due);
                record.sent.extend(r.sent);
                record.answered.extend(r.answered);
                record.status.extend(r.status);
                responses.extend(answers);
                first += schedule.len();
            }
        }
        Mode::Burst => {
            let phase = burst_phase(&daemon, &requests, run.seconds, idle)?;
            (record, responses, burst_ms, wall) =
                (phase.record, phase.responses, phase.burst_ms, phase.wall);
        }
    }
    let after = daemon.stats()?;
    let steal = steal_before
        .zip(steal_ticks())
        .map(|(a, b)| b.saturating_sub(a));
    drop(awake);
    let rss_mb = daemon.peak_rss_mb()?;
    daemon.shutdown()?;
    for d in spare {
        d.shutdown()?;
    }
    let planned = &planned[..record.status.len()];

    // Correctness, outside the timed window.
    let (checked, mismatches) = check_predictions(&store_dir, planned, &responses)?;
    let reproduced = train::matches_reference(&run.work, &models)?;
    let tally = record.tally();
    let latencies = record.latencies_ms();

    let mut out = Outcome {
        correct: mismatches == 0 && reproduced,
        attempted: tally.sent,
        failed: tally.failed,
        ..Outcome::default()
    };
    out.note(format!(
        "served predictions checked bit for bit against TuneService::tune: {checked}, mismatches: {mismatches}"
    ));
    out.note(format!(
        "LOOCV geomeans equal this checkout's first run, bit for bit: {reproduced}"
    ));
    out.named(
        "wall_s",
        models.wall.as_secs_f64(),
        "s",
        "time to models: sweep plus static scenario-1/2 LOOCV grids with predictions, both machines",
    );
    out.named(
        "geomean_speedup",
        models.geomean_speedup,
        "x",
        "default time over predicted-config time, region x cap, both machines",
    );
    out.named(
        "geomean_edp_gain",
        models.geomean_edp_gain,
        "x",
        "default-at-TDP EDP over predicted-point EDP, both machines",
    );
    out.note(format!(
        "requests sent {} succeeded {} failed {}",
        tally.sent, tally.succeeded, tally.failed
    ));
    if let Some(ticks) = steal {
        out.note(format!(
            "host steal over set-up and the timed phase: {ticks} ticks of 10 ms, all cores"
        ));
    }
    out.named(
        "setup_s",
        setup_s,
        "s",
        &format!("median of {SETUPS} spawns"),
    );
    out.named("rss_mb", rss_mb, "MB", "daemon VmHWM");
    out.named("failed_ratio", tally.failed_ratio(), "ratio", "");
    let groups = match mode {
        Mode::Paced { rate } => {
            let p50 = median(&latencies).ok_or("no requests")?;
            let t = tail(&latencies).ok_or("no requests")?;
            out.named(&format!("p50_ms@{rate}"), p50, "ms", &format!("n={}", t.n));
            out.named(
                &format!("p99_ms@{rate}"),
                t.value,
                "ms",
                &format!("taken at p{:.1}, n={}", t.pct, t.n),
            );
            sessions
        }
        Mode::Burst => {
            let answered = tally.succeeded as f64;
            out.named(
                "throughput_rps",
                answered / wall.as_secs_f64(),
                "1/s",
                &format!(
                    "{} requests in {:.2} s",
                    tally.succeeded,
                    wall.as_secs_f64()
                ),
            );
            let all = burst_ms.concat();
            let n = all.len();
            let p50 = median(&all).ok_or("no bursts")?;
            let p90 = percentile(&all, 90.0).ok_or("no bursts")?;
            out.named("burst_p50_ms", p50, "ms", &format!("n={n}"));
            out.named("burst_p90_ms", p90, "ms", &format!("n={n}"));
            burst_ms
        }
    };

    // The workload-independent metrics: the unit of work is a request
    // (paced) or a burst (closed loop); each figure is the mean over the
    // middle half of the sessions of the session's percentile.
    let over_groups = |q| midmean_of_percentiles(&groups, q).ok_or("no work measured");
    out.metric("setup_s", setup_s);
    out.metric("rss_mb", rss_mb);
    out.metric("p50_ms", over_groups(50.0)?);
    out.metric("p90_ms", over_groups(90.0)?);

    if run.trace {
        let layers = &mut out.layers;
        engine_metrics(&before, &after, layers);
        if matches!(mode, Mode::Paced { .. }) {
            let late = tail(&record.lateness_ms()).map_or(0.0, |t| t.value);
            layers.insert("loadgen.late_ms", late);
        }
        let groups: Vec<Vec<usize>> = match mode {
            Mode::Paced { .. } => (0..REPLAY_REQUESTS.min(planned.len()))
                .map(|i| vec![i])
                .collect(),
            Mode::Burst => (0..REPLAY_BURSTS.min(planned.len() / BURST))
                .map(|b| (b * BURST..(b + 1) * BURST).collect())
                .collect(),
        };
        let overhead = replay(&store_dir, planned, &groups, &mut rec)?;
        let ds = models.datasets.first().ok_or("no dataset")?;
        let steps = train::replay_job(ds, &train_settings(), &mut rec);
        crate::write_trace(run, &rec)?;

        let span_us = |name: &str| median(&rec.durations_us(name)).unwrap_or(0.0);
        for (metric, span, per_us) in [
            ("protocol.decode_us", "protocol.decode", 1.0),
            ("protocol.encode_us", "protocol.encode", 1.0),
            ("engine.tune_batch_us", "engine.tune_batch", 1.0),
            ("core.tune_batch_us", "core.tune_batch", 1.0),
            ("core.resolve_us", "core.resolve", 1.0),
            ("core.committee_us", "core.committee", 1.0),
            ("ir.lower_us", "ir.lower", 1.0),
            ("graph.build_us", "graph.build", 1.0),
            ("graph.encode_us", "graph.encode", 1.0),
            ("graph.validate_us", "graph.validate", 1.0),
            ("gnn.batch_us", "gnn.batch", 1.0),
            ("gnn.forward_batch_us", "gnn.forward_batch", 1.0),
            ("store.open_ms", "store.open", 1e3),
            ("store.load_dataset_ms", "store.load_dataset", 1e3),
            ("store.load_grid_ms", "store.load_grid", 1e3),
            ("core.restore_ms", "core.restore", 1e3),
            ("openmp.sweep_s", "openmp.sweep", 1e6),
            ("openmp.simulate_us", "openmp.simulate", 1.0),
            ("core.train_scenario1_s", "core.train_scenario1", 1e6),
            ("core.train_scenario2_s", "core.train_scenario2", 1e6),
            ("gnn.train_forward_us", "gnn.forward", 1.0),
            ("gnn.backward_us", "gnn.backward", 1.0),
            ("tensor.optim_step_us", "tensor.optim_step", 1.0),
        ] {
            layers.insert(metric, span_us(span) / per_us);
        }
        layers.extend(overhead);
        layers.insert(
            "openmp.simulations",
            models
                .datasets
                .iter()
                .map(train::simulations)
                .sum::<usize>() as f64,
        );
        layers.insert("gnn.train_steps", steps as f64);
        if matches!(mode, Mode::Paced { .. }) {
            let client_p50 = median(&latencies).unwrap_or(0.0);
            let engine_ms = layers.get("engine.tune_batch_us").copied().unwrap_or(0.0) / 1e3;
            layers.insert("wire.wait_ms", client_p50 - engine_ms);
        }
    }
    Ok(out)
}

/// One machine's committees and priors for the staged replay.
struct Committees {
    time: Vec<Vec<PnPModel>>,
    edp: Vec<PnPModel>,
    time_priors: Vec<Vec<f64>>,
    edp_prior: Vec<f64>,
}

impl Committees {
    fn restore(m: &Loaded, registry: &ModelRegistry) -> Result<Committees, String> {
        let settings = m.s1.settings()?;
        let grid = |d: &ModelDescriptor| registry.load_grid(d).ok_or("grid failed to load");
        let mut time: Vec<Vec<PnPModel>> = (0..m.ds.space.power_levels.len())
            .map(|_| Vec::new())
            .collect();
        for ((_, p), model) in restore_grid(
            &m.ds,
            &settings,
            GridPipeline::Scenario1 { dynamic: false },
            &grid(&m.s1)?,
        )? {
            time.get_mut(p)
                .ok_or("power index out of range")?
                .push(model);
        }
        let edp = restore_grid(
            &m.ds,
            &settings,
            GridPipeline::Scenario2 { dynamic: false },
            &grid(&m.s2)?,
        )?
        .into_iter()
        .map(|(_, model)| model)
        .collect();
        let tables = serving_tables(&m.ds);
        Ok(Committees {
            time,
            edp,
            time_priors: tables.time_priors,
            edp_prior: tables.edp_prior,
        })
    }

    fn for_objective(&mut self, objective: TuneObjective) -> (&mut [PnPModel], &[f64]) {
        match objective {
            TuneObjective::Time { power_idx } => {
                (&mut self.time[power_idx], &self.time_priors[power_idx])
            }
            TuneObjective::Edp => (&mut self.edp, &self.edp_prior),
        }
    }
}

/// Resolves a kernel stage by stage — the calls `resolve_graph` makes,
/// each in its own span.
fn staged_resolve(
    kernel: &KernelInput,
    vocab: &Vocabulary,
    rec: &mut Recorder,
) -> Result<EncodedGraph, String> {
    match kernel {
        KernelInput::Graph(graph) => {
            rec.span("graph.validate", |_| graph.validate(vocab.len()))?;
            Ok(graph.clone())
        }
        KernelInput::Source {
            app,
            regions,
            region,
        } => {
            let module = rec
                .span("ir.lower", |_| try_lower_kernel(app, regions))
                .map_err(|e| format!("lowering failed: {e:?}"))?;
            let graph = rec
                .span("graph.build", |_| build_region_graph(&module, region))
                .ok_or("region not found")?;
            Ok(rec.span("graph.encode", |_| EncodedGraph::encode(&graph, vocab)))
        }
    }
}

/// The in-process replay state: an engine and services built from the same
/// store the daemon served, plus the committees for the staged calls.
struct Replayer {
    engine: ServeEngine,
    services: BTreeMap<String, TuneService>,
    committees: BTreeMap<String, Committees>,
    vocab: Vocabulary,
}

impl Replayer {
    /// Replays `groups` of requests (each group one daemon batch) through
    /// every layer's public entry point; returns the wall time and the
    /// graphs per fused forward.
    fn replay(
        &mut self,
        planned: &[Planned],
        groups: &[Vec<usize>],
        rec: &mut Recorder,
    ) -> Result<(Duration, Vec<f64>, Vec<f64>), String> {
        let started = Instant::now();
        let mut per_forward = Vec::new();
        let mut request_bytes = Vec::new();
        for group in groups {
            let requests: Vec<&TuneRequest> = group.iter().map(|&i| &planned[i].request).collect();
            rec.set_request(Some(requests[0].id));
            rec.span("replay.batch", |rec| -> Result<(), String> {
                // Frame decode on the daemon side.
                let mut decoded = Vec::with_capacity(requests.len());
                for r in &requests {
                    let mut frame = Vec::new();
                    write_message(&mut frame, &Request::Tune((*r).clone()))
                        .map_err(|e| e.to_string())?;
                    request_bytes.push(frame.len() as f64);
                    match rec.span("protocol.decode", |_| {
                        read_message::<Request>(&mut frame.as_slice())
                    })? {
                        Some(Request::Tune(t)) => decoded.push(t),
                        other => return Err(format!("decoded {other:?}")),
                    }
                }
                let answers = rec.span("engine.tune_batch", |_| self.engine.tune_batch(&decoded));
                for answer in &answers {
                    let mut frame = Vec::new();
                    rec.span("protocol.encode", |_| {
                        write_message(&mut frame, &Response::Tune(answer.clone()))
                    })
                    .map_err(|e| e.to_string())?;
                }
                let machine = &requests[0].machine;
                let objective = requests[0].objective;
                let service = self.services.get_mut(machine).ok_or("unknown machine")?;
                let bodies: Vec<(&KernelInput, TuneObjective)> =
                    requests.iter().map(|r| (&r.kernel, r.objective)).collect();
                rec.span("core.tune_batch", |_| service.tune_batch(&bodies));
                let mut graphs = Vec::with_capacity(requests.len());
                for r in &requests {
                    rec.span("core.resolve", |_| resolve_graph(&r.kernel, &self.vocab))?;
                    graphs.push(staged_resolve(&r.kernel, &self.vocab, rec)?);
                }
                let graph_refs: Vec<&EncodedGraph> = graphs.iter().collect();
                let committees = self.committees.get_mut(machine).ok_or("unknown machine")?;
                let (models, prior) = committees.for_objective(objective);
                let batch = rec
                    .span("gnn.batch", |_| GraphBatch::from_graphs(&graph_refs))
                    .map_err(|e| format!("{e:?}"))?;
                for model in models.iter_mut() {
                    rec.span("gnn.forward_batch", |_| model.forward_batch(&batch, None));
                    per_forward.push(batch.len() as f64);
                }
                rec.span("core.committee", |_| {
                    committee_predict_batch(models, &graph_refs, prior)
                })
                .map_err(|e| format!("{e:?}"))?;
                Ok(())
            })?;
        }
        rec.set_request(None);
        Ok((started.elapsed(), per_forward, request_bytes))
    }
}

/// The traced replay of a serve workload: store loads and restores, then
/// the same inputs in-process, alternately untraced and traced. Returns the
/// replay's own figures: graphs per fused forward, request frame size, and
/// the recorder's overhead.
fn replay(
    store_dir: &Path,
    planned: &[Planned],
    groups: &[Vec<usize>],
    rec: &mut Recorder,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let services = services(store_dir, rec)?;
    let registry = ModelRegistry::open(Store::open(store_dir));
    let mut committees = BTreeMap::new();
    for m in served_models(&registry, &mut Recorder::new(false))? {
        committees.insert(
            m.ds.machine.name.clone(),
            Committees::restore(&m, &registry)?,
        );
    }
    let (engine, _) = ServeEngine::start(registry, &EngineConfig::default());
    let mut replayer = Replayer {
        engine,
        services,
        committees,
        vocab: Vocabulary::standard(),
    };
    // The first pass only warms caches; the overhead compares alternating
    // untraced and traced passes.
    replayer.replay(planned, groups, &mut Recorder::new(false))?;
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut per_forward, mut request_bytes) = (Vec::new(), Vec::new());
    for _ in 0..OVERHEAD_ROUNDS {
        untraced.push(
            replayer
                .replay(planned, groups, &mut Recorder::new(false))?
                .0,
        );
        let (wall, forwards, bytes) = replayer.replay(planned, groups, rec)?;
        (per_forward, request_bytes) = (forwards, bytes);
        traced.push(wall);
    }
    Ok(BTreeMap::from([
        (
            "protocol.request_bytes",
            median(&request_bytes).unwrap_or(0.0),
        ),
        (
            "gnn.graphs_per_forward",
            median(&per_forward).unwrap_or(0.0),
        ),
        ("trace.overhead_pct", overhead_pct(&untraced, &traced)),
    ]))
}
