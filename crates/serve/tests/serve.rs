//! End-to-end tests of the serve path (ISSUE 7): the daemon must serve
//! predictions **bit-identical** to the offline `TuneService` for the same
//! kernels — through the registry cold start, the batching dispatcher, and
//! a real socket — and the registry/control surface must answer over the
//! wire. One tiny trained fixture (built once per process) backs all tests.
//!
//! ISSUE 10 adds the degradation paths (DESIGN.md §17): per-request
//! deadlines expire into typed rejections (driven by a fake clock, so
//! expiry is deterministic), a full admission queue sheds with typed
//! `Overloaded` rejections while every *accepted* request stays
//! bit-identical to the offline path, and a store update mid-traffic
//! hot-reloads new grids without dropping a single in-flight request.

use pnp_benchmarks::builders::{matmul_kernel, small_boundary_kernel, streaming_kernel};
use pnp_benchmarks::Application;
use pnp_core::artifact::ArtifactStore;
use pnp_core::registry::ModelRegistry;
use pnp_core::serving::{
    GridPipeline, KernelInput, TuneObjective, TunePrediction, TuneRequest, TuneService,
};
use pnp_core::training::{
    train_scenario1_models_cached, train_scenario2_model_cached, TrainSettings, TrainedGrid,
};
use pnp_core::Dataset;
use pnp_graph::Vocabulary;
use pnp_machine::{haswell, skylake};
use pnp_openmp::Threads;
use pnp_serve::{
    read_message, serve, write_frame, Client, Clock, EngineConfig, RejectReason, Request, Response,
    ServeConfig, ServeEngine,
};
use pnp_store::Store;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn tiny_apps() -> Vec<Application> {
    vec![
        Application::new("a1", vec![matmul_kernel("a1_r0", 120, 120, 120)]),
        Application::new("a2", vec![streaming_kernel("a2_r0", 80_000, 2, 1.0)]),
        Application::new("a3", vec![small_boundary_kernel("a3_r0", 700, 2)]),
    ]
}

fn tiny_settings() -> TrainSettings {
    TrainSettings {
        epochs: 4,
        hidden_dim: 8,
        rgcn_layers: 1,
        fc_hidden: 16,
        folds: 3,
        train_threads: Threads::Fixed(1),
        ..TrainSettings::quick()
    }
}

struct Fixture {
    dir: PathBuf,
    ds: Dataset,
    settings: TrainSettings,
    s1: TrainedGrid,
    s2: TrainedGrid,
}

/// Trains the tiny fixture once per test process, into a store directory
/// the registry/daemon tests then cold-start from.
fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("pnp_serve_it_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir);
        let settings = tiny_settings();
        let ds = store.load_or_build_dataset(
            &haswell(),
            &tiny_apps(),
            &Vocabulary::standard(),
            Threads::Fixed(1),
        );
        let cache = store.for_dataset(&ds);
        train_scenario1_models_cached(&ds, &settings, false, Some(&cache));
        train_scenario2_model_cached(&ds, &settings, false, Some(&cache));
        let s1 = cache
            .store()
            .load(&cache.grid_key(GridPipeline::Scenario1 { dynamic: false }, &settings))
            .expect("scenario1 grid cached");
        let s2 = cache
            .store()
            .load(&cache.grid_key(GridPipeline::Scenario2 { dynamic: false }, &settings))
            .expect("scenario2 grid cached");
        Fixture {
            dir,
            ds,
            settings,
            s1,
            s2,
        }
    })
}

/// The workload both paths replay: every fixture region as source input and
/// as a pre-encoded graph, plus generated kernels, across both objectives.
fn workload(ds: &Dataset) -> Vec<TuneRequest> {
    let apps = tiny_apps();
    let mut kernels = Vec::new();
    for app in &apps {
        let regions: Vec<_> = app.regions.iter().map(|r| r.source.clone()).collect();
        for region in &app.regions {
            kernels.push(KernelInput::Source {
                app: app.name.clone(),
                regions: regions.clone(),
                region: region.name().to_string(),
            });
        }
    }
    for record in &ds.regions {
        kernels.push(KernelInput::Graph(record.graph.clone()));
    }
    for (i, kernel) in pnp_ir::gen::corpus(0xD17A, 8).into_iter().enumerate() {
        kernels.push(KernelInput::Source {
            app: format!("gen{i}"),
            region: kernel.source.name.clone(),
            regions: vec![kernel.source],
        });
    }
    let num_powers = ds.space.power_levels.len();
    kernels
        .into_iter()
        .enumerate()
        .map(|(i, kernel)| TuneRequest {
            id: i as u64,
            machine: "haswell".into(),
            objective: if i % 2 == 0 {
                TuneObjective::Time {
                    power_idx: i % num_powers,
                }
            } else {
                TuneObjective::Edp
            },
            deadline_ms: None,
            kernel,
        })
        .collect()
}

/// The offline reference: predictions straight from `TuneService`, no
/// registry, no socket, no batching.
fn offline_predictions(fx: &Fixture, requests: &[TuneRequest]) -> Vec<TunePrediction> {
    let service = offline_service(fx);
    requests
        .iter()
        .map(|r| service.tune(&r.kernel, r.objective).expect("offline tune"))
        .collect()
}

fn offline_service(fx: &Fixture) -> TuneService {
    TuneService::restore(
        &fx.ds,
        &fx.settings,
        &fx.s1,
        &fx.s2,
        "time-model",
        "edp-model",
    )
    .expect("offline service restores")
}

/// `a == b` down to the bits of the expected gain. Registry model ids differ
/// from the offline labels, so only class, point and gain are compared.
fn assert_same_prediction(got: &TunePrediction, expected: &TunePrediction, what: &str) {
    assert_eq!(got.class, expected.class, "{what}");
    assert_eq!(got.point, expected.point, "{what}");
    assert_eq!(
        got.expected_gain.to_bits(),
        expected.expected_gain.to_bits(),
        "{what}"
    );
}

fn start_engine(workers: usize) -> Arc<ServeEngine> {
    let fx = fixture();
    let registry = ModelRegistry::open(Store::open(&fx.dir));
    let (engine, report) = ServeEngine::start(registry, &EngineConfig { workers });
    // The cold start must have restored every grid in the store.
    assert_eq!(report.grids_loaded, 2, "{:?}", report.lines);
    assert_eq!(report.grids_skipped, 0, "{:?}", report.lines);
    assert_eq!(engine.machines(), vec!["haswell".to_string()]);
    Arc::new(engine)
}

/// A ServeConfig on the real clock with an effectively unbounded queue —
/// the pre-ISSUE-10 behavior, for tests not about degradation.
fn roomy_config(max_batch: usize) -> ServeConfig {
    ServeConfig::new(max_batch, usize::MAX, Arc::new(Instant::now))
}

fn spawn_server(engine: Arc<ServeEngine>, config: ServeConfig) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    std::thread::spawn(move || serve(listener, engine, config));
    addr
}

#[test]
fn served_predictions_are_bit_identical_to_the_offline_path() {
    let fx = fixture();
    let requests = workload(&fx.ds);
    let offline = offline_predictions(fx, &requests);

    let engine = start_engine(2);
    let addr = spawn_server(engine, roomy_config(16));
    let mut client = Client::connect(addr).expect("connect");
    for (request, expected) in requests.iter().zip(&offline) {
        let response = client
            .request(&Request::Tune(request.clone()))
            .expect("tune request");
        let Response::Tune(tune) = response else {
            panic!("unexpected response {response:?}");
        };
        assert_eq!(tune.id, request.id);
        let got = tune
            .prediction
            .unwrap_or_else(|| panic!("request {} failed: {:?}", request.id, tune.error));
        assert_same_prediction(&got, expected, &format!("request {}", request.id));
    }
    let _ = client.request(&Request::Shutdown);
}

#[test]
fn batched_and_single_paths_agree_for_every_worker_count() {
    let fx = fixture();
    let requests = workload(&fx.ds);
    let engine = start_engine(1);
    let singles: Vec<_> = requests.iter().map(|r| engine.tune(r)).collect();
    for workers in [1usize, 2, 4] {
        engine.set_workers(workers);
        let batched = engine.tune_batch(&requests);
        assert_eq!(batched.len(), singles.len());
        for (single, batch) in singles.iter().zip(&batched) {
            assert_eq!(single.id, batch.id);
            assert_eq!(
                single.prediction, batch.prediction,
                "workers={workers} id={}",
                single.id
            );
            assert_eq!(single.error, batch.error);
        }
    }
}

/// Inference is `&self`: one `Arc<TuneService>` and one `ServeEngine`,
/// each called from several threads at once, answer every request
/// bit-identically to serial `TuneService::tune` — at every batch worker
/// count, with no lock and no per-thread copy of the models.
#[test]
fn shared_service_and_engine_answer_concurrent_callers_bit_identically() {
    let fx = fixture();
    let requests = workload(&fx.ds);
    let offline = offline_predictions(fx, &requests);
    let service = Arc::new(offline_service(fx));
    let engine = start_engine(1);
    const THREADS: usize = 4;
    for workers in [1usize, 2, 4, 8] {
        engine.set_workers(workers);
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let service = Arc::clone(&service);
                let (engine, requests, offline, start) = (&engine, &requests, &offline, &start);
                scope.spawn(move || {
                    // Each thread starts at a different request, so the
                    // threads overlap on different committees.
                    let mine: Vec<TuneRequest> = requests
                        .iter()
                        .cycle()
                        .skip(thread * 5)
                        .take(requests.len())
                        .cloned()
                        .collect();
                    let bodies: Vec<(&KernelInput, TuneObjective)> =
                        mine.iter().map(|r| (&r.kernel, r.objective)).collect();
                    // Release every thread into the shared service at once.
                    start.wait();
                    let fused = service.tune_batch(&bodies);
                    let served = engine.tune_batch(&mine);
                    for ((request, fused), served) in mine.iter().zip(&fused).zip(&served) {
                        let id = request.id;
                        let what = format!("workers={workers} thread={thread} id={id}");
                        let expected = &offline[id as usize];
                        let single = service.tune(&request.kernel, request.objective);
                        assert_eq!(single.as_ref().ok(), Some(expected), "{what}");
                        assert_same_prediction(fused.as_ref().expect("fused"), expected, &what);
                        assert_eq!(served.id, id, "{what}");
                        let served = served.prediction.as_ref().expect("served");
                        assert_same_prediction(served, expected, &what);
                    }
                });
            }
        });
    }
}

/// ISSUE 8: the whole workload pipelined over one connection so the
/// dispatcher drains it into fused objective groups — every daemon response
/// must still match the offline single-graph path to the bit, and the fused
/// counters must show block-diagonal batching actually happened.
#[test]
fn fused_daemon_batches_are_bit_identical_to_offline_predictions() {
    let fx = fixture();
    let requests = workload(&fx.ds);
    let offline = offline_predictions(fx, &requests);

    let engine = start_engine(2);
    let addr = spawn_server(engine, roomy_config(requests.len().max(16)));
    let mut client = Client::connect(addr).expect("connect");
    // Pipeline every request before reading a single response: the
    // dispatcher sees them all queued and fuses per (machine, objective).
    for request in &requests {
        client
            .send(&Request::Tune(request.clone()))
            .expect("send tune");
    }
    let mut responses = Vec::with_capacity(requests.len());
    for _ in &requests {
        let Response::Tune(tune) = client.receive().expect("receive tune") else {
            panic!("Tune must answer Tune");
        };
        responses.push(tune);
    }
    responses.sort_by_key(|t| t.id);
    for (tune, (request, expected)) in responses.iter().zip(requests.iter().zip(&offline)) {
        assert_eq!(tune.id, request.id);
        let got = tune
            .prediction
            .as_ref()
            .unwrap_or_else(|| panic!("request {} failed: {:?}", request.id, tune.error));
        assert_same_prediction(got, expected, &format!("request {}", request.id));
    }

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert_eq!(stats.requests, requests.len() as u64);
    // Every tune request reached its service through a fused group...
    assert_eq!(stats.fused_graphs, requests.len() as u64);
    // ...and grouping actually fused: fewer groups than requests, with at
    // least one group carrying several graphs.
    assert!(
        stats.fused_batches < stats.fused_graphs,
        "fused_batches={} fused_graphs={}",
        stats.fused_batches,
        stats.fused_graphs
    );
    assert!(stats.max_fused_batch > 1, "{stats:?}");
    let _ = client.request(&Request::Shutdown);
}

#[test]
fn registry_and_control_surface_answer_over_the_wire() {
    let engine = start_engine(1);
    let addr = spawn_server(engine, roomy_config(8));
    let mut client = Client::connect(addr).expect("connect");

    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Ok
    ));

    let Response::Models { models } = client.request(&Request::List).expect("list") else {
        panic!("List must answer Models");
    };
    assert_eq!(models.len(), 2);
    assert!(models.iter().all(|m| m.machine == "haswell"));
    let id = models[0].id.clone();

    let Response::Description { text } = client
        .request(&Request::Describe { id: id.clone() })
        .expect("describe")
    else {
        panic!("Describe must answer Description");
    };
    let text = text.expect("known id describes");
    assert!(text.contains(&id) && text.contains("dataset:"), "{text}");
    let Response::Description { text } = client
        .request(&Request::Describe { id: "nope".into() })
        .expect("describe unknown")
    else {
        panic!("Describe must answer Description");
    };
    assert!(text.is_none());

    assert!(matches!(
        client
            .request(&Request::SetWorkers { workers: 2 })
            .expect("set workers"),
        Response::Ok
    ));
    let fx = fixture();
    let request = TuneRequest {
        id: 9,
        machine: "haswell".into(),
        objective: TuneObjective::Edp,
        deadline_ms: None,
        kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
    };
    let Response::Tune(tune) = client.request(&Request::Tune(request)).expect("tune") else {
        panic!("Tune must answer Tune");
    };
    assert!(tune.prediction.is_some(), "{:?}", tune.error);

    // An unknown machine is an error response, not a dropped connection.
    let request = TuneRequest {
        id: 10,
        machine: "riscv".into(),
        objective: TuneObjective::Edp,
        deadline_ms: None,
        kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
    };
    let Response::Tune(tune) = client.request(&Request::Tune(request)).expect("tune") else {
        panic!("Tune must answer Tune");
    };
    assert!(tune.error.as_deref().unwrap_or_default().contains("riscv"));

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert_eq!(stats.grids_loaded, 2);
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.workers, 2);
    assert_eq!(stats.machines, vec!["haswell".to_string()]);

    assert!(matches!(
        client.request(&Request::Shutdown).expect("shutdown"),
        Response::Ok
    ));
}

#[test]
fn nesting_bomb_frames_get_typed_errors_and_the_daemon_keeps_answering() {
    let engine = start_engine(1);
    let addr = spawn_server(engine, roomy_config(8));
    let fx = fixture();
    let request = Request::Tune(TuneRequest {
        id: 11,
        machine: "haswell".into(),
        objective: TuneObjective::Edp,
        deadline_ms: None,
        kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
    });
    let json = serde_json::to_string(&request).expect("request serializes");
    let field = "\"kernel\":";
    let kernel_at = json.find(field).expect("a kernel field") + field.len();
    let (head, _) = json.split_at(kernel_at);
    // A tune frame whose kernel opens 100k arrays or objects: unbounded
    // recursion would overflow the connection thread's stack and abort the
    // daemon; the parser's depth limit turns it into a typed error reply.
    for bomb in ["[".repeat(100_000), "{\"a\":".repeat(100_000)] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write_frame(&mut stream, format!("{head}{bomb}").as_bytes()).expect("send bomb");
        let reply: Response = read_message(&mut stream)
            .expect("a well-formed reply")
            .expect("a reply before the connection closes");
        let Response::Error { message } = reply else {
            panic!("a nesting bomb must answer Error, got {reply:?}");
        };
        assert!(message.contains("nesting too deep"), "{message}");
    }
    // The same daemon still answers on a fresh connection.
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Ok
    ));
    let _ = client.request(&Request::Shutdown);
}

#[test]
fn nesting_bomb_in_an_unknown_field_gets_an_error_and_the_daemon_keeps_answering() {
    let engine = start_engine(1);
    let addr = spawn_server(engine, roomy_config(8));
    let fx = fixture();
    let request = Request::Tune(TuneRequest {
        id: 12,
        machine: "haswell".into(),
        objective: TuneObjective::Edp,
        deadline_ms: None,
        kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
    });
    let json = serde_json::to_string(&request).expect("request serializes");
    // A valid tune request plus one key the request type does not have,
    // holding 100k balanced arrays: the typed read skips unknown keys, and
    // the skip must still stop at the depth limit.
    let field = "{\"Tune\":{";
    assert!(json.starts_with(field), "{json}");
    let depth = 100_000;
    let frame = format!(
        "{field}\"zz\":{}{},{}",
        "[".repeat(depth),
        "]".repeat(depth),
        &json[field.len()..]
    );
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, frame.as_bytes()).expect("send bomb");
    let reply: Response = read_message(&mut stream)
        .expect("a well-formed reply")
        .expect("a reply before the connection closes");
    let Response::Error { message } = reply else {
        panic!("a hidden nesting bomb must answer Error, got {reply:?}");
    };
    assert!(message.contains("nesting too deep"), "{message}");
    // The same daemon still answers on a fresh connection.
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Ok
    ));
    let _ = client.request(&Request::Shutdown);
}

/// A clock that jumps 100 fake milliseconds on every reading, making
/// queue-wait "time" deterministic: any request observed by the dispatcher
/// after admission has aged at least 100 ms, while the whole test spans
/// well under an hour of fake time.
fn fast_fake_clock() -> Clock {
    let base = Instant::now();
    let ticks = Arc::new(AtomicU64::new(0));
    Arc::new(move || base + Duration::from_millis(100 * ticks.fetch_add(1, Ordering::SeqCst)))
}

/// ISSUE 10: a queued request whose `deadline_ms` budget runs out must be
/// answered with a typed `DeadlineExceeded` rejection — and requests with
/// no (or a generous) deadline must be wholly unaffected.
#[test]
fn expired_deadlines_are_typed_rejections_not_errors() {
    let fx = fixture();
    let engine = start_engine(1);
    let addr = spawn_server(
        engine.clone(),
        ServeConfig::new(4, usize::MAX, fast_fake_clock()),
    );
    let mut client = Client::connect(addr).expect("connect");

    let tune = |deadline_ms: Option<u64>, id: u64| {
        Request::Tune(TuneRequest {
            id,
            machine: "haswell".into(),
            objective: TuneObjective::Edp,
            deadline_ms,
            kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
        })
    };
    // 10 fake-ms of budget always expires before dequeue (the clock moved
    // ≥100 fake ms in between)...
    let response = client.request(&tune(Some(10), 1)).expect("tight deadline");
    assert!(
        matches!(
            response,
            Response::Rejected {
                id: 1,
                reason: RejectReason::DeadlineExceeded
            }
        ),
        "a spent deadline budget must be a typed rejection, got {response:?}"
    );
    // ...while no deadline and an hour of budget are served normally.
    for (deadline_ms, id) in [(None, 2u64), (Some(3_600_000), 3)] {
        let Response::Tune(tune) = client.request(&tune(deadline_ms, id)).expect("tune") else {
            panic!("Tune must answer Tune");
        };
        assert_eq!(tune.id, id);
        assert!(tune.prediction.is_some(), "{:?}", tune.error);
    }

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.shed_requests, 0);
    assert_eq!(
        stats.requests, 2,
        "the expired request never took a batch slot"
    );
    assert_eq!(stats.queue_depth, 0, "every queue slot was released");
    let _ = client.request(&Request::Shutdown);
}

/// ISSUE 10: `max_queue = 0` is the deterministic shed case — every tune
/// request is refused with a typed `Overloaded` rejection while the control
/// surface keeps answering.
#[test]
fn zero_queue_sheds_every_tune_request_with_typed_rejections() {
    let fx = fixture();
    let engine = start_engine(1);
    let addr = spawn_server(
        engine.clone(),
        ServeConfig::new(4, 0, Arc::new(Instant::now)),
    );
    let mut client = Client::connect(addr).expect("connect");

    for id in 0..5u64 {
        let request = Request::Tune(TuneRequest {
            id,
            machine: "haswell".into(),
            objective: TuneObjective::Edp,
            deadline_ms: None,
            kernel: KernelInput::Graph(fx.ds.regions[0].graph.clone()),
        });
        let response = client.request(&request).expect("shed response");
        assert!(
            matches!(
                response,
                Response::Rejected {
                    id: got,
                    reason: RejectReason::Overloaded
                } if got == id
            ),
            "expected an Overloaded rejection for {id}, got {response:?}"
        );
    }
    assert!(matches!(
        client.request(&Request::Ping).expect("ping"),
        Response::Ok
    ));
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert_eq!(stats.shed_requests, 5);
    assert_eq!(stats.requests, 0, "a shed request never reaches the engine");
    assert_eq!(stats.queue_depth, 0);
    let _ = client.request(&Request::Shutdown);
}

/// ISSUE 10: a saturating pipelined client against a one-slot queue gets a
/// mix of accepted and shed responses — and the accepted ones must be
/// bit-identical to the offline path, because shedding changes *whether* a
/// request is served, never *how* (DESIGN.md §17).
#[test]
fn accepted_requests_stay_bit_identical_under_saturating_load() {
    let fx = fixture();
    let requests = workload(&fx.ds);
    let offline = offline_predictions(fx, &requests);

    let engine = start_engine(2);
    let addr = spawn_server(
        engine.clone(),
        ServeConfig::new(1, 1, Arc::new(Instant::now)),
    );
    let mut client = Client::connect(addr).expect("connect");
    for request in &requests {
        client
            .send(&Request::Tune(request.clone()))
            .expect("send tune");
    }
    let mut accepted = 0usize;
    let mut shed = 0usize;
    for _ in &requests {
        match client.receive().expect("receive") {
            Response::Tune(tune) => {
                accepted += 1;
                let i = tune.id as usize;
                let got = tune
                    .prediction
                    .unwrap_or_else(|| panic!("request {i} failed: {:?}", tune.error));
                assert_same_prediction(&got, &offline[i], &format!("request {i}"));
            }
            Response::Rejected {
                reason: RejectReason::Overloaded,
                ..
            } => shed += 1,
            other => panic!("unexpected response under saturation: {other:?}"),
        }
    }
    assert_eq!(
        accepted + shed,
        requests.len(),
        "every request was answered"
    );
    assert!(accepted >= 1, "an empty queue always admits");

    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert_eq!(stats.requests, accepted as u64);
    assert_eq!(stats.shed_requests, shed as u64);
    assert_eq!(stats.queue_depth, 0);
    let _ = client.request(&Request::Shutdown);
}

fn copy_artifacts(from: &Path, to: &Path) {
    for entry in std::fs::read_dir(from).expect("read_dir").flatten() {
        let path = entry.path();
        let dest = to.join(entry.file_name());
        if path.is_dir() {
            std::fs::create_dir_all(&dest).expect("mkdir");
            copy_artifacts(&path, &dest);
        } else if entry.file_name() != "index.json" {
            std::fs::copy(&path, &dest).expect("copy artifact");
        }
    }
}

/// ISSUE 10 tentpole: grids landing in the store mid-traffic are picked up
/// by the reload watcher and served without a restart — while in-flight
/// haswell traffic keeps flowing, every response bit-identical to the
/// offline path, with zero drops across the swap.
#[test]
fn store_update_hot_reloads_without_dropping_inflight_requests() {
    let fx = fixture();
    // The serving store starts as a copy of the haswell fixture; a separate
    // store gets skylake grids trained with the same tiny settings.
    let serve_dir = std::env::temp_dir().join(format!("pnp_serve_reload_{}", std::process::id()));
    let sky_dir = std::env::temp_dir().join(format!("pnp_serve_sky_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_dir);
    let _ = std::fs::remove_dir_all(&sky_dir);
    std::fs::create_dir_all(&serve_dir).expect("mkdir serve store");
    copy_artifacts(&fx.dir, &serve_dir);
    let sky_store = ArtifactStore::open(&sky_dir);
    let sky_ds = sky_store.load_or_build_dataset(
        &skylake(),
        &tiny_apps(),
        &Vocabulary::standard(),
        Threads::Fixed(1),
    );
    let sky_cache = sky_store.for_dataset(&sky_ds);
    train_scenario1_models_cached(&sky_ds, &fx.settings, false, Some(&sky_cache));
    train_scenario2_model_cached(&sky_ds, &fx.settings, false, Some(&sky_cache));

    let registry = ModelRegistry::open(Store::open(&serve_dir));
    let (engine, report) = ServeEngine::start(registry, &EngineConfig { workers: 2 });
    assert_eq!(report.grids_loaded, 2, "{:?}", report.lines);
    assert_eq!(engine.machines(), vec!["haswell".to_string()]);
    let engine = Arc::new(engine);
    let stop_watcher = Arc::new(AtomicBool::new(false));
    let watcher = engine.spawn_reload_watcher(Duration::from_millis(10), stop_watcher.clone());
    let addr = spawn_server(engine.clone(), roomy_config(8));

    // Continuous haswell traffic across the swap: every response must keep
    // matching the offline reference, before and after the reload.
    let requests = workload(&fx.ds);
    let offline = offline_predictions(fx, &requests);
    let stop_traffic = Arc::new(AtomicBool::new(false));
    let traffic = {
        let stop = stop_traffic.clone();
        let requests = requests.clone();
        let offline = offline.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect traffic");
            let mut answered = 0usize;
            while !stop.load(Ordering::SeqCst) {
                for (request, expected) in requests.iter().zip(&offline) {
                    let Response::Tune(tune) = client
                        .request(&Request::Tune(request.clone()))
                        .expect("in-flight tune answered")
                    else {
                        panic!("Tune must answer Tune");
                    };
                    let got = tune.prediction.unwrap_or_else(|| {
                        panic!("request {} failed: {:?}", request.id, tune.error)
                    });
                    assert_same_prediction(&got, expected, &format!("request {}", request.id));
                    answered += 1;
                }
            }
            answered
        })
    };

    // The store update: skylake's dataset + grids land as plain files (as a
    // trainer on another host would deliver them). The watcher must notice
    // the index generation change and swap the new pools in.
    copy_artifacts(&sky_dir, &serve_dir);
    let reloaded_by = Instant::now() + Duration::from_secs(30);
    while !engine.machines().contains(&"skylake".to_string()) {
        assert!(
            Instant::now() < reloaded_by,
            "watcher never picked up the store update (machines: {:?})",
            engine.machines()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The new machine serves — bit-identical to an offline service restored
    // from the same skylake grids.
    let s1 = sky_cache
        .store()
        .load(&sky_cache.grid_key(GridPipeline::Scenario1 { dynamic: false }, &fx.settings))
        .expect("skylake scenario1 grid");
    let s2 = sky_cache
        .store()
        .load(&sky_cache.grid_key(GridPipeline::Scenario2 { dynamic: false }, &fx.settings))
        .expect("skylake scenario2 grid");
    let sky_service = TuneService::restore(&sky_ds, &fx.settings, &s1, &s2, "t", "e")
        .expect("offline skylake service restores");
    let kernel = KernelInput::Graph(sky_ds.regions[0].graph.clone());
    let expected = sky_service
        .tune(&kernel, TuneObjective::Edp)
        .expect("offline skylake tune");
    let mut client = Client::connect(addr).expect("connect");
    let Response::Tune(tune) = client
        .request(&Request::Tune(TuneRequest {
            id: 77,
            machine: "skylake".into(),
            objective: TuneObjective::Edp,
            deadline_ms: None,
            kernel,
        }))
        .expect("skylake tune")
    else {
        panic!("Tune must answer Tune");
    };
    let got = tune.prediction.expect("skylake request served");
    assert_same_prediction(&got, &expected, "skylake");

    // Wind down: the traffic thread must have crossed the swap with zero
    // dropped or diverging responses (its asserts propagate through join).
    stop_traffic.store(true, Ordering::SeqCst);
    let answered = traffic.join().expect("traffic thread clean");
    assert!(answered > 0, "traffic actually flowed during the reload");
    let Response::Stats(stats) = client.request(&Request::Stats).expect("stats") else {
        panic!("Stats must answer Stats");
    };
    assert!(stats.reloads >= 1, "{stats:?}");
    assert_eq!(stats.grids_loaded, 4, "both machines' grids are live");
    assert_eq!(stats.shed_requests, 0);
    assert_eq!(stats.deadline_expired, 0);
    stop_watcher.store(true, Ordering::SeqCst);
    let _ = client.request(&Request::Shutdown);
    let _ = watcher.join();
    let _ = std::fs::remove_dir_all(&serve_dir);
    let _ = std::fs::remove_dir_all(&sky_dir);
}
