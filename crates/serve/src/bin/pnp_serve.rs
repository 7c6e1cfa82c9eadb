//! The tuning daemon (SERVING.md): loads every model grid from the artifact
//! store once at startup, then serves tune requests over the
//! length-prefixed socket protocol with cross-connection batching,
//! admission control, per-request deadlines, and hot model reload.
//!
//! ```text
//! pnp_serve --store DIR [--addr 127.0.0.1:0] [--port-file PATH]
//!           [--workers N] [--max-batch N] [--max-queue N]
//!           [--reload-poll-ms MS] [--stdio]
//! ```
//!
//! `--store` falls back to the `PNP_STORE` environment variable. The
//! build-only store modes `PNP_STORE_FORCE` / `PNP_STORE_VERIFY` are
//! ignored: the daemon only reads the store, and honouring them would make
//! every load a miss. With
//! `--addr` port 0 (the default) the OS picks a free port; `--port-file`
//! writes the bound port as decimal text once the listener is ready, which
//! is how CI and `pnp_load --port-file` synchronize startup. `--stdio`
//! serves a single session over stdin/stdout instead of a socket.
//!
//! `--max-queue` bounds queued-but-unserved tune requests across all
//! connections; beyond it the daemon sheds with typed `Rejected` responses
//! (DESIGN.md §17). The default `0` means auto: `max_batch ×` the resolved
//! worker count — enough headroom to keep every worker fed with a full
//! batch, small enough that queueing delay stays bounded. `--reload-poll-ms`
//! sets how often the registry watcher checks the store's index generation
//! for hot reload (default 1000; `0` disables the watcher).

use pnp_bench::{banner, bool_flag_from, string_flag_from};
use pnp_core::registry::ModelRegistry;
use pnp_openmp::Threads;
use pnp_serve::{serve, serve_stdio, EngineConfig, ServeConfig, ServeEngine, DEFAULT_MAX_BATCH};
use pnp_store::Store;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usize_flag(args: &[String], flag: &str, default: usize) -> usize {
    string_flag_from(args, flag)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{flag} takes an integer"))
        })
        .unwrap_or(default)
}

fn main() {
    banner(
        "pnp_serve",
        "tuning-as-a-service daemon on the model registry",
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let store = match string_flag_from(&args, "--store") {
        Some(dir) => Store::open(dir),
        None => Store::from_env().unwrap_or_else(|| {
            eprintln!("[pnp-serve] no store configured — pass --store DIR or set PNP_STORE");
            std::process::exit(2);
        }),
    };
    eprintln!("[pnp-serve] store: {}", store.root().display());

    let config = EngineConfig {
        workers: usize_flag(&args, "--workers", 0),
    };
    let max_batch = usize_flag(&args, "--max-batch", DEFAULT_MAX_BATCH).max(1);
    let max_queue = match usize_flag(&args, "--max-queue", 0) {
        // Auto: a full batch per worker may be in flight, and as much again
        // may wait — beyond that, shedding beats queueing.
        0 => {
            let workers = match config.workers {
                0 => Threads::Auto.resolve(),
                n => n,
            };
            max_batch * workers.max(1)
        }
        n => n,
    };
    let reload_poll_ms = usize_flag(&args, "--reload-poll-ms", 1000);

    // Cold start spans the index read, every grid's load and fit check,
    // and each machine's service assembly.
    let cold_start = Instant::now();
    let registry = ModelRegistry::open(store);
    eprintln!(
        "[pnp-serve] registry: {} dataset(s), {} model grid(s)",
        registry.datasets().len(),
        registry.models().len()
    );
    let (engine, report) = ServeEngine::start(registry, &config);
    eprintln!(
        "[pnp-serve] cold start: {} grid(s) loaded, {} skipped in {} ms",
        report.grids_loaded,
        report.grids_skipped,
        cold_start.elapsed().as_millis()
    );
    let machines = engine.machines();
    if machines.is_empty() {
        eprintln!("[pnp-serve] no machine has a serveable scenario1+scenario2 pair — exiting");
        std::process::exit(2);
    }
    eprintln!("[pnp-serve] serving machines: {}", machines.join(", "));
    eprintln!("[pnp-serve] admission: max {max_queue} queued request(s), batches of {max_batch}");
    let engine = Arc::new(engine);
    let serve_config = ServeConfig::new(max_batch, max_queue, Arc::new(Instant::now));

    let watcher_stop = Arc::new(AtomicBool::new(false));
    let watcher = match reload_poll_ms {
        0 => {
            eprintln!("[pnp-serve] registry watcher disabled (--reload-poll-ms 0)");
            None
        }
        ms => {
            eprintln!("[pnp-serve] registry watcher: polling store generation every {ms} ms");
            Some(
                engine.spawn_reload_watcher(Duration::from_millis(ms as u64), watcher_stop.clone()),
            )
        }
    };

    if bool_flag_from(&args, "--stdio") {
        serve_stdio(engine.clone(), serve_config);
    } else {
        let addr = string_flag_from(&args, "--addr").unwrap_or_else(|| "127.0.0.1:0".into());
        let listener =
            TcpListener::bind(&addr).unwrap_or_else(|e| panic!("cannot bind {addr}: {e}"));
        let local = listener
            .local_addr()
            .expect("bound listener has an address");
        eprintln!("[pnp-serve] listening on {local}");
        if let Some(path) = string_flag_from(&args, "--port-file") {
            // Write-then-rename so a watcher never reads a half-written port.
            let tmp = format!("{path}.tmp");
            std::fs::write(&tmp, format!("{}\n", local.port()))
                .and_then(|()| std::fs::rename(&tmp, &path))
                .unwrap_or_else(|e| panic!("cannot write port file {path}: {e}"));
            eprintln!("[pnp-serve] port file: {path}");
        }
        serve(listener, engine.clone(), serve_config);
    }

    watcher_stop.store(true, Ordering::SeqCst);
    if let Some(handle) = watcher {
        let _ = handle.join();
    }
    let stats = engine.stats();
    eprintln!(
        "[pnp-serve] shutdown after {} request(s) in {} batch(es) (max batch {})",
        stats.requests, stats.batches, stats.max_batch_seen
    );
    eprintln!(
        "[pnp-serve] fused inference: {} graph(s) in {} fused group(s) (max fused {})",
        stats.fused_graphs, stats.fused_batches, stats.max_fused_batch
    );
    eprintln!(
        "[pnp-serve] degradation: {} shed, {} deadline-expired, {} hot reload(s)",
        stats.shed_requests, stats.deadline_expired, stats.reloads
    );
}
