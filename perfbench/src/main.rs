//! The repository benchmark.
//!
//! ```text
//! perfbench --daemon PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (why each was chosen is in `BENCHMARK.json`):
//!
//! * `serve_suite_paced` — an open loop of independent users at 300
//!   requests/s sending paper-suite regions in source form to a real
//!   `pnp_serve` daemon (`--daemon`).
//! * `serve_gen_burst` — a closed loop of two clients, each sending bursts
//!   of 32 never-repeated generated kernels in pre-encoded graph form.
//!
//! Every run first trains the store the daemon serves from scratch — the
//! offline pipeline: sweep, then the scenario-1 and scenario-2 LOOCV grids
//! with their predictions, on both machines — and prints its time to models
//! and the prediction quality. Both workloads report the same end-to-end
//! metrics, each for the workload's unit of work (a request or a burst):
//! `setup_s`, `p50_ms`, `p90_ms`, `rss_mb`. The lines before
//! the result also print each workload's own figures by name and unit.
//! With `--trace 1` the run replays the same inputs in-process under the
//! span recorder and reports the per-layer metrics instead. The last line
//! of standard output is the JSON result; the exit code is 0 only when the
//! outputs checked correct.

mod daemon;
mod inputs;
mod loadgen;
mod serve;
mod stats;
mod trace;
mod train;

use pnp_core::training::TrainSettings;
use pnp_openmp::Threads;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Offered load of `serve_suite_paced`, requests per second: about half the
/// daemon's source-form capacity on two cores.
const PACED_RATE: f64 = 300.0;

/// The end-to-end metrics, reported by every workload.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("rss_mb", "MB"),
];

/// The per-layer metrics of a traced run; a layer a workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("protocol.decode_us", "us"),
    ("protocol.encode_us", "us"),
    ("protocol.request_bytes", "bytes"),
    ("wire.wait_ms", "ms"),
    ("ir.lower_us", "us"),
    ("graph.build_us", "us"),
    ("graph.encode_us", "us"),
    ("graph.validate_us", "us"),
    ("core.resolve_us", "us"),
    ("core.committee_us", "us"),
    ("core.tune_batch_us", "us"),
    ("gnn.batch_us", "us"),
    ("gnn.forward_batch_us", "us"),
    ("gnn.graphs_per_forward", "count"),
    ("engine.tune_batch_us", "us"),
    ("engine.mean_batch", "count"),
    ("engine.mean_fused_group", "count"),
    ("engine.groups_per_batch", "count"),
    ("engine.shed", "count"),
    ("engine.deadline_expired", "count"),
    ("loadgen.late_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.load_dataset_ms", "ms"),
    ("store.load_grid_ms", "ms"),
    ("core.restore_ms", "ms"),
    ("openmp.sweep_s", "s"),
    ("openmp.simulations", "count"),
    ("openmp.simulate_us", "us"),
    ("core.train_scenario1_s", "s"),
    ("core.train_scenario2_s", "s"),
    ("gnn.train_steps", "count"),
    ("gnn.train_forward_us", "us"),
    ("gnn.backward_us", "us"),
    ("tensor.optim_step_us", "us"),
    ("trace.overhead_pct", "%"),
];

/// One benchmark invocation.
pub struct Run {
    /// The `pnp_serve` binary.
    daemon: PathBuf,
    /// Scratch directory for the store, port files, traces and references.
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<&'static str, f64>,
    layers: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Sets an end-to-end metric of the JSON result.
    fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Prints one of the workload's own figures by name and unit.
    fn named(&mut self, name: &str, value: f64, unit: &str, detail: &str) {
        let detail = if detail.is_empty() {
            String::new()
        } else {
            format!(" ({detail})")
        };
        self.notes.push(format!("{name} = {value} {unit}{detail}"));
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Training settings of every workload: `TrainSettings::quick()`, with one
/// training and sweep worker per available core.
pub fn train_settings() -> TrainSettings {
    let mut settings = TrainSettings::quick();
    settings.train_threads = Threads::Fixed(available_parallelism());
    settings
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes a traced run's spans next to the other run outputs.
fn write_trace(run: &Run, rec: &trace::Recorder) -> Result<(), String> {
    let path = run
        .work
        .join(format!("trace-{}-{}.json", run.workload, run.seed));
    std::fs::write(&path, rec.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("[perfbench] spans written to {}", path.display());
    Ok(())
}

/// The commit being measured, when the working directory is a git checkout
/// (an exported tree is not, and git must not find an enclosing repository).
fn git_sha() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if !matches!(
            flag.as_str(),
            "--daemon" | "--workload" | "--seed" | "--seconds" | "--trace"
        ) {
            return Err(format!("unknown argument {flag}"));
        }
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |flag: &str| flags.get(flag).copied().ok_or(format!("missing {flag}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    Ok(Run {
        daemon: PathBuf::from(get("--daemon")?),
        work: PathBuf::from(target).join("perfbench"),
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?
            .parse()
            .map_err(|_| "--seed takes an integer")?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = parse_args(&args).unwrap_or_else(|why| {
        eprintln!("perfbench: {why}");
        std::process::exit(2);
    });
    if let Err(e) = std::fs::create_dir_all(&run.work) {
        eprintln!("perfbench: {}: {e}", run.work.display());
        std::process::exit(1);
    }
    let settings = train_settings();
    let rate = (run.workload == "serve_suite_paced").then_some(PACED_RATE);
    println!(
        "# context: git_sha={} available_parallelism={} train_settings=quick(hidden {}, rgcn layers {}, fc {}, epochs {}, batch {}, folds {}, seed {:#x}) train_threads={} sweep_threads={} workload={} rate_rps={} burst={} sessions={} keep_awake_threads={} seed={} seconds={} trace={}",
        git_sha(),
        available_parallelism(),
        settings.hidden_dim,
        settings.rgcn_layers,
        settings.fc_hidden,
        settings.epochs,
        settings.batch_size,
        settings.folds,
        settings.seed,
        available_parallelism(),
        available_parallelism(),
        run.workload,
        rate.map_or("-".into(), |r: f64| r.to_string()),
        serve::BURST,
        serve::SESSIONS,
        available_parallelism(),
        run.seed,
        run.seconds,
        u8::from(run.trace),
    );
    let outcome = match (run.workload.as_str(), rate) {
        (_, Some(rate)) => serve::run(&run, serve::Mode::Paced { rate }),
        ("serve_gen_burst", None) => serve::run(&run, serve::Mode::Burst),
        (other, None) => Err(format!("unknown workload {other}")),
    };
    let outcome = outcome.unwrap_or_else(|why| {
        eprintln!("perfbench: {why}");
        std::process::exit(1);
    });
    for line in &outcome.notes {
        println!("# {line}");
    }

    let chosen: Vec<(&str, &str, f64)> = if run.trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, outcome.layers.get(name).copied().unwrap_or(0.0)))
            .collect()
    } else {
        let mut chosen = Vec::new();
        for (name, unit) in END_TO_END {
            let Some(&value) = outcome.metrics.get(name) else {
                eprintln!("perfbench: workload did not measure {name}");
                std::process::exit(1);
            };
            chosen.push((name, unit, value));
        }
        chosen
    };
    for &(name, unit, value) in &chosen {
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not a finite number");
            std::process::exit(1);
        }
        println!("# metric {name} = {value} {unit}");
    }
    if outcome.attempted == 0 {
        eprintln!("perfbench: nothing was attempted");
        std::process::exit(1);
    }
    let metrics: Vec<String> = chosen
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}
