//! Every persisted and wire type survives `to_string` → `from_str` bit for
//! bit: each float read back has the `to_bits` of the one written, and the
//! value re-serializes to the same bytes. The artifact store's payload
//! hashes and the served == offline contract (DESIGN.md §12, §14) both rest
//! on this.
//!
//! Covered: `Dataset`, `TrainedGrid`, `TuneRequest` (including a legacy
//! request with no `deadline_ms`) and `TuneResponse`, and every committed
//! `Trajectory` (`BENCH_*.json`) and `ValidationReport`
//! (`VALIDATION.json`).

use std::path::Path;

use pnp_bench::Trajectory;
use pnp_core::serving::{KernelInput, TunePrediction, TuneRequest, TuneResponse};
use pnp_core::training::{TrainSettings, TrainedGrid, TuneObjective};
use pnp_core::{Dataset, ValidationReport};
use pnp_gnn::PnPModel;
use pnp_graph::Vocabulary;
use pnp_openmp::Threads;
use serde::{Deserialize, Serialize};
use serde_json::Value;

/// Compares two serialization trees, floats by `to_bits`.
fn same_bits(a: &Value, b: &Value, path: &str) -> Result<(), String> {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if x.to_bits() == y.to_bits() => Ok(()),
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .enumerate()
            .try_for_each(|(i, (x, y))| same_bits(x, y, &format!("{path}[{i}]"))),
        (Value::Object(xs), Value::Object(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).try_for_each(|((kx, x), (ky, y))| {
                if kx == ky {
                    same_bits(x, y, &format!("{path}.{kx}"))
                } else {
                    Err(format!("{path}: key {kx} vs {ky}"))
                }
            })
        }
        (Value::Float(_) | Value::Array(_) | Value::Object(_), _) => {
            Err(format!("{path}: {a:?} vs {b:?}"))
        }
        _ if a == b => Ok(()),
        _ => Err(format!("{path}: {a:?} vs {b:?}")),
    }
}

/// Writes `value`, reads it back, and checks both the bits and the bytes.
fn round_trip<T: Serialize + Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serializes");
    let back: T = serde_json::from_str(&json).expect("deserializes");
    same_bits(&value.to_value(), &back.to_value(), "$").unwrap();
    assert_eq!(serde_json::to_string(&back).expect("re-serializes"), json);
    back
}

fn dataset() -> Dataset {
    Dataset::build_with_threads(
        &pnp_machine::haswell(),
        &pnp_benchmarks::synthetic_suite(0xB17, 3),
        &Vocabulary::standard(),
        Threads::Fixed(1),
    )
}

#[test]
fn dataset_round_trips_bit_identically() {
    let mut ds = dataset();
    // The "unbounded" sentinel takes the float fallback on the wire.
    ds.regions[0].profile.scalability_limit = usize::MAX;
    let back = round_trip(&ds);
    assert_eq!(back.regions[0].profile.scalability_limit, usize::MAX);
    // The pretty form the experiment exports use reads back the same.
    let pretty = serde_json::to_string_pretty(&ds).unwrap();
    let back: Dataset = serde_json::from_str(&pretty).unwrap();
    same_bits(&ds.to_value(), &back.to_value(), "$").unwrap();
}

#[test]
fn trained_grid_round_trips_bit_identically() {
    let settings = TrainSettings::quick();
    let weights = (0..3)
        .map(|seed| PnPModel::new(settings.model_config(6, 2, seed)).all_weights())
        .collect();
    let grid = TrainedGrid {
        jobs: vec![(0, 0), (0, 1), (usize::MAX, 3)],
        weights,
    };
    let back = round_trip(&grid);
    assert_eq!(back.jobs, grid.jobs);
}

#[test]
fn wire_types_round_trip_bit_identically() {
    let ds = dataset();
    for (i, objective) in [TuneObjective::Time { power_idx: 3 }, TuneObjective::Edp]
        .into_iter()
        .enumerate()
    {
        let request = TuneRequest {
            id: u64::MAX - i as u64,
            machine: "haswell".into(),
            objective,
            kernel: KernelInput::Graph(ds.regions[i].graph.clone()),
            deadline_ms: Some(250),
        };
        round_trip(&request);
        // A client predating deadlines sends no `deadline_ms` at all: the
        // missing field reads as `null`, i.e. no deadline.
        let json = serde_json::to_string(&request).unwrap();
        let legacy = json.replace(",\"deadline_ms\":250", "");
        assert_ne!(legacy, json, "the field was present to remove");
        let back: TuneRequest = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back.deadline_ms, None);
        let no_deadline = TuneRequest {
            deadline_ms: None,
            ..request
        };
        assert_eq!(
            serde_json::to_string(&back).unwrap(),
            serde_json::to_string(&no_deadline).unwrap()
        );
    }
    let source = TuneRequest {
        id: 3,
        machine: "skylake".into(),
        objective: TuneObjective::Edp,
        kernel: KernelInput::Source {
            app: "synthetic".into(),
            regions: pnp_benchmarks::synthetic_suite(0xB17, 1)[0]
                .regions
                .iter()
                .map(|r| r.source.clone())
                .collect(),
            region: "r0".into(),
        },
        deadline_ms: None,
    };
    round_trip(&source);
    let point = ds.space.decode_joint(5);
    for expected_gain in [1.0 / 3.0, 0.1 + 0.2, 5e-324, -0.0, 1.0] {
        let prediction = TunePrediction {
            class: 7,
            point,
            expected_gain,
            model: "haswell/scenario1".into(),
        };
        let back = round_trip(&TuneResponse::ok(9, prediction));
        let gain = back.prediction.map(|p| p.expected_gain.to_bits());
        assert_eq!(gain, Some(expected_gain.to_bits()));
    }
    round_trip(&TuneResponse::err(9, "unknown machine \"riscv\"\n"));
}

/// A committed document read as `T` writes back the same pretty text.
fn committed_round_trip<T: Serialize + Deserialize>(name: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = std::fs::read_to_string(root.join(name)).expect("committed file is readable");
    let value: T = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
    let back = round_trip(&value);
    let pretty = serde_json::to_string_pretty(&back).unwrap();
    assert_eq!(pretty.trim_end(), text.trim_end(), "{name}");
}

#[test]
fn committed_trajectories_and_validation_round_trip_bit_identically() {
    for name in [
        "BENCH_dataset_build.json",
        "BENCH_inference.json",
        "BENCH_loocv_train.json",
        "BENCH_serve.json",
    ] {
        committed_round_trip::<Trajectory>(name);
    }
    committed_round_trip::<ValidationReport>("VALIDATION.json");
}
