//! Every committed perf trajectory (`BENCH_*.json` at the repository root)
//! is written in the one `pnp_bench::Trajectory` schema, with a 1-worker
//! anchor wherever the bench has one and no broken identity contract.

use pnp_bench::Trajectory;
use std::path::Path;

fn committed_trajectories() -> Vec<(String, Trajectory)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut found: Vec<_> = std::fs::read_dir(&root)
        .expect("repository root is readable")
        .map(|entry| entry.expect("directory entry").file_name())
        .filter_map(|name| name.to_str().map(str::to_string))
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    found.sort();
    found
        .into_iter()
        .map(|name| {
            let json = std::fs::read_to_string(root.join(&name)).expect("trajectory is readable");
            let trajectory = serde_json::from_str(&json)
                .unwrap_or_else(|e| panic!("{name} is not a Trajectory: {e}"));
            (name, trajectory)
        })
        .collect()
}

#[test]
fn committed_trajectories_share_one_schema() {
    let trajectories = committed_trajectories();
    let benches: Vec<_> = trajectories.iter().map(|(_, t)| t.bench.as_str()).collect();
    assert_eq!(
        benches,
        ["dataset_build", "inference", "loocv_train", "serve"],
        "one committed trajectory per perf harness"
    );
    for (name, t) in &trajectories {
        assert!(t.context.available_parallelism >= 1, "{name}: context");
        assert!(!t.runs.is_empty(), "{name}: no runs");
        for run in &t.runs {
            assert_ne!(
                run.identical,
                Some(false),
                "{name}: run at {} workers diverged from its anchor",
                run.workers
            );
        }
        if t.bench != "serve" {
            let anchor = t.runs.iter().find(|r| r.workers == 1);
            assert_eq!(
                anchor.and_then(|r| r.speedup_vs_1w),
                Some(1.0),
                "{name}: offline trajectories carry their 1-worker anchor"
            );
        }
    }
}
