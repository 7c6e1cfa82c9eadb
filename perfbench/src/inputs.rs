//! Workload inputs, each a pure function of the workload seed. The daemon
//! only ever sees the requests built here.

use crate::loadgen::Rng;
use pnp_core::serving::{resolve_graph, KernelInput, TuneObjective, TuneRequest};
use pnp_graph::Vocabulary;
use pnp_machine::{haswell, skylake, MachineSpec};
use pnp_tuners::SearchSpace;

/// The machines both serve workloads address, in registry naming.
pub fn machines() -> [MachineSpec; 2] {
    [haswell(), skylake()]
}

/// Every objective of `machine`: one time objective per power level, then
/// EDP.
pub fn objectives(machine: &MachineSpec) -> Vec<TuneObjective> {
    let levels = SearchSpace::for_machine(machine).power_levels.len();
    (0..levels)
        .map(|power_idx| TuneObjective::Time { power_idx })
        .chain([TuneObjective::Edp])
        .collect()
}

/// The 68 paper-suite regions in source form, in suite order.
pub fn suite_kernels() -> Vec<KernelInput> {
    let mut kernels = Vec::new();
    for app in pnp_benchmarks::full_suite() {
        let regions: Vec<_> = app.regions.iter().map(|r| r.source.clone()).collect();
        for region in &app.regions {
            kernels.push(KernelInput::Source {
                app: app.name.clone(),
                regions: regions.clone(),
                region: region.name().to_string(),
            });
        }
    }
    kernels
}

/// One request of a workload, with the index of the kernel it carries (the
/// key under which its in-process answer may be reused).
pub struct Planned {
    /// The request as sent.
    pub request: TuneRequest,
    /// Index of its kernel in the workload's kernel list.
    pub kernel: usize,
}

/// `n` independent users' requests over the paper suite: a uniformly drawn
/// region, haswell or skylake with equal odds, and an objective drawn
/// uniformly from that machine's power levels plus EDP. Ids are `0..n`.
pub fn suite_requests(seed: u64, kernels: &[KernelInput], n: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed, 1);
    let machines = machines();
    let objectives: Vec<Vec<TuneObjective>> = machines.iter().map(objectives).collect();
    (0..n)
        .map(|i| {
            let kernel = rng.below(kernels.len());
            let m = rng.below(machines.len());
            let objective = objectives[m][rng.below(objectives[m].len())];
            Planned {
                request: TuneRequest {
                    id: i as u64,
                    machine: machines[m].name.clone(),
                    objective,
                    kernel: kernels[kernel].clone(),
                    deadline_ms: None,
                },
                kernel,
            }
        })
        .collect()
}

/// `bursts` bursts of `burst` never-repeated generated kernels, pre-encoded
/// to graphs, on haswell. Every request of a burst shares one objective;
/// the objective cycles through the power levels and EDP from one burst to
/// the next. Ids are `0..bursts * burst`.
pub fn generated_bursts(seed: u64, bursts: usize, burst: usize) -> Result<Vec<Planned>, String> {
    let vocab = Vocabulary::standard();
    let machine = haswell();
    let objectives = objectives(&machine);
    pnp_ir::gen::corpus(seed, bursts * burst)
        .into_iter()
        .enumerate()
        .map(|(i, generated)| {
            let source = KernelInput::Source {
                app: format!("gen{i}"),
                region: generated.source.name.clone(),
                regions: vec![generated.source],
            };
            let graph = resolve_graph(&source, &vocab)?;
            Ok(Planned {
                request: TuneRequest {
                    id: i as u64,
                    machine: machine.name.clone(),
                    objective: objectives[(i / burst) % objectives.len()],
                    kernel: KernelInput::Graph(graph),
                    deadline_ms: None,
                },
                kernel: i,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_requests_are_a_function_of_the_seed_and_cover_the_mix() {
        let kernels = suite_kernels();
        assert_eq!(kernels.len(), 68);
        let a = suite_requests(5, &kernels, 2000);
        let b = suite_requests(5, &kernels, 2000);
        let key = |p: &Planned| (p.kernel, p.request.machine.clone(), p.request.objective);
        assert!(a.iter().zip(&b).all(|(x, y)| key(x) == key(y)));
        let haswell = a.iter().filter(|p| p.request.machine == "haswell").count();
        assert!((900..1100).contains(&haswell), "haswell share {haswell}");
        assert!(a.iter().any(|p| p.request.objective == TuneObjective::Edp));
    }

    #[test]
    fn bursts_share_an_objective_and_never_repeat_a_kernel() {
        let planned = generated_bursts(3, 3, 4).unwrap();
        assert_eq!(planned.len(), 12);
        for burst in planned.chunks(4) {
            assert!(burst
                .iter()
                .all(|p| p.request.objective == burst[0].request.objective));
        }
        assert_ne!(planned[0].request.objective, planned[4].request.objective);
        let names: std::collections::BTreeSet<String> = planned
            .iter()
            .map(|p| match &p.request.kernel {
                KernelInput::Graph(graph) => graph.name.clone(),
                KernelInput::Source { .. } => panic!("bursts carry pre-encoded graphs"),
            })
            .collect();
        assert_eq!(names.len(), 12);
    }
}
