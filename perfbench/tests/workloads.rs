//! The benchmark's own tests, on 64-node instances.

use gossip_core::push_pull;
use gossip_graph::NodeId;
use perfbench::{
    input_seeds, run, run_with, Instance, Options, Outcome, Tracer, Workload, END_TO_END, INPUTS,
    PER_LAYER,
};

const NODES: usize = 64;

fn options(workload: Workload, seed: u64, trace: bool) -> Options {
    Options {
        workload,
        nodes: NODES,
        seed,
        seconds: 0.0,
        trace,
    }
}

fn names_and_units(
    result: &perfbench::RunResult,
    trace: bool,
) -> Vec<(&'static str, &'static str)> {
    result
        .measurements(trace)
        .into_iter()
        .map(|(name, _, unit)| (name, unit))
        .collect()
}

#[test]
fn every_workload_reports_the_end_to_end_metrics_and_passes_its_checks() {
    for workload in Workload::ALL {
        let result = run(&options(workload, 7, false)).unwrap();
        assert_eq!(
            result.failed,
            0,
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(result.attempted, INPUTS);
        assert_eq!(names_and_units(&result, false), END_TO_END);
        for (name, value, _) in result.measurements(false) {
            assert!(
                value.is_finite() && value > 0.0,
                "{}: {name} = {value}",
                workload.name()
            );
        }
        assert_eq!(result.metrics["ok_frac"], 1.0);
        assert_eq!(
            result.wall.keys().copied().collect::<Vec<_>>(),
            ["probe_s_p50", "setup_s", "trial_s_p50"]
        );
        assert!(result.wall.values().all(|&s| s.is_finite() && s > 0.0));
    }
}

#[test]
fn the_traced_run_reports_every_per_layer_metric_and_keeps_its_spans() {
    for workload in Workload::ALL {
        let result = run(&options(workload, 7, true)).unwrap();
        assert_eq!(
            result.failed,
            0,
            "{}: {:?}",
            workload.name(),
            result.failures
        );
        assert_eq!(names_and_units(&result, true), PER_LAYER);
        let m = &result.metrics;
        let positive: &[&str] = match workload {
            Workload::ErAllToAll | Workload::SlowLinkBroadcast => &[
                "sim.run_s",
                "sim.activations",
                "sim.oracle_run_s",
                "sim.engine_over_oracle",
            ],
            Workload::StarAllToAll => &["sim.run_s", "sim.pages_peak", "sim.sharded_speedup"],
            Workload::SpannerPipeline => &[
                "graph.filter_s",
                "core.dtg_s",
                "core.spanner_s",
                "core.rr_s",
                "core.dtg_activations",
                "core.spanner_edges",
                "core.spanner_max_out_degree",
            ],
        };
        for name in [
            "graph.build_s",
            "graph.diameter_s",
            "graph.edges",
            "host.nproc",
        ]
        .iter()
        .chain(positive)
        {
            assert!(m[name] > 0.0, "{}: {name} = {}", workload.name(), m[name]);
        }
        let tracer = result.tracer.expect("a traced run keeps its spans");
        let trials: Vec<Option<usize>> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "trial")
            .map(|s| s.trial)
            .collect();
        assert_eq!(trials, (0..result.attempted).map(Some).collect::<Vec<_>>());
        assert_eq!(tracer.durations("graph.build").len(), INPUTS);
        assert!(tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("graph.build"))
            .all(|s| s.trial.is_none() && s.parent.is_none()));
    }
}

#[test]
fn a_report_that_disagrees_with_its_reference_fails_its_trial() {
    // The reference check runs on the first trial of the last input.
    let (_, checked_seed) = input_seeds(7, INPUTS - 1);
    for workload in [
        Workload::ErAllToAll,
        Workload::SlowLinkBroadcast,
        Workload::SpannerPipeline,
    ] {
        let result = run_with(&options(workload, 7, false), |instance, seed| {
            let (mut outcome, counts) = instance.run_trial(seed, None);
            if seed == checked_seed {
                match &mut outcome {
                    Outcome::Sim(r) => r.activations += 1,
                    Outcome::Pipeline(r) => r.phases[2].activations += 1,
                }
            }
            (outcome, counts)
        })
        .unwrap();
        assert_eq!(result.failed, 1, "{}", workload.name());
        assert_eq!(result.failed_frac(), 1.0 / INPUTS as f64);
        assert_eq!(result.metrics["ok_frac"], 1.0 - 1.0 / INPUTS as f64);
    }
}

#[test]
fn an_unsaturated_star_fails_every_trial() {
    let result = run_with(
        &options(Workload::StarAllToAll, 7, false),
        |instance, seed| {
            let (mut outcome, counts) = instance.run_trial(seed, None);
            if let Outcome::Sim(r) = &mut outcome {
                r.mem
                    .as_mut()
                    .expect("the engine reports counters")
                    .saturated_nodes -= 1;
            }
            (outcome, counts)
        },
    )
    .unwrap();
    assert_eq!(result.failed, INPUTS);
    assert_eq!(result.failed_frac(), 1.0);
}

#[test]
fn two_runs_with_one_seed_give_identical_counts() {
    let exact: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(name, unit)| {
            matches!(*unit, "count" | "rounds")
                || matches!(*name, "sim.truncated_frac" | "sim.peak_engine_mb")
        })
        .map(|&(name, _)| name)
        .collect();
    for workload in Workload::ALL {
        let a = run(&options(workload, 11, false)).unwrap();
        let b = run(&options(workload, 11, false)).unwrap();
        assert_eq!(a.metrics["sim_rounds_p50"], b.metrics["sim_rounds_p50"]);
        let a = run(&options(workload, 11, true)).unwrap();
        let b = run(&options(workload, 11, true)).unwrap();
        for name in &exact {
            assert_eq!(
                a.metrics[name],
                b.metrics[name],
                "{}: {name}",
                workload.name()
            );
        }
    }
}

#[test]
fn engine_trials_are_the_push_pull_runs_of_gossip_core() {
    for workload in [Workload::ErAllToAll, Workload::SlowLinkBroadcast] {
        let (instance, _) = Instance::setup(workload, NODES, 3, None).unwrap();
        for seed in 0..3 {
            let expected = match workload {
                Workload::ErAllToAll => push_pull::all_to_all(&instance.graph, seed),
                _ => push_pull::broadcast(&instance.graph, NodeId::new(0), seed),
            };
            let Outcome::Sim(report) = instance.run_trial(seed, None).0 else {
                panic!("an engine workload returns an engine report");
            };
            assert_eq!(
                (
                    report.rounds,
                    report.activations,
                    report.completed,
                    report.mem
                ),
                (
                    expected.rounds,
                    expected.activations,
                    expected.completed,
                    expected.mem
                )
            );
        }
    }
}

#[test]
fn the_traced_pipeline_reproduces_run_known_diameter_with() {
    let (instance, _) = Instance::setup(Workload::SpannerPipeline, NODES, 3, None).unwrap();
    for seed in 0..3 {
        let mut tracer = Tracer::default();
        let (traced, counts) = instance.run_trial(seed, Some(&mut tracer));
        assert_eq!(traced, instance.run_trial(seed, None).0);
        assert!(counts.spanner_edges > 0 && counts.dtg_activations > 0);
        let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.spanner_broadcast",
                "graph.filter",
                "core.dtg",
                "core.spanner",
                "core.rr"
            ]
        );
    }
}

#[test]
fn benchmark_json_registers_the_workloads_and_metrics() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    for workload in Workload::ALL {
        assert!(json.contains(&format!("\"name\": \"{}\"", workload.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
