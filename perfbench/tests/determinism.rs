//! The benchmark's own checks, mostly on scaled-down copies of its
//! workloads: simulated metrics repeat bit for bit for a seed and match the
//! values pinned when the benchmark was defined, tracing and checkpointing
//! leave the trajectory untouched, and `BENCHMARK.json` names exactly the
//! metrics the command prints.

use perfbench::episode::{run_episode, Episode};
use perfbench::pins::{pinned, PINNED_SEEDS};
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::trace::Trace;
use perfbench::workloads::{Workload, World, WORKLOADS};
use serde::Deserialize;

/// A copy of `workload` small enough to run in a test, keeping its world,
/// stepping call and checkpointing.
fn small(workload: Workload) -> Workload {
    Workload {
        sessions: workload.sessions.min(256),
        world: match workload.world {
            World::DenseDuty { .. } => World::DenseDuty {
                networks: 64,
                burst_period: 8,
            },
            other => other,
        },
        episode_slots: 40,
        window_slots: 10,
        checkpoint_every: workload.checkpoint_every.map(|_| 10),
        ..workload
    }
}

fn sim_bits(episode: &Episode) -> [u64; 4] {
    let sim = episode.sim;
    [
        sim.distance_pct.to_bits(),
        sim.switch_rate.to_bits(),
        sim.jain.to_bits(),
        sim.goodput_mbps.to_bits(),
    ]
}

#[test]
fn simulated_metrics_repeat_bit_for_bit() {
    for workload in WORKLOADS.map(small) {
        let first = run_episode(&workload, 7, true, None);
        let second = run_episode(&workload, 7, true, None);
        assert_eq!(first.failed, 0, "{}", workload.name);
        assert_eq!(sim_bits(&first), sim_bits(&second), "{}", workload.name);
        assert_eq!(first.fingerprint, second.fingerprint, "{}", workload.name);
        assert!(first.sim.distance_pct > 0.0, "{}", workload.name);
        assert!(first.sim.switch_rate > 0.0, "{}", workload.name);
        assert!(first.sim.jain > 0.0, "{}", workload.name);
        assert!(first.sim.goodput_mbps > 0.0, "{}", workload.name);
    }
}

/// Seed 1 of every full-size workload, checkpoints included, reproduces
/// its pinned trajectory and the simulated metrics the benchmark reported
/// when it was defined. A perf-only change must keep this test passing.
#[test]
fn full_size_workloads_reproduce_their_pins() {
    let expected: [(&str, [f64; 4]); 3] = [
        (
            "equal_share_sync",
            [2.2630787878787904, 0.15738475, 0.9949896637520608, 0.33],
        ),
        (
            "dense_duty_events",
            [
                96.38804845826678,
                0.9913114539748954,
                0.6372542454248253,
                3.2401608263598325,
            ],
        ),
        (
            "mobility_checkpoint",
            [33.6514698412698, 0.1505304, 0.6455561707752852, 3.143772],
        ),
    ];
    for (workload, (name, sim)) in WORKLOADS.iter().zip(expected) {
        assert_eq!(workload.name, name);
        let episode = run_episode(workload, 1, true, None);
        assert_eq!(episode.failed, 0, "{name}");
        assert_eq!(sim_bits(&episode), sim.map(f64::to_bits), "{name}");
        assert_eq!(Some(episode.trajectory), pinned(name, 1), "{name}");
    }
    assert_eq!(pinned("equal_share_sync", PINNED_SEEDS), None);
    assert_eq!(pinned("no_such_workload", 1), None);
}

#[test]
fn the_seed_changes_the_inputs() {
    for workload in WORKLOADS.map(small) {
        let a = run_episode(&workload, 1, false, None);
        let b = run_episode(&workload, 2, false, None);
        assert_ne!(a.fingerprint, b.fingerprint, "{}", workload.name);
    }
}

#[test]
fn checkpointed_episode_matches_its_uninterrupted_twin() {
    let workload = small(WORKLOADS[2]);
    let twin = run_episode(&workload, 11, false, None);
    let checkpointed = run_episode(&workload, 11, true, None);
    assert!(twin.checkpoint_s.is_empty());
    assert_eq!(checkpointed.checkpoint_s.len(), 3);
    assert!(checkpointed.snapshot_bytes.iter().all(|&b| b > 0));
    assert_eq!(checkpointed.failed, 0);
    assert_eq!(twin.fingerprint, checkpointed.fingerprint);
    assert_eq!(sim_bits(&twin), sim_bits(&checkpointed));
}

#[test]
fn tracing_leaves_the_trajectory_untouched() {
    for workload in WORKLOADS.map(small) {
        let plain = run_episode(&workload, 5, true, None);
        let trace = Trace::new();
        let traced = run_episode(&workload, 5, true, Some(&trace));
        assert_eq!(plain.fingerprint, traced.fingerprint, "{}", workload.name);
        assert_eq!(traced.failed, 0, "{}", workload.name);
        assert!(plain.layers.is_none());
        let layers = traced.layers.expect("traced episodes report layers");
        assert_eq!(
            layers["telemetry.records"], workload.episode_slots as f64,
            "{}: one record per stepped slot",
            workload.name
        );
        assert!(layers["env.begin_slot_calls"] > 0.0, "{}", workload.name);
        assert!(layers["env.partition_jobs"] > 0.0, "{}", workload.name);
        // Every per-layer name is produced by the episode or by the run.
        let run_level = [
            "checkpoint_s",
            "restore_s",
            "snapshot_mb",
            "trace.decisions_per_s",
            "trace.untraced_decisions_per_s",
            "trace.overhead_pct",
        ];
        for (name, _) in PER_LAYER {
            assert!(
                layers.contains_key(name) || run_level.contains(&name),
                "{name} is never measured"
            );
        }
        assert!(!traced.spans.is_empty());
    }
}

#[test]
fn traced_layers_see_the_workload_mechanisms() {
    let trace = Trace::new();
    let dense = run_episode(&small(WORKLOADS[1]), 3, true, Some(&trace));
    let layers = dense.layers.expect("traced");
    assert!(layers["env.wake_protocol_calls"] > 0.0);
    assert!(layers["core.sampler_rebuilds_per_kdecision"] > 0.0);
    assert!(layers["engine.decisions_per_cohort"] < small(WORKLOADS[1]).sessions as f64);

    let trace = Trace::new();
    let mobility = run_episode(&small(WORKLOADS[2]), 3, true, Some(&trace));
    let layers = mobility.layers.expect("traced");
    assert!(layers["env.networks_changed"] > 0.0);
    assert!(layers["serde_json.bytes"] > 0.0);
    assert!(layers["env.state_bytes"] > 0.0);
    assert!(layers["serde_json.parse_s"] > 0.0);
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Metric {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct Spec {
    workloads: Vec<Named>,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

#[test]
fn benchmark_json_names_what_the_command_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let spec: Spec = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = spec.workloads.iter().map(|w| w.name.as_str()).collect();
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    let pairs = |list: &[Metric]| -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect()
    };
    let expected = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect()
    };
    assert_eq!(pairs(&spec.end_to_end), expected(&END_TO_END));
    assert_eq!(pairs(&spec.per_layer), expected(&PER_LAYER));
}
