//! Streaming-telemetry integration tests:
//!
//! * the per-slot metric series is **value-identical at 1/2/8 threads**
//!   for every world in the catalog, so on the sequential feedback
//!   fallback one worker takes and on the partitioned path alike — the
//!   partition accumulators merge in canonical partition order, so the f64
//!   sums never depend on scheduling;
//! * the same holds for a trace world split into many small phase groups,
//!   where the merge order actually has something to get wrong;
//! * telemetry is **pure observation** — enabling it changes neither the
//!   fleet trajectory nor the environment state;
//! * every record's envelope (slot, active population, phase timing,
//!   latency count) is well-formed.

use smartexp3_core::{Environment, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine};
use smartexp3_env::{
    area_mobility, cooperative, dynamic_bandwidth, equal_share, trace_driven, GossipConfig,
    Scenario, TraceEnvironment,
};
use smartexp3_telemetry::{RingSink, SlotMetrics};
use tracegen::paper_trace_pair;

const WORLDS: [&str; 5] = [
    "equal_share",
    "dynamic_bandwidth",
    "area_mobility",
    "trace_driven",
    "cooperative",
];

const SLOTS: usize = 40;

fn build_config(config: FleetConfig, world: &str) -> Scenario {
    match world {
        "equal_share" => equal_share(180, PolicyKind::SmartExp3, config).unwrap(),
        "dynamic_bandwidth" => {
            dynamic_bandwidth(180, PolicyKind::SmartExp3, config, 10, 25).unwrap()
        }
        "area_mobility" => area_mobility(120, PolicyKind::SmartExp3, config, 12, 24).unwrap(),
        "trace_driven" => trace_driven(150, PolicyKind::SmartExp3, config, 80).unwrap(),
        "cooperative" => {
            cooperative(180, PolicyKind::SmartExp3, config, GossipConfig::push(0.4)).unwrap()
        }
        other => panic!("unknown world {other}"),
    }
}

fn config(threads: usize) -> FleetConfig {
    FleetConfig::with_root_seed(42)
        .with_threads(threads)
        .with_shard_size(16)
}

/// Runs `scenario` with telemetry streaming into a ring and returns the
/// full per-slot metric series.
fn metric_series(scenario: &mut Scenario, slots: usize) -> Vec<SlotMetrics> {
    assert!(
        scenario.enable_telemetry(),
        "{} must support streaming telemetry",
        scenario.name
    );
    let mut sink = RingSink::new(slots);
    scenario.run_streaming(slots, &mut sink);
    sink.records().map(|r| r.metrics.clone()).collect()
}

#[test]
fn metric_series_is_identical_across_threads_and_partitioning() {
    for world in WORLDS {
        let mut reference = build_config(config(1), world);
        let expected = metric_series(&mut reference, SLOTS);
        assert_eq!(expected.len(), SLOTS, "{world} dropped slots");
        assert!(
            expected.iter().any(|m| m.sessions > 0),
            "{world} never graded a session"
        );

        for threads in [2, 8] {
            let mut scenario = build_config(config(threads), world);
            assert_eq!(
                metric_series(&mut scenario, SLOTS),
                expected,
                "{world} telemetry diverged at {threads} threads"
            );
        }
    }
}

/// The catalog's trace world fits one phase group at test sizes; force many
/// small groups so the canonical merge order is actually exercised — with
/// 16-session groups over 100 sessions there are 7 partitions whose f64
/// partial sums must fold left-to-right regardless of which worker finished
/// first.
#[test]
fn many_partition_trace_merge_is_schedule_independent() {
    let series_at = |threads: usize| -> Vec<SlotMetrics> {
        let fleet_config = config(threads);
        let pairs: Vec<_> = (1..=4)
            .map(|index| paper_trace_pair(index, 60, 42 ^ index as u64))
            .collect();
        let mut environment = TraceEnvironment::new(pairs, 100, fleet_config.environment_seed())
            .with_partition_sessions(16);
        assert!(environment.set_telemetry(true));
        let mut fleet = FleetEngine::new(fleet_config);
        let mut factory =
            PolicyFactory::new(vec![(tracegen::WIFI, 1.0), (tracegen::CELLULAR, 1.0)]).unwrap();
        fleet
            .add_fleet(&mut factory, PolicyKind::SmartExp3, 100)
            .unwrap();
        let mut sink = RingSink::new(SLOTS);
        fleet.run_env_with_sink(&mut environment, SLOTS, &mut sink);
        sink.records().map(|r| r.metrics.clone()).collect()
    };
    let expected = series_at(1);
    assert_eq!(expected.len(), SLOTS);
    for threads in [2, 8] {
        assert_eq!(
            series_at(threads),
            expected,
            "trace merge order leaked at {threads} threads"
        );
    }
}

/// Parallelism knobs are part of the snapshot but never affect the
/// trajectory; normalise them so the fingerprint compares pure state.
fn scenario_fingerprint(scenario: &Scenario) -> String {
    let mut snapshot = scenario
        .fleet
        .snapshot()
        .expect("distributed fleets snapshot");
    snapshot.config.threads = None;
    snapshot.config.shard_size = 0;
    serde_json::to_string(&snapshot).expect("snapshots serialize")
}

#[test]
fn telemetry_is_pure_observation() {
    for world in WORLDS {
        let mut plain = build_config(config(2), world);
        plain.run(SLOTS);

        let mut observed = build_config(config(2), world);
        let _ = metric_series(&mut observed, SLOTS);

        assert_eq!(
            scenario_fingerprint(&observed),
            scenario_fingerprint(&plain),
            "{world}: enabling telemetry changed the fleet trajectory"
        );
        assert_eq!(
            observed.environment.state(),
            plain.environment.state(),
            "{world}: enabling telemetry changed the environment state"
        );
    }
}

#[test]
fn record_envelopes_are_well_formed() {
    let mut scenario = build_config(config(2), "equal_share");
    assert!(scenario.enable_telemetry());
    let mut sink = RingSink::new(SLOTS);
    scenario.run_streaming(SLOTS, &mut sink);
    for (index, record) in sink.records().enumerate() {
        assert_eq!(record.slot, index, "slots must be contiguous");
        assert_eq!(record.active as usize, scenario.sessions());
        assert_eq!(record.metrics.sessions, record.active);
        // Slot-synchronous records carry latency too: one count per decision.
        assert_eq!(record.latency.map(|l| l.count), Some(record.active));
        let timing = record.timing;
        for phase in [
            timing.begin_slot_s,
            timing.choose_s,
            timing.feedback_s,
            timing.observe_s,
        ] {
            assert!(phase.is_finite() && phase >= 0.0, "bad phase time {phase}");
        }
        let jain = record.metrics.jain();
        assert!((0.0..=1.0).contains(&jain), "jain out of range: {jain}");
        assert!(record.metrics.distance_mean() >= 0.0);
    }
}
