//! Snapshot JSON as a format and as untrusted input.
//!
//! * The exact bytes of `FleetSnapshot` JSON are pinned for three small
//!   worlds. Checkpoints written by one build must load in the next, and
//!   perf-only changes to the JSON layer must not move a single byte. Each
//!   case pins the text's length and its 64-bit FNV-1a hash, and checks that
//!   text → `FleetSnapshot` → text gives back the same text.
//!   Version-9 texts that still carry the removed `fleet_lanes` config key
//!   load onto the same trajectory.
//! * Corrupt snapshot text never panics the reader: every truncation and
//!   2 000 seeded single-byte mutations of a small snapshot return `Ok` or
//!   `Err`, and nesting far deeper than any snapshot is a typed error rather
//!   than a stack overflow.
//! * A wake queue that names a session twice or a session the snapshot does
//!   not hold is a typed error at restore, before the environment is touched.

use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_engine::{FleetConfig, FleetEngine, FleetSnapshot, SnapshotError, WakeEntry};
use smartexp3_env::{
    area_mobility, cooperative, dense_duty_cycle, DenseUrbanConfig, DutyCycleConfig, GossipConfig,
    Scenario,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn config() -> FleetConfig {
    FleetConfig::with_root_seed(42)
        .with_threads(2)
        .with_shard_size(16)
}

fn mobility_world() -> Scenario {
    area_mobility(60, PolicyKind::SmartExp3, config(), 6, 12).unwrap()
}

/// `area_mobility`, stepped slot-synchronously past both walker moves.
fn mobility() -> Scenario {
    let mut scenario = mobility_world();
    scenario.run(20);
    scenario
}

fn dense_duty_world() -> Scenario {
    dense_duty_cycle(
        16,
        PolicyKind::Exp3,
        config(),
        DenseUrbanConfig {
            networks_per_area: 12,
            devices_per_area: 8,
            sampler: SamplerStrategy::Alias,
        },
        DutyCycleConfig {
            cadences: vec![2, 4, 8],
            burst_period: 10,
            horizon_slots: 60,
            ..DutyCycleConfig::default()
        },
    )
    .unwrap()
}

/// `dense_duty_cycle` on the alias sampler, stepped event-driven so the
/// snapshot carries a pending wake queue.
fn dense_duty() -> Scenario {
    let mut scenario = dense_duty_world();
    scenario.fleet.run_until(scenario.environment.as_mut(), 23);
    scenario
}

fn gossip() -> Scenario {
    let mut scenario =
        cooperative(40, PolicyKind::SmartExp3, config(), GossipConfig::push(0.4)).unwrap();
    scenario.run(15);
    scenario
}

fn snapshot_text(scenario: &Scenario) -> String {
    scenario
        .fleet
        .snapshot_env(scenario.environment.as_ref())
        .expect("catalog worlds checkpoint")
        .to_json()
        .expect("snapshots serialize")
}

#[test]
fn snapshot_bytes_are_pinned_and_round_trip() {
    type Case = (&'static str, fn() -> Scenario, usize, u64);
    let cases: [Case; 3] = [
        ("area_mobility", mobility, 138_650, 0xb085_3391_17c9_b079),
        (
            "dense_duty_cycle",
            dense_duty,
            31_805,
            0x3597_9317_4b27_7f74,
        ),
        ("cooperative", gossip, 96_626, 0x77fe_9c85_b716_0c4b),
    ];
    for (world, build, len, hash) in cases {
        let scenario = build();
        let text = snapshot_text(&scenario);
        let snapshot: FleetSnapshot = serde_json::from_str(&text).expect("snapshot parses");
        if world == "dense_duty_cycle" {
            assert!(
                snapshot.wake_queue.as_ref().is_some_and(|q| !q.is_empty()),
                "the event-stepped case must carry pending wakes"
            );
        }
        assert!(
            snapshot.environment.is_some(),
            "{world}: env state embedded"
        );
        assert_eq!(
            snapshot.to_json().unwrap(),
            text,
            "{world}: text -> FleetSnapshot -> text changed the bytes"
        );
        assert_eq!(
            (text.len(), fnv1a(text.as_bytes())),
            (len, hash),
            "{world}: len, FNV-1a of to_json"
        );
    }
}

#[test]
fn texts_with_the_removed_fleet_lanes_key_still_load() {
    // Version-9 texts written before the storage switch was removed carry
    // `,"fleet_lanes":<bool>` after `partitioned_feedback`. The reader skips
    // unknown keys, so either value restores onto the same trajectory.
    let mut original = mobility();
    let text = snapshot_text(&original);
    let state = original
        .environment
        .state()
        .expect("netsim worlds checkpoint");
    original.run(10);
    let expected = original.fleet.to_json().unwrap();
    let expected_env = original.environment.state();
    for value in ["true", "false"] {
        let key = "\"partitioned_feedback\":true";
        let spliced = text.replacen(key, &format!("{key},\"fleet_lanes\":{value}"), 1);
        assert_eq!(spliced.len(), text.len() + 15 + value.len());
        let mut resumed = mobility_world();
        resumed.fleet = FleetEngine::from_json(&spliced).unwrap();
        resumed.environment.restore(&state).unwrap();
        resumed.run(10);
        assert_eq!(resumed.fleet.to_json().unwrap(), expected, "{value}");
        assert_eq!(resumed.environment.state(), expected_env, "{value}");
    }
}

#[test]
fn corrupt_wake_queues_fail_typed_at_restore() {
    let scenario = dense_duty();
    let snapshot = scenario
        .fleet
        .snapshot_env(scenario.environment.as_ref())
        .unwrap();
    let queue = snapshot.wake_queue.clone().expect("event-stepped");
    let mut duplicated = snapshot.clone();
    duplicated.wake_queue = Some([&queue[..1], &queue[..]].concat());
    let mut out_of_range = snapshot.clone();
    out_of_range.wake_queue = Some(
        queue
            .iter()
            .copied()
            .chain([WakeEntry {
                wake: queue[queue.len() - 1].wake,
                session: snapshot.sessions.len() as u64,
            }])
            .collect(),
    );
    for (what, corrupt) in [("duplicate", duplicated), ("out of range", out_of_range)] {
        let text = corrupt.to_json().unwrap();
        for restored in [
            FleetEngine::from_snapshot(corrupt.clone()),
            FleetEngine::from_json(&text),
        ] {
            match restored {
                Err(SnapshotError::Malformed(message)) => {
                    assert!(message.contains("wake queue"), "{what}: {message}");
                }
                other => panic!("{what}: expected Malformed, got {:?}", other.map(|_| ())),
            }
        }
        // The check runs before the environment is restored.
        let mut fresh = dense_duty_world();
        let before = fresh.environment.state();
        match FleetEngine::from_snapshot_env(corrupt, fresh.environment.as_mut()) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("{what}: expected Malformed, got {:?}", other.map(|_| ())),
        }
        assert_eq!(fresh.environment.state(), before, "{what}: env touched");
    }
}

/// A small `area_mobility` checkpoint: escaped env state, Smart EXP3 states
/// with data-carrying enums, `Option`s, nested pairs and floats.
fn small_snapshot_text() -> String {
    let mut scenario = area_mobility(4, PolicyKind::SmartExp3, config(), 3, 6).unwrap();
    scenario.run(8);
    snapshot_text(&scenario)
}

/// splitmix64: a seeded, dependency-free stream for the mutator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn parse_never_panics(input: &str, what: &str) -> bool {
    std::panic::catch_unwind(|| serde_json::from_str::<FleetSnapshot>(input).is_ok())
        .unwrap_or_else(|_| panic!("from_str::<FleetSnapshot> panicked on {what}"))
}

#[test]
fn corrupt_snapshot_text_never_panics_the_reader() {
    let text = small_snapshot_text();
    assert!(text.is_ascii(), "the mutator swaps single bytes");
    assert!(parse_never_panics(&text, "the intact text"));
    for end in 0..text.len() {
        assert!(
            !parse_never_panics(&text[..end], &format!("truncation at {end}")),
            "a truncated snapshot parsed (at byte {end})"
        );
    }
    // Bytes that steer the tokenizer into every branch, plus any printable
    // ASCII byte.
    const PALETTE: &[u8] = b"0123456789-+.eE\"\\,:[]{}ntfNiu \n";
    let mut state = 0x5eed_u64;
    let mut accepted = 0;
    for round in 0..2_000 {
        let mut bytes = text.clone().into_bytes();
        let at = (splitmix(&mut state) % bytes.len() as u64) as usize;
        let pick = splitmix(&mut state);
        bytes[at] = if pick.is_multiple_of(4) {
            b' ' + (pick >> 8) as u8 % 95
        } else {
            PALETTE[(pick >> 8) as usize % PALETTE.len()]
        };
        let mutated = String::from_utf8(bytes).expect("ASCII stays UTF-8");
        if parse_never_panics(&mutated, &format!("mutation {round} at byte {at}")) {
            accepted += 1;
        }
    }
    // Both outcomes occur, so the mutations reach past the first token.
    assert!(
        0 < accepted && accepted < 2_000,
        "{accepted} of 2000 parsed"
    );
}

#[test]
fn deep_nesting_is_a_typed_error() {
    let deep = "[".repeat(100_000);
    let balanced = format!("{deep}{}", "]".repeat(100_000));
    for text in [
        deep.clone(),
        format!("{{\"version\":9,\"unknown\":{deep}}}"),
        format!("{{\"version\":9,\"unknown\":{balanced}}}"),
    ] {
        match FleetEngine::from_json(&text) {
            Err(SnapshotError::Malformed(_)) => {}
            other => panic!("expected Malformed, got {:?}", other.map(|_| ())),
        }
    }

    // The same limit guards environment state, which is JSON of its own.
    let mut scenario = mobility();
    let state = scenario
        .environment
        .state()
        .expect("netsim worlds checkpoint");
    for hostile in [deep, format!("{{\"unknown\":{balanced},{}", &state[1..])] {
        assert!(scenario.environment.restore(&hostile).is_err());
        let mut snapshot = scenario
            .fleet
            .snapshot_env(scenario.environment.as_ref())
            .unwrap();
        snapshot.environment = Some(hostile);
        match FleetEngine::from_snapshot_env(snapshot, scenario.environment.as_mut()) {
            Err(SnapshotError::Environment(_)) => {}
            other => panic!("expected Environment, got {:?}", other.map(|_| ())),
        }
    }
    scenario
        .environment
        .restore(&state)
        .expect("well-formed state still restores");
}
