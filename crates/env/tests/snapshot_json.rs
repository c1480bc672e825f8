//! Snapshot JSON as a format and as untrusted input.
//!
//! * The exact bytes of `FleetSnapshot` JSON are pinned for three small
//!   worlds. Checkpoints written by one build must load in the next, and
//!   perf-only changes to the JSON layer must not move a single byte. Each
//!   case pins the text's length and its 64-bit FNV-1a hash, and checks that
//!   text → `FleetSnapshot` → text gives back the same text. Splicing the
//!   removed `partitioned_feedback` and `wake_latency` config keys back in
//!   reproduces the pins of the build that still wrote them, and version-9
//!   texts carrying any removed config key load onto the same trajectory.
//! * Corrupt snapshot text never panics the reader: every truncation and
//!   2 000 seeded single-byte mutations of a small snapshot return `Ok` or
//!   `Err`, and nesting far deeper than any snapshot is a typed error rather
//!   than a stack overflow.
//! * A wake queue that names a session twice or a session the snapshot does
//!   not hold, session ids other than `0..n` with `next_id == n`, and a
//!   weight table whose index does not list its arms are typed errors at
//!   restore, before the environment is touched.
//! * An ignored soak (`cargo test --release -p smartexp3-env --test
//!   snapshot_json -- --ignored`) restores thousands of digit-flipped and
//!   truncated snapshots and steps every accepted one: zero panics.

use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_engine::{FleetConfig, FleetEngine, FleetSnapshot, SnapshotError, WakeEntry};
use smartexp3_env::{
    area_mobility, cooperative, dense_duty_cycle, equal_share, DenseUrbanConfig, DutyCycleConfig,
    GossipConfig, Scenario,
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
        ("area_mobility", mobility, 138_602, 0x4c3a_be25_0b01_d05f),
        (
            "dense_duty_cycle",
            dense_duty,
            31_757,
            0x949c_1fa6_1698_26f6,
        ),
        ("cooperative", gossip, 96_578, 0x6adf_7087_4c78_9ca5),
    ];
    // The pins of the build that still wrote the two perf-only config keys
    // the format has since dropped: splicing them back in must reproduce
    // these, which proves those keys are the only bytes that changed.
    let with_removed_keys: [(usize, u64); 3] = [
        (138_650, 0xb085_3391_17c9_b079),
        (31_805, 0x3597_9317_4b27_7f74),
        (96_626, 0x77fe_9c85_b716_0c4b),
    ];
    for ((world, build, len, hash), old) in cases.into_iter().zip(with_removed_keys) {
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
        let spliced = splice_config_keys(
            &text,
            ",\"partitioned_feedback\":true,\"wake_latency\":true",
        );
        assert_eq!(
            (spliced.len(), fnv1a(spliced.as_bytes())),
            old,
            "{world}: len, FNV-1a with the removed keys spliced back"
        );
    }
}

/// Inserts `keys` (a leading-comma JSON member list) at the end of the
/// snapshot's `config` object.
fn splice_config_keys(text: &str, keys: &str) -> String {
    let config = text.find("\"config\":{").expect("snapshots carry a config");
    let end = config + text[config..].find('}').expect("the config object closes");
    format!("{}{keys}{}", &text[..end], &text[end..])
}

#[test]
fn texts_with_removed_config_keys_still_load() {
    // Version-9 texts written before the perf-only switches were removed
    // carry `partitioned_feedback`, `fleet_lanes` and `wake_latency` in
    // their config. The reader skips unknown keys, so any values restore
    // onto the same trajectory.
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
        let keys = format!(
            ",\"partitioned_feedback\":{value},\"fleet_lanes\":{value},\"wake_latency\":{value}"
        );
        let spliced = splice_config_keys(&text, &keys);
        assert_eq!(spliced.len(), text.len() + keys.len());
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

/// Points the first weight-table index entry of `text` at position K, one
/// past the table's last arm.
fn corrupt_first_index_entry(text: &str) -> String {
    let list = text.find("\"index\":[[").expect("a weight table") + "\"index\":[".len();
    let end = list + text[list..].find("]]").expect("the index closes") + 1;
    let entries: Vec<&str> = text[list + 1..end - 1].split("],[").collect();
    let (arm, _) = entries[0].split_once(',').expect("(arm, position) pairs");
    let first = format!("{arm},{}", entries.len());
    let corrupt = [first.as_str()]
        .into_iter()
        .chain(entries[1..].iter().copied())
        .collect::<Vec<_>>()
        .join("],[");
    format!("{}[{corrupt}]{}", &text[..list], &text[end..])
}

/// Asserts that `restore` refuses with `Malformed` naming `needle`.
fn assert_malformed<T>(restored: Result<T, SnapshotError>, needle: &str, what: &str) {
    match restored {
        Err(SnapshotError::Malformed(message)) => {
            assert!(message.contains(needle), "{what}: {message}");
        }
        Err(other) => panic!("{what}: expected Malformed, got {other:?}"),
        Ok(_) => panic!("{what}: expected Malformed, got Ok"),
    }
}

#[test]
fn corrupt_weight_table_index_fails_typed_at_restore() {
    // An index entry naming position K would reach `multiplicative_update`
    // as an out-of-bounds position the first time its arm is updated.
    let scenario = mobility();
    let text = snapshot_text(&scenario);
    let corrupt = corrupt_first_index_entry(&text);
    assert_eq!(corrupt.len(), text.len(), "a one-digit edit");
    assert_ne!(corrupt, text);
    assert_malformed(FleetEngine::from_json(&corrupt), "index", "from_json");
    let snapshot: FleetSnapshot = serde_json::from_str(&corrupt).expect("still valid JSON");
    let mut fresh = mobility_world();
    let before = fresh.environment.state();
    assert_malformed(
        FleetEngine::from_snapshot_env(snapshot, fresh.environment.as_mut()),
        "session 0: weight table index",
        "from_snapshot_env",
    );
    assert_eq!(fresh.environment.state(), before, "env touched");
}

#[test]
fn session_ids_must_be_dense_and_match_next_id() {
    // A short `next_id` would hand the next `add_session` an id — and RNG
    // stream — an existing session already owns; a duplicated or shuffled
    // id breaks the id == index invariant wake entries rely on.
    let scenario = mobility();
    let snapshot = scenario
        .fleet
        .snapshot_env(scenario.environment.as_ref())
        .unwrap();
    assert_eq!(snapshot.next_id, snapshot.sessions.len() as u64);
    let mut short_next_id = snapshot.clone();
    short_next_id.next_id -= 1;
    let mut duplicate_id = snapshot.clone();
    duplicate_id.sessions[1].id = 0;
    for (what, corrupt, needle) in [
        ("short next_id", short_next_id, "next session id"),
        ("duplicate id", duplicate_id, "session 1 carries id 0"),
    ] {
        let text = corrupt.to_json().unwrap();
        assert_malformed(FleetEngine::from_snapshot(corrupt.clone()), needle, what);
        assert_malformed(FleetEngine::from_json(&text), needle, what);
        let mut fresh = mobility_world();
        let before = fresh.environment.state();
        assert_malformed(
            FleetEngine::from_snapshot_env(corrupt, fresh.environment.as_mut()),
            needle,
            what,
        );
        assert_eq!(fresh.environment.state(), before, "{what}: env touched");
    }
}

/// What one corrupted text did in the soak.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `from_str::<FleetSnapshot>` refused the text.
    Unparsed,
    /// `from_snapshot_env` returned a typed error.
    Refused,
    /// Restored, and the next slots stepped without a panic.
    Stepped,
}

#[test]
#[ignore = "soak: run with `cargo test --release -p smartexp3-env --test snapshot_json -- --ignored`"]
fn corrupt_snapshots_never_panic_after_restore() {
    // equal_share with 200 Smart EXP3 sessions after 10 slots; each round
    // flips one digit (7 in 8 rounds) or truncates the text, restores into
    // a freshly built world and steps 5 more slots. The budget is zero
    // panics, whatever the mutation hits: policy state, RNG state, wake
    // bookkeeping or the embedded environment state.
    const ROUNDS: usize = 3_000;
    let world = || equal_share(200, PolicyKind::SmartExp3, config()).unwrap();
    let mut original = world();
    original.run(10);
    let text = snapshot_text(&original);
    let digits: Vec<usize> = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(at, _)| at)
        .collect();
    let mut state = 0x50a_u64;
    let mut outcomes = Vec::with_capacity(ROUNDS);
    let mut panics = Vec::new();
    for round in 0..ROUNDS {
        let pick = splitmix(&mut state);
        let mutated = if pick.is_multiple_of(8) {
            text[..(pick >> 3) as usize % text.len()].to_string()
        } else {
            let at = digits[(pick >> 3) as usize % digits.len()];
            let old = text.as_bytes()[at] - b'0';
            let new = (old + 1 + (pick >> 40) as u8 % 9) % 10;
            let mut bytes = text.clone().into_bytes();
            bytes[at] = b'0' + new;
            String::from_utf8(bytes).expect("ASCII stays UTF-8")
        };
        let run = std::panic::catch_unwind(|| {
            let Ok(snapshot) = serde_json::from_str::<FleetSnapshot>(&mutated) else {
                return Outcome::Unparsed;
            };
            let mut fresh = world();
            match FleetEngine::from_snapshot_env(snapshot, fresh.environment.as_mut()) {
                Ok(fleet) => {
                    fresh.fleet = fleet;
                    fresh.run(5);
                    Outcome::Stepped
                }
                Err(_) => Outcome::Refused,
            }
        });
        match run {
            Ok(outcome) => outcomes.push(outcome),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                panics.push(format!("round {round}: {message}"));
            }
        }
    }
    let count = |outcome| outcomes.iter().filter(|&&o| o == outcome).count();
    eprintln!(
        "{ROUNDS} mutations: {} unparsed, {} refused, {} stepped, {} panics",
        count(Outcome::Unparsed),
        count(Outcome::Refused),
        count(Outcome::Stepped),
        panics.len()
    );
    assert!(panics.is_empty(), "{} panics: {panics:#?}", panics.len());
    // Every outcome occurs, so the mutations reach the restore checks and
    // the stepping behind them.
    for outcome in [Outcome::Unparsed, Outcome::Refused, Outcome::Stepped] {
        assert!(count(outcome) > 0, "no {outcome:?} round");
    }
}
