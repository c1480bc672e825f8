//! Fleet-engine demo: 100 000 concurrent Smart EXP3 sessions.
//!
//! Simulates 1 000 independent service areas, each with the paper's
//! setting-1 networks (4 / 7 / 22 Mbps) and 100 devices. Every slot, all
//! sessions choose in one parallel batch, gains are computed with netsim's
//! equal-share congestion model per area, and feedback is delivered in a
//! second parallel batch. Finishes with fleet metrics, a checkpoint
//! round-trip, and the measured decision throughput.
//!
//! ```text
//! cargo run --release --example fleet [sessions] [slots] [threads]
//! ```
//!
//! `threads` overrides the engine's worker-thread count (0 or absent =
//! machine parallelism); results are bit-identical at any value.

use smartexp3::core::{NetworkId, Observation, PolicyFactory, PolicyKind};
use smartexp3::engine::{FleetConfig, FleetEngine};
use smartexp3::netsim::setting1_networks;
use std::time::Instant;

fn parse_arg(value: Option<String>, name: &str, default: usize) -> usize {
    match value {
        None => default,
        Some(raw) => raw.parse().unwrap_or_else(|_| {
            eprintln!("error: {name} must be a non-negative integer, got `{raw}`");
            eprintln!("usage: fleet [sessions] [slots] [threads]");
            std::process::exit(2);
        }),
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let sessions = parse_arg(args.next(), "sessions", 100_000);
    let slots = parse_arg(args.next(), "slots", 60);
    let threads = parse_arg(args.next(), "threads", 0);
    let devices_per_area = 100usize;
    let areas = sessions.div_ceil(devices_per_area);

    let networks = setting1_networks();
    let rates: Vec<(NetworkId, f64)> = networks.iter().map(|n| (n.id, n.bandwidth_mbps)).collect();

    let mut factory = PolicyFactory::new(rates.clone()).expect("valid networks");
    let mut config = FleetConfig::with_root_seed(2024);
    if threads > 0 {
        config = config.with_threads(threads);
    }
    let mut fleet = FleetEngine::new(config);
    // A mixed fleet: most devices run Smart EXP3, with baseline cohorts to
    // compare against in the final metrics.
    fleet
        .add_fleet(&mut factory, PolicyKind::SmartExp3, sessions * 7 / 10)
        .expect("valid fleet");
    fleet
        .add_fleet(&mut factory, PolicyKind::Exp3, sessions * 2 / 10)
        .expect("valid fleet");
    let rest = sessions - fleet.len();
    fleet
        .add_fleet(&mut factory, PolicyKind::Greedy, rest)
        .expect("valid fleet");

    println!(
        "fleet: {} sessions in {areas} areas × {devices_per_area} devices, {slots} slots",
        fleet.len()
    );

    let start = Instant::now();
    for _ in 0..slots {
        let slot = fleet.slot();
        let choices = fleet.choose_all().to_vec();

        // netsim's equal-share congestion model, applied per service area:
        // every device on network n in area a receives bandwidth(n) / count.
        let mut counts = vec![[0u32; 8]; areas];
        for (index, &chosen) in choices.iter().enumerate() {
            counts[index / devices_per_area][chosen.index()] += 1;
        }
        let observations: Vec<Observation> = choices
            .iter()
            .enumerate()
            .map(|(index, &chosen)| {
                let sharing = counts[index / devices_per_area][chosen.index()].max(1);
                let capacity = rates
                    .iter()
                    .find(|(n, _)| *n == chosen)
                    .map(|(_, mbps)| *mbps)
                    .unwrap_or(0.0);
                let share = capacity / f64::from(sharing);
                Observation::bandit(slot, chosen, share, (share / 22.0).min(1.0))
            })
            .collect();
        fleet.observe_all(&observations);
    }
    let elapsed = start.elapsed();

    let metrics = fleet.metrics();
    print!("{metrics}");
    println!(
        "stepped {} decisions in {:.2}s — {:.2}M decisions/sec",
        metrics.decisions,
        elapsed.as_secs_f64(),
        metrics.decisions as f64 / elapsed.as_secs_f64() / 1e6
    );

    let checkpoint_start = Instant::now();
    let checkpoint = fleet.to_json().expect("distributed fleet snapshots");
    let restored = FleetEngine::from_json(&checkpoint).expect("restores");
    println!(
        "checkpoint: {:.1} MB, round-tripped in {:.2}s, restored fleet at slot {} with {} sessions",
        checkpoint.len() as f64 / 1e6,
        checkpoint_start.elapsed().as_secs_f64(),
        restored.slot(),
        restored.len()
    );
    assert_eq!(restored.metrics(), metrics);
}
