//! Fleet-engine throughput: decisions per second as a function of session
//! count and worker thread count.
//!
//! Each benchmark steps a pre-built Smart EXP3 fleet through fused
//! choose+observe slots with independent per-session feedback (the engine's
//! fastest path) and reports element throughput, where one element is one
//! decision. The `threads/…` series on a fixed 100k-session fleet is the
//! scaling curve: decisions/sec should grow near-linearly with the worker
//! count until the machine's cores are saturated.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use smartexp3_core::{NetworkId, Observation, PolicyFactory, PolicyKind};
use smartexp3_engine::{FleetConfig, FleetEngine, StepContext};
use std::time::Duration;

fn rates() -> Vec<(NetworkId, f64)> {
    vec![
        (NetworkId(0), 4.0),
        (NetworkId(1), 7.0),
        (NetworkId(2), 22.0),
    ]
}

fn build_fleet(sessions: usize, threads: usize) -> FleetEngine {
    let mut factory = PolicyFactory::new(rates()).expect("valid rates");
    let mut fleet = FleetEngine::new(FleetConfig::with_root_seed(1).with_threads(threads));
    fleet
        .add_fleet(&mut factory, PolicyKind::SmartExp3, sessions)
        .expect("valid fleet");
    fleet
}

fn feedback(ctx: &mut StepContext<'_>) -> Observation {
    let gain = if ctx.chosen == NetworkId(2) {
        0.85
    } else {
        0.25
    };
    Observation::bandit(ctx.slot, ctx.chosen, gain * 22.0, gain)
}

/// Decisions/sec over session count at full parallelism.
fn bench_session_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_sessions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    for sessions in [1_000usize, 10_000, 100_000] {
        group.throughput(Throughput::Elements(sessions as u64));
        group.bench_with_input(
            BenchmarkId::new("step", sessions),
            &sessions,
            |b, &sessions| {
                let mut fleet = build_fleet(sessions, threads);
                b.iter(|| fleet.step_with(feedback));
            },
        );
    }
    group.finish();
}

/// The acceptance curve: decisions/sec on a 100k-session fleet as the worker
/// count doubles. Near-linear growth up to the physical core count is the
/// expected shape.
fn bench_thread_scaling(c: &mut Criterion) {
    let sessions = 100_000usize;
    let available = std::thread::available_parallelism().map_or(8, usize::from);
    let mut group = c.benchmark_group("engine_threads_100k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(sessions as u64));
    // Sweep a fixed ladder (plus the machine's parallelism when it is not a
    // power of two already) so the scaling curve is always produced; past the
    // physical core count the curve flattens, which is the expected shape.
    let mut ladder = vec![1usize, 2, 4, 8];
    if !ladder.contains(&available) {
        ladder.push(available);
        ladder.sort_unstable();
    }
    for threads in ladder {
        group.bench_with_input(
            BenchmarkId::new("step", threads),
            &threads,
            |b, &threads| {
                let mut fleet = build_fleet(sessions, threads);
                b.iter(|| fleet.step_with(feedback));
            },
        );
    }
    group.finish();
}

/// Cost of the coupled two-phase path (choose_all + equal-share congestion +
/// observe_all) relative to the fused path, on 100k sessions.
fn bench_two_phase(c: &mut Criterion) {
    let sessions = 100_000usize;
    let threads = std::thread::available_parallelism().map_or(4, usize::from);
    let bandwidth = rates();
    let mut group = c.benchmark_group("engine_two_phase_100k");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2));
    group.throughput(Throughput::Elements(sessions as u64));
    group.bench_function("congestion_step", |b| {
        let mut fleet = build_fleet(sessions, threads);
        b.iter(|| {
            let slot = fleet.slot();
            let choices = fleet.choose_all().to_vec();
            let mut counts = [0u64; 3];
            for &chosen in &choices {
                counts[chosen.index()] += 1;
            }
            let observations: Vec<Observation> = choices
                .iter()
                .map(|&chosen| {
                    let capacity = bandwidth[chosen.index()].1;
                    let share = capacity / counts[chosen.index()].max(1) as f64;
                    Observation::bandit(slot, chosen, share, (share / 22.0).min(1.0))
                })
                .collect();
            fleet.observe_all(&observations);
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_session_scaling,
    bench_thread_scaling,
    bench_two_phase
);
criterion_main!(benches);
