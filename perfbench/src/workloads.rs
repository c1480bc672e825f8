//! The benchmark's workloads and why each one exists.
//!
//! Load model: every workload is a **closed loop driven from one process**.
//! The benchmark steps slot *t + 1* only after slot *t* has completed, so a
//! slower engine simply takes longer; there is no arrival schedule and no
//! backlog. Each fleet runs on **2 worker threads** with a default
//! `FleetConfig` apart from `threads` and the root seed, so perf knobs stay at
//! whatever the engine defaults to. Telemetry is enabled on every world and
//! streamed into a `RingSink`, because the simulated metrics are read from it.
//!
//! What the workloads vary, side by side:
//!
//! | workload | world | sessions | K | cadences | sampler | stepping call | checkpoint |
//! |---|---|---|---|---|---|---|---|
//! | `equal_share_sync` | `equal_share`, Smart EXP3 | 20 000 (200 areas) | 3 | all 1 | linear | `run_env_with_sink` | never |
//! | `dense_duty_events` | `dense_duty_cycle`, Exp3 | 2 048 (32 blocks) | 512 | 2/4/8 | alias | `run_until_with_sink` | never |
//! | `mobility_checkpoint` | `area_mobility`, Smart EXP3 | 10 000 (500 maps) | 2–3 | all 1 | linear | `run_env_with_sink` | every 50 slots |
//!
//! Fleet sizes keep a run's figures steady on a shared 2-core host while it
//! still collects thousands of slot samples. Every slot of
//! `equal_share_sync` sweeps a working set of about 46 MB, far larger than a
//! core's 2 MB L2. At 50 000 sessions five runs on a shared 2-core host
//! spread by 15% (interquartile range over median), against 8% at 20 000.
//! The mobility fleet still writes about 26 MB per checkpoint, and
//! checkpoint cycles take about 80% of its wall time.

use smartexp3_core::{PolicyKind, SamplerStrategy};
use smartexp3_engine::FleetConfig;
use smartexp3_env::{
    area_mobility, dense_duty_cycle, equal_share, DenseUrbanConfig, DutyCycleConfig, Scenario,
};

/// Worker threads of every workload's fleet.
pub const THREADS: usize = 2;

/// Which catalog world a workload builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum World {
    /// `equal_share`: replicated 4/7/22 Mbps congestion areas, Smart EXP3.
    EqualShare,
    /// `dense_duty_cycle`: K-network city blocks of 64 devices under the
    /// 2/4/8 wake-cadence mix, Exp3 with the alias sampler and a macro-cell
    /// burst every `burst_period` slots.
    DenseDuty {
        /// Networks per block (the arm count K).
        networks: usize,
        /// Slots between macro-cell collapses.
        burst_period: usize,
    },
    /// `area_mobility`: replicated Figure-1 maps whose 8 walkers move twice
    /// per episode (at a quarter and at three fifths of it), Smart EXP3.
    Mobility,
}

/// Which engine entry point steps the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepping {
    /// Slot-synchronous: one `run_env_with_sink(env, 1, sink)` per slot.
    Sync,
    /// Event-driven: one `run_until_with_sink(env, slot + 1, sink)` per wake
    /// timestamp.
    Events,
}

/// One named workload: a world, its size and how it is stepped.
///
/// A run repeats **episodes**: build the scenario from the seed, step it
/// `episode_slots` slots (checkpointing every `checkpoint_every` slots when
/// set), read the simulated metrics from the final `window_slots` slots.
/// Episodes are fixed work, so per-episode figures compare across commits;
/// the run repeats them until its time is up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// One-line reason the workload exists.
    pub why: &'static str,
    /// The world.
    pub world: World,
    /// Sessions in the fleet.
    pub sessions: usize,
    /// How the fleet is stepped.
    pub stepping: Stepping,
    /// Slots stepped per episode.
    pub episode_slots: usize,
    /// Final slots of an episode the window metrics cover.
    pub window_slots: usize,
    /// Slots between checkpoint cycles, if the workload checkpoints.
    pub checkpoint_every: Option<usize>,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 3] = [
    // K = 3 makes sampling trivial, so the per-session sweeps in `engine` and
    // the per-area grading in `env` carry the cost: this is where the env
    // path's overhead over the closure path lives, and where a single
    // stepping entry point must hold the slot-synchronous throughput.
    Workload {
        name: "equal_share_sync",
        why: "K=3 Smart EXP3 over 200 areas: per-session engine sweeps and per-area env grading dominate",
        world: World::EqualShare,
        sessions: 20_000,
        stepping: Stepping::Sync,
        episode_slots: 200,
        window_slots: 50,
        checkpoint_every: None,
    },
    // Per-decision `core` sampler work is large here (alias rebuilds after
    // each burst, overlay draws), and so are the wake queue, the
    // per-decision latency clock and K = 512 grading in `env`; the engine's
    // per-session sweep is small because only the due cohort steps.
    Workload {
        name: "dense_duty_events",
        why: "K=512 alias-sampled Exp3 on 2/4/8 wake cadences with bursts: sampler, wake queue and large-K grading",
        world: World::DenseDuty {
            networks: 512,
            burst_period: 32,
        },
        sessions: 2_048,
        stepping: Stepping::Events,
        episode_slots: 512,
        window_slots: 128,
        checkpoint_every: None,
    },
    // The engine writes out and reads back state here instead of stepping:
    // snapshot → JSON → parse → restore into a freshly built world, then
    // stepping continues on the restored fleet as a crash-recovery loop
    // would. It is also the only
    // workload with visibility churn (`on_networks_changed`).
    Workload {
        name: "mobility_checkpoint",
        why: "Smart EXP3 with walker moves and a snapshot/encode/parse/restore cycle every 50 slots",
        world: World::Mobility,
        sessions: 10_000,
        stepping: Stepping::Sync,
        episode_slots: 250,
        window_slots: 50,
        checkpoint_every: Some(50),
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// Builds the workload's scenario for `seed`, with telemetry enabled.
    ///
    /// # Panics
    ///
    /// Panics if the world rejects the workload's parameters or cannot
    /// stream telemetry — both are fixed in this file, so either is a bug.
    #[must_use]
    pub fn build(&self, seed: u64) -> Scenario {
        let config = FleetConfig::with_root_seed(seed).with_threads(THREADS);
        let built = match self.world {
            World::EqualShare => equal_share(self.sessions, PolicyKind::SmartExp3, config),
            World::DenseDuty {
                networks,
                burst_period,
            } => dense_duty_cycle(
                self.sessions,
                PolicyKind::Exp3,
                config,
                DenseUrbanConfig {
                    networks_per_area: networks,
                    devices_per_area: 64,
                    sampler: SamplerStrategy::Alias,
                },
                DutyCycleConfig {
                    cadences: vec![2, 4, 8],
                    burst_period,
                    horizon_slots: self.episode_slots,
                    ..DutyCycleConfig::default()
                },
            ),
            World::Mobility => area_mobility(
                self.sessions,
                PolicyKind::SmartExp3,
                config,
                self.episode_slots / 4,
                self.episode_slots * 3 / 5,
            ),
        };
        let mut scenario = built.expect("workload parameters are valid");
        assert!(
            scenario.enable_telemetry(),
            "every benchmark world streams telemetry"
        );
        scenario
    }

    /// Whether slot `slot` (0-based, just stepped) ends with a checkpoint
    /// cycle. The final slot never does: the episode ends there.
    #[must_use]
    pub fn checkpoints_after(&self, slot: usize) -> bool {
        match self.checkpoint_every {
            Some(every) => (slot + 1).is_multiple_of(every) && slot + 1 < self.episode_slots,
            None => false,
        }
    }
}
