//! One episode: build a workload's scenario, step it, checkpoint it if the
//! workload does, and collect timings, checks and simulated metrics.

use crate::trace::{Span, Trace, TracedEnv, TracedSink};
use crate::workloads::{Stepping, Workload};
use smartexp3_core::{Environment, SlotMetrics};
use smartexp3_engine::{FleetEngine, FleetSnapshot};
use smartexp3_env::Scenario;
use smartexp3_telemetry::{RingSink, SlotTiming, TelemetrySink};
use std::collections::BTreeMap;
use std::time::Instant;

/// The paper's quality statistics for one episode, read from the telemetry
/// stream. They are computed in **simulated** time (slots), so they repeat
/// exactly for a seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// Mean per-area distance to equilibrium (percent) over the final window.
    pub distance_pct: f64,
    /// Switches per graded session over the whole episode.
    pub switch_rate: f64,
    /// Jain's index of every observed goodput in the final window.
    pub jain: f64,
    /// Mean observed goodput (Mbps) over the final window.
    pub goodput_mbps: f64,
}

impl SimMetrics {
    fn bits(&self) -> [u64; 4] {
        [
            self.distance_pct.to_bits(),
            self.switch_rate.to_bits(),
            self.jain.to_bits(),
            self.goodput_mbps.to_bits(),
        ]
    }
}

/// Everything one episode measured.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Wall time to build the scenario.
    pub setup_s: f64,
    /// The process's peak resident set size (`VmHWM`, MB) when the episode
    /// ended.
    pub peak_rss_mb: f64,
    /// Wall time of each stepped slot or wake timestamp.
    pub slot_s: Vec<f64>,
    /// Decisions taken in each stepped slot or wake timestamp.
    pub slot_decisions: Vec<u64>,
    /// Decisions taken in the stepped slots.
    pub decisions: u64,
    /// Wall time of each checkpoint (`snapshot_env` plus JSON encoding).
    pub checkpoint_s: Vec<f64>,
    /// Wall time of each restore (JSON parsing plus `from_snapshot_env`).
    pub restore_s: Vec<f64>,
    /// Bytes written by each checkpoint.
    pub snapshot_bytes: Vec<usize>,
    /// Operations attempted: stepped slots plus checkpoint cycles.
    pub operations: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Hash of the trajectory: `last_choices` folded after every slot, then
    /// the final fleet metrics and the simulated metrics.
    pub fingerprint: u64,
    /// The part of the fingerprint that stays fixed across commits: the
    /// folded `last_choices` and the simulated metrics' bits, without the
    /// `Debug` text of `metrics()` (which changes when a counter is added).
    /// Compared against [`crate::pins`].
    pub trajectory: u64,
    /// Simulated metrics.
    pub sim: SimMetrics,
    /// Per-layer figures, for traced episodes only.
    pub layers: Option<BTreeMap<&'static str, f64>>,
    /// Spans of a traced episode, for writing out when the run ends.
    pub spans: Vec<Span>,
}

impl Episode {
    /// Summed wall time of the stepped slots.
    #[must_use]
    pub fn step_s(&self) -> f64 {
        self.slot_s.iter().sum()
    }

    /// Summed wall time of every timed operation: stepped slots and
    /// checkpoint cycles.
    #[must_use]
    pub fn timed_s(&self) -> f64 {
        self.step_s() + self.checkpoint_s.iter().sum::<f64>() + self.restore_s.iter().sum::<f64>()
    }

    /// Decisions per second of stepping wall time in each window of
    /// [`WINDOW_SLOTS`] consecutive stepped slots.
    pub fn window_rates(&self) -> impl Iterator<Item = f64> + '_ {
        self.slot_s
            .chunks(WINDOW_SLOTS)
            .zip(self.slot_decisions.chunks(WINDOW_SLOTS))
            .map(|(time, decisions)| {
                decisions.iter().sum::<u64>() as f64 / time.iter().sum::<f64>()
            })
    }

    /// Mean stepping wall time per slot in each window of [`WINDOW_SLOTS`]
    /// consecutive stepped slots, in seconds.
    pub fn window_slot_s(&self) -> impl Iterator<Item = f64> + '_ {
        self.slot_s
            .chunks(WINDOW_SLOTS)
            .map(|time| time.iter().sum::<f64>() / time.len() as f64)
    }

    /// Marks every operation of the episode failed (a whole-trajectory
    /// check did not hold).
    pub fn fail_all(&mut self) {
        self.failed = self.operations;
    }
}

/// Stepped slots per throughput window: short enough that a burst of host
/// contention spoils few windows, long enough to hold several cohorts.
pub const WINDOW_SLOTS: usize = 10;

/// FNV-1a style fold of one word into a running hash.
fn fold(hash: u64, word: u64) -> u64 {
    (hash ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

fn fold_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = fold(hash, u64::from(b));
    }
    hash
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn choices_hash(fleet: &FleetEngine) -> u64 {
    fleet.last_choices().iter().fold(FNV_OFFSET, |h, c| {
        fold(h, c.map_or(0, |n| u64::from(n.0) + 1))
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB.
///
/// # Panics
///
/// Panics when `/proc/self/status` has no readable `VmHWM` line; the
/// benchmark runs on Linux only.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("Linux /proc is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported in kB");
    kb / 1024.0
}

/// Runs `f` inside a span when tracing, plainly otherwise.
fn within<R>(trace: Option<&Trace>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match trace {
        Some(trace) => trace.span(name, f),
        None => f(),
    }
}

/// Steps one slot (sync) or one wake timestamp (events) through `env`.
fn step(
    stepping: Stepping,
    fleet: &mut FleetEngine,
    env: &mut dyn Environment,
    sink: &mut dyn TelemetrySink,
) {
    match stepping {
        Stepping::Sync => fleet.run_env_with_sink(env, 1, sink),
        Stepping::Events => {
            let until = fleet.slot() + 1;
            fleet.run_until_with_sink(env, until, sink);
        }
    }
}

/// The outcome of one checkpoint cycle.
struct Cycle {
    checkpoint_s: f64,
    restore_s: f64,
    bytes: usize,
    restored: Result<FleetEngine, String>,
}

/// snapshot → JSON → parse → restore, the way a crash-recovery loop would
/// persist and reload the fleet: the restore goes into `fresh`, a newly
/// built world with the same static configuration (its build is not timed),
/// so the live environment's state cannot leak into the restored run.
fn checkpoint_cycle(scenario: &mut Scenario, mut fresh: Scenario, trace: Option<&Trace>) -> Cycle {
    let fleet = &scenario.fleet;
    let start = Instant::now();
    let encoded = within(trace, "checkpoint", || {
        let snapshot = match trace {
            Some(trace) => {
                let env = TracedEnv::new(scenario.environment.as_mut(), trace);
                trace.span("engine.snapshot", || fleet.snapshot_env(&env))
            }
            None => fleet.snapshot_env(scenario.environment.as_ref()),
        };
        snapshot.map_err(|e| e.to_string()).and_then(|snapshot| {
            within(trace, "serde_json.encode", || {
                serde_json::to_string(&snapshot)
            })
            .map_err(|e| e.to_string())
        })
    });
    let checkpoint_s = start.elapsed().as_secs_f64();
    let json = match encoded {
        Ok(json) => json,
        Err(error) => {
            return Cycle {
                checkpoint_s,
                restore_s: 0.0,
                bytes: 0,
                restored: Err(error),
            }
        }
    };
    let start = Instant::now();
    let restored = within(trace, "restore", || {
        let parsed: Result<FleetSnapshot, String> =
            within(trace, "serde_json.parse", || serde_json::from_str(&json))
                .map_err(|e| e.to_string());
        parsed.and_then(|snapshot| {
            match trace {
                Some(trace) => {
                    let mut env = TracedEnv::new(fresh.environment.as_mut(), trace);
                    trace.span("engine.restore", || {
                        FleetEngine::from_snapshot_env(snapshot, &mut env)
                    })
                }
                None => FleetEngine::from_snapshot_env(snapshot, fresh.environment.as_mut()),
            }
            .map_err(|e| e.to_string())
        })
    });
    let restore_s = start.elapsed().as_secs_f64();
    if restored.is_ok() {
        scenario.environment = fresh.environment;
    }
    Cycle {
        checkpoint_s,
        restore_s,
        bytes: json.len(),
        restored,
    }
}

/// Merges the telemetry metrics of `records` in stream order.
fn merged<'a>(
    records: impl Iterator<Item = &'a smartexp3_telemetry::TelemetryRecord>,
) -> SlotMetrics {
    let mut total = SlotMetrics::new();
    for record in records {
        total.merge(&record.metrics);
    }
    total
}

/// Runs one episode of `workload` for `seed`. With `checkpoints` off a
/// checkpointing workload runs uninterrupted (the twin its checkpointed
/// episodes are compared against); with `trace` set the layers are wrapped
/// and the per-layer figures are returned in [`Episode::layers`].
#[must_use]
pub fn run_episode(
    workload: &Workload,
    seed: u64,
    checkpoints: bool,
    trace: Option<&Trace>,
) -> Episode {
    let start = Instant::now();
    let mut scenario = workload.build(seed);
    let setup_s = start.elapsed().as_secs_f64();

    let mut ring = RingSink::new(workload.episode_slots + 1);
    let mut slot_s = Vec::with_capacity(workload.episode_slots);
    let mut slot_decisions = Vec::with_capacity(workload.episode_slots);
    let mut checkpoint_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut snapshot_bytes = Vec::new();
    let mut failed = 0u64;
    let mut phases = SlotTiming::default();
    let mut queue_s = 0.0;
    let mut latency_p50 = Vec::new();
    let mut latency_p99 = Vec::new();
    let mut fingerprint = FNV_OFFSET;

    for slot in 0..workload.episode_slots {
        let records_before = ring.len();
        let fleet = &mut scenario.fleet;
        let started = Instant::now();
        match trace {
            Some(trace) => {
                let mut env = TracedEnv::new(scenario.environment.as_mut(), trace);
                let mut sink = TracedSink::new(&mut ring, trace);
                trace.span("engine.step", || {
                    step(workload.stepping, fleet, &mut env, &mut sink);
                });
            }
            None => step(
                workload.stepping,
                fleet,
                scenario.environment.as_mut(),
                &mut ring,
            ),
        }
        let elapsed = started.elapsed().as_secs_f64();
        slot_s.push(elapsed);

        let mut phase_s = 0.0;
        let mut decided = 0;
        for record in ring.records().skip(records_before) {
            phase_s += record.timing.total_s();
            decided += record.active;
            phases.begin_slot_s += record.timing.begin_slot_s;
            phases.choose_s += record.timing.choose_s;
            phases.feedback_s += record.timing.feedback_s;
            phases.observe_s += record.timing.observe_s;
            if let Some(latency) = record.latency {
                latency_p50.push(latency.p50_s);
                latency_p99.push(latency.p99_s);
            }
            // Every decision taken must have been graded.
            if record.active != record.metrics.sessions {
                failed += 1;
            }
        }
        queue_s += elapsed - phase_s;
        slot_decisions.push(decided);
        fingerprint = fold(fingerprint, choices_hash(&scenario.fleet));

        if checkpoints && workload.checkpoints_after(slot) {
            let fresh = workload.build(seed);
            let cycle = checkpoint_cycle(&mut scenario, fresh, trace);
            checkpoint_s.push(cycle.checkpoint_s);
            restore_s.push(cycle.restore_s);
            snapshot_bytes.push(cycle.bytes);
            match cycle.restored {
                Ok(restored) => scenario.fleet = restored,
                Err(error) => {
                    eprintln!("checkpoint cycle after slot {slot} failed: {error}");
                    failed += 1;
                }
            }
        }
    }

    let peak_rss_mb = peak_rss_mb();
    let records: Vec<_> = ring.records().collect();
    let window_start = workload.episode_slots - workload.window_slots;
    let whole = merged(records.iter().copied());
    let window = merged(records.iter().copied().filter(|r| r.slot >= window_start));
    let sim = SimMetrics {
        distance_pct: window.distance_mean(),
        switch_rate: whole.switch_rate(),
        jain: window.jain(),
        goodput_mbps: window.mean_rate_mbps(),
    };
    let trajectory = sim.bits().into_iter().fold(fingerprint, fold);
    let metrics = scenario.fleet.metrics();
    fingerprint = fold_bytes(trajectory, format!("{metrics:?}").as_bytes());
    let decisions = metrics.decisions;
    if records.iter().map(|r| r.active).sum::<u64>() != decisions {
        failed += 1;
    }
    let operations = (slot_s.len() + checkpoint_s.len()) as u64;

    let layers = trace.map(|trace| {
        let counters = scenario.fleet.sampler_counters();
        let blocks: u64 = metrics.per_kind.iter().map(|(_, k)| k.policy.blocks).sum();
        let per_k = |count: u64| count as f64 * 1e3 / decisions as f64;
        let cohorts = records.len() as f64;
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let end_slot_s = trace.total_s("env.end_slot");
        BTreeMap::from([
            ("engine.choose_s", phases.choose_s),
            ("engine.observe_s", phases.observe_s),
            ("engine.begin_slot_s", phases.begin_slot_s),
            ("engine.feedback_s", phases.feedback_s),
            ("engine.self_s", trace.self_s("engine.step")),
            ("engine.queue_s", queue_s),
            ("engine.cohorts", cohorts),
            ("engine.decisions_per_cohort", decisions as f64 / cohorts),
            ("engine.wake_latency_p50_us", mean(&latency_p50) * 1e6),
            ("engine.wake_latency_p99_us", mean(&latency_p99) * 1e6),
            ("engine.snapshot_s", trace.self_s("engine.snapshot")),
            ("engine.restore_s", trace.self_s("engine.restore")),
            (
                "core.sampler_rebuilds_per_kdecision",
                per_k(counters.rebuilds),
            ),
            (
                "core.overlay_hit_ratio",
                counters.overlay_hits as f64 / decisions as f64,
            ),
            ("core.blocks_per_kdecision", per_k(blocks)),
            ("core.resets", metrics.resets as f64),
            ("env.begin_slot_s", trace.total_s("env.begin_slot")),
            ("env.begin_slot_calls", trace.begin_slot_calls() as f64),
            ("env.feedback_s", trace.total_s("env.feedback")),
            ("env.end_slot_s", end_slot_s),
            ("env.end_slot_share", end_slot_s / phases.observe_s),
            ("env.networks_changed", trace.networks_changed() as f64),
            (
                "env.wake_protocol_calls",
                trace.wake_protocol_calls() as f64,
            ),
            ("env.partition_jobs", trace.partition_jobs() as f64),
            ("env.partition_job_max_s", trace.partition_job_max_s()),
            ("env.partition_imbalance", trace.partition_imbalance()),
            ("env.state_s", trace.total_s("env.state")),
            ("env.state_bytes", trace.state_bytes() as f64),
            ("env.restore_s", trace.total_s("env.restore")),
            ("telemetry.sink_s", trace.total_s("telemetry.sink")),
            ("telemetry.records", trace.records() as f64),
            ("serde_json.encode_s", trace.total_s("serde_json.encode")),
            (
                "serde_json.bytes",
                snapshot_bytes.iter().sum::<usize>() as f64,
            ),
            ("serde_json.parse_s", trace.total_s("serde_json.parse")),
        ])
    });

    Episode {
        setup_s,
        peak_rss_mb,
        operations,
        failed: failed.min(operations),
        slot_s,
        slot_decisions,
        decisions,
        checkpoint_s,
        restore_s,
        snapshot_bytes,
        fingerprint,
        trajectory,
        sim,
        layers,
        spans: trace.map(Trace::spans).unwrap_or_default(),
    }
}
