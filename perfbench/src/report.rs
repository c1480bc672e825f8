//! Run-level aggregation: repeats episodes for the requested time and turns
//! them into the named metrics `BENCHMARK.json` lists.

use crate::episode::{run_episode, Episode};
use crate::pins::pinned;
use crate::trace::{Span, Trace};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, printed by an untraced run, with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("decisions_per_s", "1/s"),
    ("slot_ms_p50", "ms"),
    ("wall_ms_per_slot", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("distance_pct", "%"),
    ("switch_rate", "1"),
    ("jain", "1"),
    ("goodput_mbps", "Mbps"),
];

/// Per-layer metrics, printed by a traced run, with their units.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("engine.choose_s", "s"),
    ("engine.observe_s", "s"),
    ("engine.begin_slot_s", "s"),
    ("engine.feedback_s", "s"),
    ("engine.self_s", "s"),
    ("engine.queue_s", "s"),
    ("engine.cohorts", "count"),
    ("engine.decisions_per_cohort", "count"),
    ("engine.wake_latency_p50_us", "us"),
    ("engine.wake_latency_p99_us", "us"),
    ("engine.snapshot_s", "s"),
    ("engine.restore_s", "s"),
    ("core.sampler_rebuilds_per_kdecision", "count"),
    ("core.overlay_hit_ratio", "1"),
    ("core.blocks_per_kdecision", "count"),
    ("core.resets", "count"),
    ("env.begin_slot_s", "s"),
    ("env.begin_slot_calls", "count"),
    ("env.feedback_s", "s"),
    ("env.end_slot_s", "s"),
    ("env.end_slot_share", "1"),
    ("env.networks_changed", "count"),
    ("env.wake_protocol_calls", "count"),
    ("env.partition_jobs", "count"),
    ("env.partition_job_max_s", "s"),
    ("env.partition_imbalance", "1"),
    ("env.state_s", "s"),
    ("env.state_bytes", "bytes"),
    ("env.restore_s", "s"),
    ("telemetry.sink_s", "s"),
    ("telemetry.records", "count"),
    ("serde_json.encode_s", "s"),
    ("serde_json.bytes", "bytes"),
    ("serde_json.parse_s", "s"),
    ("checkpoint_s", "s"),
    ("restore_s", "s"),
    ("snapshot_mb", "MB"),
    ("trace.decisions_per_s", "1/s"),
    ("trace.untraced_decisions_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

/// Slot samples an untraced run collects at least, so that `slot_ms_p99`
/// has ten samples beyond it.
pub const MIN_SLOT_SAMPLES: usize = 1000;

/// Scenario builds a run times at least, for the `setup_s` median.
pub const MIN_SETUPS: usize = 5;

/// Wall time after which a run stops starting episodes even if it has not
/// reached its sample or time target, so it ends well within 180 s.
pub const MAX_RUN_S: f64 = 120.0;

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Operations attempted (stepped slots plus checkpoint cycles).
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Metric values in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context (sample counts, medians not gated).
    pub notes: Vec<String>,
    /// Spans of the traced episodes, tagged with their episode number.
    pub spans: Vec<(usize, Span)>,
}

impl Outcome {
    /// Whether every operation passed its checks.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank `q`-quantile of `values` (`0 < q ≤ 1`); 0 when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Medians per checkpoint of checkpoint time, restore time and size (MB).
fn checkpoint_notes(episodes: &[Episode]) -> (f64, f64, f64) {
    let checkpoint: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.checkpoint_s.clone())
        .collect();
    let restore: Vec<f64> = episodes.iter().flat_map(|e| e.restore_s.clone()).collect();
    let bytes: Vec<f64> = episodes
        .iter()
        .flat_map(|e| e.snapshot_bytes.iter().map(|&b| b as f64))
        .collect();
    (median(&checkpoint), median(&restore), median(&bytes) / 1e6)
}

/// Times extra scenario builds until `setups` holds [`MIN_SETUPS`] samples.
fn top_up_setups(workload: &Workload, seed: u64, setups: &mut Vec<f64>) {
    while setups.len() < MIN_SETUPS {
        let start = Instant::now();
        let scenario = workload.build(seed);
        setups.push(start.elapsed().as_secs_f64());
        drop(scenario);
    }
}

/// Fails every episode whose fingerprint differs from `reference`.
fn check_against(reference: u64, episodes: &mut [Episode], what: &str) {
    for (i, episode) in episodes.iter_mut().enumerate() {
        if episode.fingerprint != reference {
            eprintln!("episode {i}: trajectory differs from {what}");
            episode.fail_all();
        }
    }
}

/// Fails every episode whose trajectory differs from the one pinned for
/// `seed`, and says whether the seed has a pin.
fn check_pin(workload: &Workload, seed: u64, episodes: &mut [Episode]) -> String {
    let Some(pin) = pinned(workload.name, seed) else {
        return format!(
            "seed {seed} has no pinned trajectory: repeats checked against each other only"
        );
    };
    for (i, episode) in episodes.iter_mut().enumerate() {
        if episode.trajectory != pin {
            eprintln!(
                "episode {i}: trajectory {:#018x} differs from the pinned {pin:#018x}",
                episode.trajectory
            );
            episode.fail_all();
        }
    }
    format!("trajectory checked against the pin for seed {seed}")
}

/// Untraced run: end-to-end metrics.
#[must_use]
pub fn measure(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut setups = Vec::new();
    // A checkpointing workload is compared against an uninterrupted twin,
    // stepped outside the timed window.
    let twin = workload
        .checkpoint_every
        .map(|_| run_episode(workload, seed, false, None));
    if let Some(twin) = &twin {
        setups.push(twin.setup_s);
    }
    let mut episodes: Vec<Episode> = Vec::new();
    let mut timed_s = 0.0;
    loop {
        let episode = run_episode(workload, seed, true, None);
        timed_s += episode.timed_s();
        setups.push(episode.setup_s);
        episodes.push(episode);
        let samples: usize = episodes.iter().map(|e| e.slot_s.len()).sum();
        let done = timed_s >= seconds && samples >= MIN_SLOT_SAMPLES;
        if done || started.elapsed().as_secs_f64() > MAX_RUN_S {
            break;
        }
    }
    top_up_setups(workload, seed, &mut setups);
    // Repeats of one seed must retrace the same trajectory; a checkpointed
    // episode must also match its uninterrupted twin.
    match &twin {
        Some(twin) => check_against(twin.fingerprint, &mut episodes, "the uninterrupted twin"),
        None => {
            let first = episodes[0].fingerprint;
            check_against(first, &mut episodes, "the first episode");
        }
    }
    let pin_note = check_pin(workload, seed, &mut episodes);

    let slot_s: Vec<f64> = episodes.iter().flat_map(|e| e.slot_s.clone()).collect();
    let rates: Vec<f64> = episodes.iter().flat_map(Episode::window_rates).collect();
    let window_slot_s: Vec<f64> = episodes.iter().flat_map(Episode::window_slot_s).collect();
    let (checkpoint_s, restore_s, snapshot_mb) = checkpoint_notes(&episodes);
    // Checkpoint cycles amortised over the slots they interrupt.
    let cycles: usize = episodes.iter().map(|e| e.checkpoint_s.len()).sum();
    let cycle_s_per_slot = (checkpoint_s + restore_s) * cycles as f64 / slot_s.len() as f64;
    let sim = episodes[0].sim;
    let values = [
        median(&rates),
        median(&slot_s) * 1e3,
        (median(&window_slot_s) + cycle_s_per_slot) * 1e3,
        median(&setups),
        episodes[0].peak_rss_mb,
        sim.distance_pct,
        sim.switch_rate,
        sim.jain,
        sim.goodput_mbps,
    ];
    let attempted: u64 = episodes.iter().map(|e| e.operations).sum();
    let failed: u64 = episodes.iter().map(|e| e.failed).sum();
    let beyond_p99 = slot_s.len() - (0.99 * slot_s.len() as f64).ceil() as usize;
    Outcome {
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
        notes: vec![
            format!(
                "{} episodes of {} slots; {} slot samples; {} setups",
                episodes.len(),
                workload.episode_slots,
                slot_s.len(),
                setups.len()
            ),
            // The tail is printed, not gated: on a shared host it spreads
            // by half its value between runs of one seed.
            format!(
                "slot_ms_p99 = {} ms ({beyond_p99} samples beyond it), slot_ms_p90 = {} ms",
                quantile(&slot_s, 0.99) * 1e3,
                quantile(&slot_s, 0.90) * 1e3
            ),
            format!("checkpoint_s = {checkpoint_s} s (median per checkpoint)"),
            format!("restore_s = {restore_s} s (median per restore)"),
            format!("snapshot_mb = {snapshot_mb} MB (median per checkpoint)"),
            format!(
                "failed_frac = {} (failed / attempted operations)",
                failed as f64 / attempted.max(1) as f64
            ),
            pin_note,
        ],
        spans: Vec::new(),
    }
}

/// Traced run: per-layer metrics. Untraced and traced episodes alternate so
/// host drift hits both; their trajectories must match.
#[must_use]
pub fn measure_traced(workload: &Workload, seed: u64, seconds: f64) -> Outcome {
    let started = Instant::now();
    let twin = workload
        .checkpoint_every
        .map(|_| run_episode(workload, seed, false, None));
    let mut plain: Vec<Episode> = Vec::new();
    let mut traced: Vec<Episode> = Vec::new();
    let mut timed_s = 0.0;
    // Pairs alternate which side runs first (ABBA), so the cold first
    // episode and any drift are shared evenly.
    for pair in 0.. {
        for traced_turn in [pair % 2 == 1, pair % 2 == 0] {
            if traced_turn {
                let trace = Trace::new();
                let episode = run_episode(workload, seed, true, Some(&trace));
                timed_s += episode.timed_s();
                traced.push(episode);
            } else {
                let episode = run_episode(workload, seed, true, None);
                timed_s += episode.timed_s();
                plain.push(episode);
            }
        }
        if timed_s >= seconds || started.elapsed().as_secs_f64() > MAX_RUN_S {
            break;
        }
    }
    let reference = twin
        .as_ref()
        .map_or(plain[0].fingerprint, |t| t.fingerprint);
    check_against(reference, &mut plain, "the untraced reference");
    check_against(reference, &mut traced, "the untraced reference");
    let pin_note = check_pin(workload, seed, &mut plain);
    check_pin(workload, seed, &mut traced);

    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for episode in &traced {
        for (name, value) in episode.layers.iter().flatten() {
            layers.entry(name).or_default().push(*value);
        }
    }
    let rates = |episodes: &[Episode]| -> f64 {
        median(
            &episodes
                .iter()
                .flat_map(Episode::window_rates)
                .collect::<Vec<_>>(),
        )
    };
    let untraced_dps = rates(&plain);
    let traced_dps = rates(&traced);
    let (checkpoint_s, restore_s, snapshot_mb) = checkpoint_notes(&plain);
    let mut values: BTreeMap<&str, f64> = layers
        .iter()
        .map(|(name, samples)| (*name, median(samples)))
        .collect();
    values.insert("checkpoint_s", checkpoint_s);
    values.insert("restore_s", restore_s);
    values.insert("snapshot_mb", snapshot_mb);
    values.insert("trace.decisions_per_s", traced_dps);
    values.insert("trace.untraced_decisions_per_s", untraced_dps);
    values.insert(
        "trace.overhead_pct",
        (1.0 - traced_dps / untraced_dps) * 100.0,
    );

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = *values
                .get(name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            // A ratio over an empty phase (0/0) means the layer did no work.
            (name, if value.is_finite() { value } else { 0.0 }, unit)
        })
        .collect();
    let attempted: u64 = plain.iter().chain(&traced).map(|e| e.operations).sum();
    let failed: u64 = plain.iter().chain(&traced).map(|e| e.failed).sum();
    let spans = traced
        .iter()
        .enumerate()
        .flat_map(|(i, e)| e.spans.iter().map(move |s| (i, *s)))
        .collect();
    Outcome {
        attempted,
        failed,
        metrics,
        notes: vec![
            format!(
                "{} untraced and {} traced episodes of {} slots; per-layer values are medians of per-episode totals",
                plain.len(),
                traced.len(),
                workload.episode_slots
            ),
            pin_note,
        ],
        spans,
    }
}
