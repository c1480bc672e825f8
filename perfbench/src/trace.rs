//! Traced-run instrumentation, kept entirely inside the benchmark.
//!
//! The traced run wraps the calls into each layer from outside: the
//! [`TracedEnv`] delegates every [`Environment`] method, the
//! [`TimedExecutor`] times each feedback [`PartitionJob`] it is handed, and
//! the [`TracedSink`] times each telemetry record. Spans (name, start, end,
//! parent) are kept in memory in a [`Trace`] until the run ends. Only the
//! stepping thread opens spans, so they nest strictly; work on pool threads
//! (session views, partition jobs) is counted and timed but opens no span.

use smartexp3_core::{
    EnvStateError, Environment, NetworkId, Observation, PartitionExecutor, PartitionJob,
    SessionRange, SessionView, SharedFeedback, SlotIndex, SlotMetrics,
};
use smartexp3_telemetry::{TelemetryRecord, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer and call, e.g. `env.feedback`.
    pub name: &'static str,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug, Default)]
struct SpanLog {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-call statistics of the partition jobs one executor ran.
#[derive(Debug, Default, Clone, Copy)]
struct PartitionTotals {
    runs: u64,
    jobs: u64,
    max_job_s: f64,
    imbalance_sum: f64,
}

/// In-memory span log plus the counters the wrappers keep.
///
/// Counters are statistics that publish no other data, so they use relaxed
/// atomics; pool threads write them and the stepping thread reads them only
/// after the pool has joined.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    log: Mutex<SpanLog>,
    partitions: Mutex<PartitionTotals>,
    begin_slot_calls: AtomicU64,
    networks_changed: AtomicU64,
    wake_protocol_calls: AtomicU64,
    state_bytes: AtomicU64,
    records: AtomicU64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            log: Mutex::new(SpanLog::default()),
            partitions: Mutex::new(PartitionTotals::default()),
            begin_slot_calls: AtomicU64::new(0),
            networks_changed: AtomicU64::new(0),
            wake_protocol_calls: AtomicU64::new(0),
            state_bytes: AtomicU64::new(0),
            records: AtomicU64::new(0),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the innermost open
    /// span. Call only from the stepping thread.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut log = self.log.lock().expect("span log poisoned");
            let id = log.spans.len();
            let parent = log.open.last().copied();
            let start_ns = self.now_ns();
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            log.open.push(id);
            id
        };
        let result = f();
        let end_ns = self.now_ns();
        let mut log = self.log.lock().expect("span log poisoned");
        log.spans[id].end_ns = end_ns;
        let closed = log.open.pop();
        debug_assert_eq!(closed, Some(id), "spans must nest");
        result
    }

    /// The recorded spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.log.lock().expect("span log poisoned").spans.clone()
    }

    /// Summed duration of every span named `name`.
    #[must_use]
    pub fn total_s(&self, name: &str) -> f64 {
        let log = self.log.lock().expect("span log poisoned");
        log.spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.seconds())
    }

    /// Summed self time of every span named `name`: its duration minus the
    /// time its direct children cover (children never overlap, because only
    /// one thread opens spans).
    #[must_use]
    pub fn self_s(&self, name: &str) -> f64 {
        let log = self.log.lock().expect("span log poisoned");
        let mut child_s = vec![0.0; log.spans.len()];
        for span in &log.spans {
            if let Some(parent) = span.parent {
                child_s[parent] += span.seconds();
            }
        }
        log.spans
            .iter()
            .zip(&child_s)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |total, (s, c)| total + s.seconds() - c)
    }

    /// `begin_slot` calls (plain or partitioned) the environment received.
    #[must_use]
    pub fn begin_slot_calls(&self) -> u64 {
        self.begin_slot_calls.load(Ordering::Relaxed)
    }

    /// Session views that carried a visibility change.
    #[must_use]
    pub fn networks_changed(&self) -> u64 {
        self.networks_changed.load(Ordering::Relaxed)
    }

    /// Calls into the wake protocol (`wake_cadence`, `first_wake`,
    /// `next_wake`, `next_env_event`).
    #[must_use]
    pub fn wake_protocol_calls(&self) -> u64 {
        self.wake_protocol_calls.load(Ordering::Relaxed)
    }

    /// Bytes of environment state returned by `state`.
    #[must_use]
    pub fn state_bytes(&self) -> u64 {
        self.state_bytes.load(Ordering::Relaxed)
    }

    /// Telemetry records delivered to the sink.
    #[must_use]
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }

    /// Partition jobs run, summed over executor calls.
    #[must_use]
    pub fn partition_jobs(&self) -> u64 {
        self.partitions.lock().expect("poisoned").jobs
    }

    /// The longest job of each executor call (the critical path), summed
    /// over calls.
    #[must_use]
    pub fn partition_job_max_s(&self) -> f64 {
        self.partitions.lock().expect("poisoned").max_job_s
    }

    /// Mean over executor calls of longest job time divided by mean job
    /// time; 1 means perfectly balanced, 0 means no call was made.
    #[must_use]
    pub fn partition_imbalance(&self) -> f64 {
        let totals = *self.partitions.lock().expect("poisoned");
        if totals.runs == 0 {
            0.0
        } else {
            totals.imbalance_sum / totals.runs as f64
        }
    }
}

/// Times every partition job of one executor call and forwards the jobs to
/// the executor the engine handed in.
pub struct TimedExecutor<'a> {
    inner: &'a dyn PartitionExecutor,
    trace: &'a Trace,
}

impl PartitionExecutor for TimedExecutor<'_> {
    fn run(&self, jobs: Vec<PartitionJob<'_>>) {
        let times: Vec<AtomicU64> = jobs.iter().map(|_| AtomicU64::new(0)).collect();
        let timed: Vec<PartitionJob<'_>> = jobs
            .into_iter()
            .zip(&times)
            .map(|(job, elapsed)| {
                Box::new(move || {
                    let start = Instant::now();
                    job();
                    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    elapsed.store(ns, Ordering::Relaxed);
                }) as PartitionJob<'_>
            })
            .collect();
        // The executor returns only after every job has finished, which
        // orders the relaxed stores above before the loads below.
        self.inner.run(timed);
        if times.is_empty() {
            return;
        }
        let seconds: Vec<f64> = times
            .iter()
            .map(|t| t.load(Ordering::Relaxed) as f64 * 1e-9)
            .collect();
        let max = seconds.iter().copied().fold(0.0, f64::max);
        let mean = seconds.iter().sum::<f64>() / seconds.len() as f64;
        let mut totals = self.trace.partitions.lock().expect("poisoned");
        totals.runs += 1;
        totals.jobs += seconds.len() as u64;
        totals.max_job_s += max;
        if mean > 0.0 {
            totals.imbalance_sum += max / mean;
        }
    }
}

/// An [`Environment`] that delegates every call to `inner` and records it.
pub struct TracedEnv<'a> {
    inner: &'a mut dyn Environment,
    trace: &'a Trace,
}

impl<'a> TracedEnv<'a> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'a mut dyn Environment, trace: &'a Trace) -> Self {
        TracedEnv { inner, trace }
    }

    fn wake_call(&self) {
        self.trace
            .wake_protocol_calls
            .fetch_add(1, Ordering::Relaxed);
    }
}

impl Environment for TracedEnv<'_> {
    fn sessions(&self) -> usize {
        self.inner.sessions()
    }

    fn begin_slot(&mut self, slot: SlotIndex) {
        self.trace.begin_slot_calls.fetch_add(1, Ordering::Relaxed);
        let inner = &mut *self.inner;
        self.trace.span("env.begin_slot", || inner.begin_slot(slot));
    }

    fn begin_slot_partitioned(&mut self, slot: SlotIndex, executor: &dyn PartitionExecutor) {
        self.trace.begin_slot_calls.fetch_add(1, Ordering::Relaxed);
        let timed = TimedExecutor {
            inner: executor,
            trace: self.trace,
        };
        let inner = &mut *self.inner;
        self.trace.span("env.begin_slot", || {
            inner.begin_slot_partitioned(slot, &timed);
        });
    }

    fn session_view(&self, session: usize, slot: SlotIndex) -> SessionView<'_> {
        let view = self.inner.session_view(session, slot);
        if view.networks_changed.is_some() {
            self.trace.networks_changed.fetch_add(1, Ordering::Relaxed);
        }
        view
    }

    fn feedback(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
    ) {
        let inner = &mut *self.inner;
        self.trace
            .span("env.feedback", || inner.feedback(slot, choices, out));
    }

    fn feedback_partitions(&self) -> Option<&[SessionRange]> {
        self.inner.feedback_partitions()
    }

    fn feedback_partitioned(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        out: &mut [Option<Observation>],
        executor: &dyn PartitionExecutor,
    ) {
        let timed = TimedExecutor {
            inner: executor,
            trace: self.trace,
        };
        let inner = &mut *self.inner;
        self.trace.span("env.feedback", || {
            inner.feedback_partitioned(slot, choices, out, &timed);
        });
    }

    fn shares_feedback(&self) -> bool {
        self.inner.shares_feedback()
    }

    fn shared_feedback_into(&self, session: usize, out: &mut SharedFeedback) -> bool {
        self.inner.shared_feedback_into(session, out)
    }

    fn wants_top_choices(&self) -> bool {
        self.inner.wants_top_choices()
    }

    fn end_slot(
        &mut self,
        slot: SlotIndex,
        choices: &[Option<NetworkId>],
        tops: &[Option<(NetworkId, f64)>],
    ) {
        let inner = &mut *self.inner;
        self.trace
            .span("env.end_slot", || inner.end_slot(slot, choices, tops));
    }

    fn set_telemetry(&mut self, enabled: bool) -> bool {
        self.inner.set_telemetry(enabled)
    }

    fn telemetry(&self) -> Option<&SlotMetrics> {
        self.inner.telemetry()
    }

    fn wake_cadence(&self, session: usize) -> usize {
        self.wake_call();
        self.inner.wake_cadence(session)
    }

    fn first_wake(&self, session: usize) -> SlotIndex {
        self.wake_call();
        self.inner.first_wake(session)
    }

    fn next_wake(&self, session: usize, woke_at: SlotIndex) -> SlotIndex {
        self.wake_call();
        self.inner.next_wake(session, woke_at)
    }

    fn next_env_event(&self, from: SlotIndex) -> Option<SlotIndex> {
        self.wake_call();
        self.inner.next_env_event(from)
    }

    fn state(&self) -> Option<String> {
        let state = self.trace.span("env.state", || self.inner.state());
        if let Some(text) = &state {
            self.trace
                .state_bytes
                .fetch_add(text.len() as u64, Ordering::Relaxed);
        }
        state
    }

    fn restore(&mut self, state: &str) -> Result<(), EnvStateError> {
        let inner = &mut *self.inner;
        self.trace.span("env.restore", || inner.restore(state))
    }
}

/// A [`TelemetrySink`] that times and counts each record it forwards.
pub struct TracedSink<'a> {
    inner: &'a mut dyn TelemetrySink,
    trace: &'a Trace,
}

impl<'a> TracedSink<'a> {
    /// Wraps `inner`, recording into `trace`.
    pub fn new(inner: &'a mut dyn TelemetrySink, trace: &'a Trace) -> Self {
        TracedSink { inner, trace }
    }
}

impl TelemetrySink for TracedSink<'_> {
    fn record(&mut self, record: &TelemetryRecord) {
        self.trace.records.fetch_add(1, Ordering::Relaxed);
        let inner = &mut *self.inner;
        self.trace.span("telemetry.sink", || inner.record(record));
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}
