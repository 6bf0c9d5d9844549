//! Opt-in observability for the evolution pipeline: structured tracing,
//! a metrics registry, and per-run profiling reports.
//!
//! # Layers
//!
//! 1. **Structured tracing** — [`SpanEvent`] is a closed taxonomy of typed
//!    span records emitted by the compile ([`CompileSpan`]), scheduling
//!    ([`ScheduleSpan`], [`SegmentSpan`]), stepper ([`StepperSpan`]),
//!    recovery ([`RecoverySpan`]) and execution ([`ExecSpan`]) layers.
//!    A [`TraceSink`] receives them; the built-in [`Recorder`] buffers them
//!    in memory with a hard cap so a runaway schedule cannot exhaust memory.
//! 2. **Metrics registry** — [`MetricsRegistry`] folds every recorded event
//!    into typed [`Counter`]s, [`Gauge`]s and a wall-time [`Histogram`],
//!    snapshotable as the plain [`MetricsSnapshot`] struct.
//! 3. **Profiling report** — [`RunProfile`] aggregates a recorded trace into
//!    per-segment and per-backend tables, exportable as JSON
//!    ([`RunProfile::to_json`]) or a human-readable summary
//!    ([`RunProfile::summary`]).
//!
//! # Enabling
//!
//! Telemetry is **opt-in** and defaults to off. Enable it either
//! programmatically ([`EvolveOptions::with_telemetry`]) or for a whole
//! process by setting the `QTURBO_TRACE` environment variable to anything
//! other than `0` or the empty string (checked once and cached, see
//! [`env_enabled`]). When disabled the hot path performs a single boolean
//! test: no allocation, no clock reads inside the segment loop, and no
//! extra amplitude passes — traced and untraced runs produce bitwise
//! identical states (`tests/conformance_telemetry.rs` pins this).
//!
//! [`EvolveOptions::with_telemetry`]: crate::stepper::EvolveOptions::with_telemetry

use std::fmt::Write as _;
use std::sync::OnceLock;

use crate::error::RecoveryEvent;
use crate::stepper::StepperKind;

/// Hard cap on buffered span events per [`Recorder`].
///
/// Mirrors `MAX_RECORDED_DECISIONS` / `MAX_RECORDED_RECOVERIES` in the
/// propagator: beyond this many events the recorder stops buffering and
/// only counts drops ([`Recorder::dropped`]), so telemetry memory stays
/// bounded no matter how many segments a schedule has.
pub const MAX_RECORDED_EVENTS: usize = 1 << 16;

/// Returns whether the `QTURBO_TRACE` environment variable enables
/// telemetry for this process.
///
/// Any non-empty value other than `"0"` enables tracing. The variable is
/// read once and cached for the lifetime of the process (the same pattern
/// as `QTURBO_THREADS`), so the disabled path costs one static boolean
/// load.
pub fn env_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("QTURBO_TRACE") {
        Ok(value) => !(value.is_empty() || value == "0"),
        Err(_) => false,
    })
}

/// Wall-clock stamp attached to compiled artifacts
/// ([`CompiledSchedule`](crate::schedule::CompiledSchedule),
/// [`CompiledHamiltonian`](crate::compiled::CompiledHamiltonian)).
///
/// Deliberately compares **equal to any other stamp**: compiled artifacts
/// derive structural `PartialEq`, and two compiles of identical input must
/// stay equal even though their wall times differ. The stamp carries
/// timing without poisoning equality.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompileTiming {
    /// Wall nanoseconds the compilation took.
    pub wall_ns: u64,
}

impl PartialEq for CompileTiming {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

// ---------------------------------------------------------------------------
// Span taxonomy
// ---------------------------------------------------------------------------

/// Compile-phase span: one Hamiltonian-schedule compilation.
///
/// Emitted when a traced propagator first sees a [`CompiledSchedule`]
/// (the wall time is measured inside `CompiledSchedule::compile` itself,
/// so views created by `try_scaled_weights` inherit the original compile
/// cost — recompilation avoided is still attributed).
///
/// [`CompiledSchedule`]: crate::schedule::CompiledSchedule
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompileSpan {
    /// Number of segments in the compiled schedule.
    pub segments: usize,
    /// Number of distinct mask layouts shared across segments.
    pub layouts: usize,
    /// Wall-clock nanoseconds spent in `CompiledSchedule::compile`.
    pub wall_ns: u64,
}

/// Schedule-level span: one full `try_evolve_schedule_in_place` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleSpan {
    /// Segments in the schedule (including skipped zero-duration ones).
    pub segments: usize,
    /// Segments that actually ran a stepper.
    pub executed_segments: usize,
    /// Total scheduled evolution time.
    pub total_time: f64,
    /// Kernel applications summed over all backends for this call.
    pub applications: u64,
    /// Amplitude passes summed over all backends for this call.
    pub state_passes: u64,
    /// Amplitude passes spent flushing the final open batched run after
    /// the segment loop; these belong to the schedule, not any one
    /// segment, so `Σ segment.state_passes + finalize_passes` equals
    /// `state_passes` exactly.
    pub finalize_passes: u64,
    /// Recovery events raised during this call.
    pub recoveries: u64,
    /// Wall-clock nanoseconds for the whole schedule evolution.
    pub wall_ns: u64,
}

/// Per-segment span: backend decision plus cost-model estimate vs. actuals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentSpan {
    /// Segment index within the schedule (a constant Hamiltonian runs as
    /// segment `0`).
    pub index: usize,
    /// Backend that (finally) integrated the segment, after any Auto
    /// demotion or recovery fallback.
    pub backend: StepperKind,
    /// Segment duration.
    pub duration: f64,
    /// `AutoCostModel::estimated_applications` for the backend that ran,
    /// using the same (diagonal-tightened) bound the stepper saw.
    /// `None` when the model has no closed form (e.g. unresolved `Auto`).
    pub predicted_applications: Option<f64>,
    /// Kernel applications actually spent on this segment.
    pub applications: u64,
    /// Amplitude passes actually spent on this segment.
    pub state_passes: u64,
    /// Whether a recovery fallback re-integrated this segment.
    pub recovered: bool,
    /// Wall-clock nanoseconds for this segment (including any recovery
    /// retry).
    pub wall_ns: u64,
}

/// Stepper-backend span: cumulative work counters for one backend.
///
/// Emitted once per backend with non-zero counters at the end of a traced
/// schedule or constant-`H` evolution. Counters are cumulative since the
/// propagator's last `reset_kernel_applications`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepperSpan {
    /// The backend these counters belong to.
    pub backend: StepperKind,
    /// Cumulative kernel applications by this backend.
    pub applications: u64,
    /// Cumulative amplitude passes by this backend.
    pub state_passes: u64,
}

/// Recovery span: wraps one [`RecoveryEvent`] as it is pushed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoverySpan {
    /// The recovery event (segment, failing backend, fallback, error).
    pub event: RecoveryEvent,
}

/// Execution-layer span: the kernel execution plan for a traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecSpan {
    /// SIMD lane width of the lane kernels.
    pub lane_width: usize,
    /// Resolved worker threads.
    pub threads: usize,
    /// Participants the pool would use at this dimension.
    pub workers: usize,
    /// Chunks the state vector is split into (equals `workers` when the
    /// dimension crosses the parallel threshold, `1` otherwise).
    pub chunks: usize,
    /// Amplitudes per chunk (rounded up to a lane-width multiple).
    pub chunk_len: usize,
    /// Qubit count at or above which kernels go parallel.
    pub parallel_threshold_qubits: usize,
    /// State-vector dimension the plan was made for.
    pub dim: usize,
    /// Worker-pool busy nanoseconds accumulated during the traced call
    /// (sum over helper threads of time spent inside kernel jobs).
    pub pool_busy_ns: u64,
}

/// One structured trace event.
///
/// The taxonomy is closed: every observable phase of the pipeline maps to
/// exactly one variant, which is what makes span-derived totals provable
/// against the exact pass counters.
#[derive(Debug, Clone, PartialEq)]
pub enum SpanEvent {
    /// Hamiltonian-schedule compilation.
    Compile(CompileSpan),
    /// Full schedule evolution.
    Schedule(ScheduleSpan),
    /// One schedule segment (a constant Hamiltonian is segment `0`).
    Segment(SegmentSpan),
    /// Cumulative per-backend work counters.
    Stepper(StepperSpan),
    /// A recovery fallback.
    Recovery(RecoverySpan),
    /// The kernel execution plan.
    Exec(ExecSpan),
}

impl SpanEvent {
    /// Returns a copy of this event with all wall-clock fields zeroed.
    ///
    /// Wall-clock nanoseconds are the only nondeterministic payload in a
    /// trace; stripping them makes traces of repeated seeded runs compare
    /// equal (`tests/conformance_telemetry.rs` asserts this).
    pub fn sans_timing(&self) -> SpanEvent {
        match self {
            SpanEvent::Compile(span) => SpanEvent::Compile(CompileSpan {
                wall_ns: 0,
                ..*span
            }),
            SpanEvent::Schedule(span) => SpanEvent::Schedule(ScheduleSpan {
                wall_ns: 0,
                ..*span
            }),
            SpanEvent::Segment(span) => SpanEvent::Segment(SegmentSpan {
                wall_ns: 0,
                ..*span
            }),
            SpanEvent::Stepper(span) => SpanEvent::Stepper(*span),
            SpanEvent::Recovery(span) => SpanEvent::Recovery(span.clone()),
            SpanEvent::Exec(span) => SpanEvent::Exec(ExecSpan {
                pool_busy_ns: 0,
                ..*span
            }),
        }
    }
}

/// Receives structured trace events.
///
/// The pipeline emits through this trait so alternative sinks (a service
/// layer's request log, a streaming exporter) can replace the in-memory
/// [`Recorder`] without touching emission sites.
pub trait TraceSink {
    /// Records one span event.
    fn record(&mut self, event: SpanEvent);
}

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Adds `delta` to the counter (saturating).
    pub fn add(&mut self, delta: u64) {
        self.0 = self.0.saturating_add(delta);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A last-value-wins `f64` gauge.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Gauge(f64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&mut self, value: f64) {
        self.0 = value;
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.0
    }
}

/// Bucket upper bounds (nanoseconds) for the segment wall-time histogram:
/// 1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms, 1 s, plus an overflow bucket.
pub const HISTOGRAM_BOUNDS_NS: [u64; 7] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// A fixed-bucket histogram over nanosecond observations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Histogram {
    /// Observation counts per bucket; the final slot counts observations
    /// above the largest bound in [`HISTOGRAM_BOUNDS_NS`].
    pub buckets: [u64; HISTOGRAM_BOUNDS_NS.len() + 1],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&mut self, value_ns: u64) {
        let slot = HISTOGRAM_BOUNDS_NS
            .iter()
            .position(|&bound| value_ns <= bound)
            .unwrap_or(HISTOGRAM_BOUNDS_NS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value_ns);
    }
}

/// Typed metrics folded from a trace as it is recorded.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsRegistry {
    /// Executed segments (one per [`SegmentSpan`]).
    pub segments: Counter,
    /// Kernel applications summed over segment spans.
    pub kernel_applications: Counter,
    /// Amplitude passes summed over segment spans plus schedule-level
    /// finalize passes.
    pub amplitude_passes: Counter,
    /// Recovery events.
    pub recoveries: Counter,
    /// Wall nanoseconds spent compiling schedules.
    pub compile_wall_ns: Counter,
    /// Wall nanoseconds spent evolving (schedule spans).
    pub evolve_wall_ns: Counter,
    /// Worker-pool busy nanoseconds (from [`ExecSpan`]).
    pub pool_busy_ns: Counter,
    /// Resolved worker threads (last seen).
    pub threads: Gauge,
    /// Per-segment wall-time distribution.
    pub segment_wall_ns: Histogram,
}

impl MetricsRegistry {
    /// Folds one event into the registry.
    pub fn observe(&mut self, event: &SpanEvent) {
        match event {
            SpanEvent::Compile(span) => self.compile_wall_ns.add(span.wall_ns),
            SpanEvent::Schedule(span) => {
                self.evolve_wall_ns.add(span.wall_ns);
                self.amplitude_passes.add(span.finalize_passes);
            }
            SpanEvent::Segment(span) => {
                self.segments.add(1);
                self.kernel_applications.add(span.applications);
                self.amplitude_passes.add(span.state_passes);
                self.segment_wall_ns.observe(span.wall_ns);
            }
            SpanEvent::Stepper(_) => {}
            SpanEvent::Recovery(_) => self.recoveries.add(1),
            SpanEvent::Exec(span) => {
                self.pool_busy_ns.add(span.pool_busy_ns);
                self.threads.set(span.threads as f64);
            }
        }
    }

    /// Snapshots the registry as a plain struct.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let evolve = self.evolve_wall_ns.get();
        let busy = self.pool_busy_ns.get();
        MetricsSnapshot {
            segments: self.segments.get(),
            kernel_applications: self.kernel_applications.get(),
            amplitude_passes: self.amplitude_passes.get(),
            recoveries: self.recoveries.get(),
            compile_wall_ns: self.compile_wall_ns.get(),
            evolve_wall_ns: evolve,
            pool_busy_ns: busy,
            pool_utilization: if evolve == 0 {
                0.0
            } else {
                busy as f64 / evolve as f64
            },
        }
    }
}

/// Plain-struct snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Executed segments.
    pub segments: u64,
    /// Kernel applications.
    pub kernel_applications: u64,
    /// Amplitude passes.
    pub amplitude_passes: u64,
    /// Recovery events.
    pub recoveries: u64,
    /// Wall nanoseconds compiling.
    pub compile_wall_ns: u64,
    /// Wall nanoseconds evolving.
    pub evolve_wall_ns: u64,
    /// Worker-pool busy nanoseconds.
    pub pool_busy_ns: u64,
    /// `pool_busy_ns / evolve_wall_ns` — average busy helper threads
    /// during evolution (can exceed 1.0 with multiple workers; 0 when no
    /// evolve wall time was recorded).
    pub pool_utilization: f64,
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

/// The built-in buffered [`TraceSink`]: an in-memory event buffer with a
/// hard cap plus an always-updated [`MetricsRegistry`].
///
/// "Lock-free-ish": the recorder is owned by a single propagator and
/// records with plain `Vec` pushes — no locks, no atomics on the hot path.
/// Cross-thread aggregation happens only at snapshot time.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    events: Vec<SpanEvent>,
    dropped: u64,
    metrics: MetricsRegistry,
}

impl Recorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Recorded events, in emission order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Events dropped after the buffer hit [`MAX_RECORDED_EVENTS`].
    /// Dropped events still update the metrics registry.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The metrics registry folded from every recorded event (including
    /// dropped ones).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Clears the buffer and resets the metrics registry.
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
        self.metrics = MetricsRegistry::default();
    }

    /// Events with wall-clock payloads zeroed — the deterministic view of
    /// a trace (see [`SpanEvent::sans_timing`]).
    pub fn deterministic_events(&self) -> Vec<SpanEvent> {
        self.events.iter().map(SpanEvent::sans_timing).collect()
    }
}

impl TraceSink for Recorder {
    fn record(&mut self, event: SpanEvent) {
        self.metrics.observe(&event);
        if self.events.len() < MAX_RECORDED_EVENTS {
            self.events.push(event);
        } else {
            self.dropped = self.dropped.saturating_add(1);
        }
    }
}

// ---------------------------------------------------------------------------
// Profiling report
// ---------------------------------------------------------------------------

/// One row of the per-segment profile table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentProfile {
    /// Segment index (see [`SegmentSpan::index`]).
    pub index: usize,
    /// Backend that integrated the segment.
    pub backend: StepperKind,
    /// Segment duration.
    pub duration: f64,
    /// Cost-model predicted applications, when available.
    pub predicted_applications: Option<f64>,
    /// Measured kernel applications.
    pub applications: u64,
    /// Measured amplitude passes.
    pub state_passes: u64,
    /// Whether a recovery fallback ran.
    pub recovered: bool,
    /// Wall nanoseconds.
    pub wall_ns: u64,
}

/// One row of the per-backend profile table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendProfile {
    /// The backend.
    pub backend: StepperKind,
    /// Segments this backend integrated.
    pub segments: u64,
    /// Kernel applications attributed to this backend's segments.
    pub applications: u64,
    /// Amplitude passes attributed to this backend's segments.
    pub state_passes: u64,
    /// Wall nanoseconds attributed to this backend's segments.
    pub wall_ns: u64,
}

/// A profiling report aggregated from one recorded trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunProfile {
    /// Per-segment rows, in execution order.
    pub segments: Vec<SegmentProfile>,
    /// Per-backend aggregates, ordered by [`StepperKind::all`].
    pub backends: Vec<BackendProfile>,
    /// Recovery events wrapped in the trace.
    pub recoveries: Vec<RecoveryEvent>,
    /// The execution plan, when the trace contains one.
    pub exec: Option<ExecSpan>,
    /// The compile span, when the trace contains one.
    pub compile: Option<CompileSpan>,
    /// Metrics snapshot at aggregation time.
    pub metrics: MetricsSnapshot,
    /// Events dropped by the recorder's buffer cap.
    pub dropped_events: u64,
}

impl RunProfile {
    /// Aggregates a recorded trace into a profile.
    pub fn from_recorder(recorder: &Recorder) -> RunProfile {
        let mut profile = RunProfile {
            metrics: recorder.metrics().snapshot(),
            dropped_events: recorder.dropped(),
            ..RunProfile::default()
        };
        for event in recorder.events() {
            match event {
                SpanEvent::Segment(span) => profile.segments.push(SegmentProfile {
                    index: span.index,
                    backend: span.backend,
                    duration: span.duration,
                    predicted_applications: span.predicted_applications,
                    applications: span.applications,
                    state_passes: span.state_passes,
                    recovered: span.recovered,
                    wall_ns: span.wall_ns,
                }),
                SpanEvent::Recovery(span) => profile.recoveries.push(span.event.clone()),
                SpanEvent::Exec(span) => profile.exec = Some(*span),
                SpanEvent::Compile(span) => profile.compile = Some(*span),
                SpanEvent::Schedule(_) | SpanEvent::Stepper(_) => {}
            }
        }
        for kind in StepperKind::all() {
            let mut row = BackendProfile {
                backend: kind,
                segments: 0,
                applications: 0,
                state_passes: 0,
                wall_ns: 0,
            };
            for seg in &profile.segments {
                if seg.backend == kind {
                    row.segments += 1;
                    row.applications += seg.applications;
                    row.state_passes += seg.state_passes;
                    row.wall_ns += seg.wall_ns;
                }
            }
            if row.segments > 0 {
                profile.backends.push(row);
            }
        }
        profile
    }

    /// Total kernel applications across all segments.
    pub fn applications(&self) -> u64 {
        self.segments.iter().map(|seg| seg.applications).sum()
    }

    /// Total amplitude passes across all segments (excluding schedule
    /// finalize passes, which live in [`MetricsSnapshot::amplitude_passes`]).
    pub fn state_passes(&self) -> u64 {
        self.segments.iter().map(|seg| seg.state_passes).sum()
    }

    /// Renders the profile as a JSON object (hand-rolled; no external
    /// dependencies).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let m = &self.metrics;
        let _ = write!(
            out,
            "\"metrics\":{{\"segments\":{},\"kernel_applications\":{},\
             \"amplitude_passes\":{},\"recoveries\":{},\"compile_wall_ns\":{},\
             \"evolve_wall_ns\":{},\"pool_busy_ns\":{},\"pool_utilization\":{}}}",
            m.segments,
            m.kernel_applications,
            m.amplitude_passes,
            m.recoveries,
            m.compile_wall_ns,
            m.evolve_wall_ns,
            m.pool_busy_ns,
            json_f64(m.pool_utilization),
        );
        out.push_str(",\"backends\":[");
        for (i, row) in self.backends.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"backend\":\"{}\",\"segments\":{},\"applications\":{},\
                 \"state_passes\":{},\"wall_ns\":{}}}",
                row.backend.name(),
                row.segments,
                row.applications,
                row.state_passes,
                row.wall_ns,
            );
        }
        out.push_str("],\"segments\":[");
        for (i, seg) in self.segments.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let predicted = match seg.predicted_applications {
                Some(value) => json_f64(value),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "{{\"index\":{},\"backend\":\"{}\",\"duration\":{},\
                 \"predicted_applications\":{},\"applications\":{},\
                 \"state_passes\":{},\"recovered\":{},\"wall_ns\":{}}}",
                seg.index,
                seg.backend.name(),
                json_f64(seg.duration),
                predicted,
                seg.applications,
                seg.state_passes,
                seg.recovered,
                seg.wall_ns,
            );
        }
        out.push(']');
        if let Some(exec) = &self.exec {
            let _ = write!(
                out,
                ",\"exec\":{{\"lane_width\":{},\"threads\":{},\"workers\":{},\
                 \"chunks\":{},\"chunk_len\":{},\"dim\":{},\"pool_busy_ns\":{}}}",
                exec.lane_width,
                exec.threads,
                exec.workers,
                exec.chunks,
                exec.chunk_len,
                exec.dim,
                exec.pool_busy_ns,
            );
        }
        if let Some(compile) = &self.compile {
            let _ = write!(
                out,
                ",\"compile\":{{\"segments\":{},\"layouts\":{},\"wall_ns\":{}}}",
                compile.segments, compile.layouts, compile.wall_ns,
            );
        }
        let _ = write!(out, ",\"dropped_events\":{}", self.dropped_events);
        out.push('}');
        out
    }

    /// Renders the profile as a short human-readable summary.
    pub fn summary(&self) -> String {
        let m = &self.metrics;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "run profile: {} segments, {} applications, {} passes, {} recoveries",
            m.segments, m.kernel_applications, m.amplitude_passes, m.recoveries,
        );
        let _ = writeln!(
            out,
            "  compile {:.3} ms | evolve {:.3} ms | pool busy {:.3} ms (utilization {:.2})",
            m.compile_wall_ns as f64 / 1e6,
            m.evolve_wall_ns as f64 / 1e6,
            m.pool_busy_ns as f64 / 1e6,
            m.pool_utilization,
        );
        if let Some(exec) = &self.exec {
            let _ = writeln!(
                out,
                "  exec: {} thread(s), {} chunk(s) of {} amplitudes, lane width {}",
                exec.threads, exec.chunks, exec.chunk_len, exec.lane_width,
            );
        }
        for row in &self.backends {
            let _ = writeln!(
                out,
                "  {:<14} {:>5} seg {:>10} apps {:>10} passes {:>10.3} ms",
                row.backend.name(),
                row.segments,
                row.applications,
                row.state_passes,
                row.wall_ns as f64 / 1e6,
            );
        }
        let (predicted, measured) =
            self.segments.iter().fold((0.0, 0u64), |(p, a), seg| {
                match seg.predicted_applications {
                    Some(value) => (p + value, a + seg.applications),
                    None => (p, a),
                }
            });
        if measured > 0 {
            let _ = writeln!(
                out,
                "  cost model: predicted {:.0} vs measured {} applications ({:+.1}%)",
                predicted,
                measured,
                (predicted / measured as f64 - 1.0) * 100.0,
            );
        }
        if self.dropped_events > 0 {
            let _ = writeln!(
                out,
                "  ({} events dropped at buffer cap)",
                self.dropped_events
            );
        }
        out
    }
}

/// Formats an `f64` as JSON (finite values only; non-finite become `null`).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        let mut text = format!("{value}");
        if !text.contains('.') && !text.contains('e') && !text.contains('E') {
            text.push_str(".0");
        }
        text
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_caps_buffer_and_counts_drops() {
        let mut recorder = Recorder::new();
        for i in 0..(MAX_RECORDED_EVENTS + 10) {
            recorder.record(SpanEvent::Segment(SegmentSpan {
                index: i,
                backend: StepperKind::Taylor,
                duration: 1.0,
                predicted_applications: None,
                applications: 2,
                state_passes: 3,
                recovered: false,
                wall_ns: 5,
            }));
        }
        assert_eq!(recorder.events().len(), MAX_RECORDED_EVENTS);
        assert_eq!(recorder.dropped(), 10);
        // Dropped events still reach the metrics registry.
        assert_eq!(
            recorder.metrics().segments.get(),
            (MAX_RECORDED_EVENTS + 10) as u64
        );
    }

    #[test]
    fn metrics_fold_and_utilization() {
        let mut registry = MetricsRegistry::default();
        registry.observe(&SpanEvent::Segment(SegmentSpan {
            index: 0,
            backend: StepperKind::Taylor,
            duration: 1.0,
            predicted_applications: Some(4.0),
            applications: 4,
            state_passes: 20,
            recovered: false,
            wall_ns: 500,
        }));
        registry.observe(&SpanEvent::Schedule(ScheduleSpan {
            segments: 1,
            executed_segments: 1,
            total_time: 1.0,
            applications: 4,
            state_passes: 23,
            finalize_passes: 3,
            recoveries: 0,
            wall_ns: 1_000,
        }));
        registry.observe(&SpanEvent::Exec(ExecSpan {
            lane_width: 4,
            threads: 2,
            workers: 2,
            chunks: 2,
            chunk_len: 16,
            parallel_threshold_qubits: 4,
            dim: 32,
            pool_busy_ns: 500,
        }));
        let snap = registry.snapshot();
        assert_eq!(snap.amplitude_passes, 23);
        assert_eq!(snap.kernel_applications, 4);
        assert!((snap.pool_utilization - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sans_timing_zeroes_only_wall_fields() {
        let span = SpanEvent::Segment(SegmentSpan {
            index: 3,
            backend: StepperKind::Krylov,
            duration: 0.5,
            predicted_applications: Some(7.0),
            applications: 7,
            state_passes: 40,
            recovered: true,
            wall_ns: 987,
        });
        match span.sans_timing() {
            SpanEvent::Segment(seg) => {
                assert_eq!(seg.wall_ns, 0);
                assert_eq!(seg.applications, 7);
                assert_eq!(seg.index, 3);
                assert!(seg.recovered);
            }
            other => panic!("unexpected variant {other:?}"),
        }
    }

    #[test]
    fn json_render_is_wellformed_ish() {
        let mut recorder = Recorder::new();
        recorder.record(SpanEvent::Segment(SegmentSpan {
            index: 0,
            backend: StepperKind::BatchedTaylor,
            duration: 0.25,
            predicted_applications: Some(12.0),
            applications: 12,
            state_passes: 60,
            recovered: false,
            wall_ns: 10,
        }));
        let profile = RunProfile::from_recorder(&recorder);
        let json = profile.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"backend\":\"batched-taylor\"") || json.contains("batched"));
        assert!(json.contains("\"predicted_applications\":12.0"));
        let summary = profile.summary();
        assert!(summary.contains("run profile"));
    }
}
