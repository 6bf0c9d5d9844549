//! Quantum-dynamics substrate for the QTurbo reproduction.
//!
//! The paper evaluates compiled pulses with QuTiP/Bloqade (noiseless theory)
//! and on QuEra's Aquila machine (noisy hardware). This crate provides both
//! roles:
//!
//! * [`StateVector`] and the matrix-free propagator in [`propagate`] — exact
//!   Schrödinger evolution under Pauli-sum Hamiltonians, built on the
//!   mask-compiled, allocation-free kernels of [`compiled`] (each Pauli term
//!   an `(x_mask, z_mask, phase)` bit-triple), with one segment routine
//!   behind every evolution,
//! * [`schedule`] — [`CompiledSchedule`], the one compiled form: a piecewise
//!   (time-dependent) Hamiltonian compiled **once** into mask layouts shared
//!   across structure-equal segments, with per-segment `O(#terms)` weight
//!   swaps (and [`CompiledSchedule::scaled_weights`] amplitude-rescaled views
//!   that share the layouts outright); a constant Hamiltonian is its
//!   one-segment case, [`CompiledHamiltonian`],
//! * [`stepper`] — the pluggable time-evolution backends: the Taylor
//!   reference, the batched multi-segment Taylor sweep
//!   ([`stepper::BatchedTaylorStepper`], which chains runs of same-layout
//!   schedule segments with fused low-order passes and one run-end drift
//!   correction), an adaptive Lanczos–Krylov propagator, and a Chebyshev
//!   expansion, selected anywhere via [`StepperKind`] / [`EvolveOptions`] —
//!   with [`StepperKind::Auto`] (the default) pricing the backends per
//!   segment through an [`AutoCostModel`],
//! * [`observable`] — the `Z_avg` / `ZZ_avg` metrics of the paper's §7.4,
//!   evaluated by one fused sweep over the probabilities,
//! * [`device`] — an [`EmulatedDevice`] that runs compiled pulse segments with
//!   a time-proportional noise model and finite measurement shots,
//!   substituting for the real Aquila hardware (see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use qturbo_quantum::{StateVector, propagate::evolve, observable::z_average};
//! use qturbo_hamiltonian::models::ising_chain;
//!
//! let h = ising_chain(3, 1.0, 1.0);
//! let state = evolve(&StateVector::zero_state(3), &h, 0.5);
//! assert!(z_average(&state) < 1.0); // the transverse field rotated the spins
//! ```
//!
//! # Execution
//!
//! Every `H|ψ⟩` kernel application is routed through the [`exec`] layer's
//! [`ExecutionContext`] — worker count and parallel threshold in one `Copy`
//! value carried by [`EvolveOptions`] and stored by every stepper, so one
//! configuration is reused across schedule segments and device noise
//! realizations:
//!
//! * **Pool lifecycle.** Worker threads are spawned once per process on
//!   first parallel use and parked on a condvar between calls
//!   ([`exec::WorkerPool`]); a kernel application above the parallel
//!   threshold costs one lock handshake, not a thread spawn. Below the
//!   threshold everything runs inline on the calling thread — small states
//!   never pay for the pool.
//! * **Lane kernels.** One kernel implementation runs every state: blocks
//!   of four amplitudes in [`exec::F64x8`] registers (portable
//!   fixed-size-array newtypes the autovectorizer lowers to packed
//!   instructions), with a per-amplitude tail loop for states smaller than
//!   one block. Each body is compiled for AVX-512, AVX2 + FMA and the
//!   portable baseline, and runs at the widest ISA the host supports
//!   ([`exec::KernelIsa`], detected at run time; the variants give the same
//!   bits). The naive per-term apply
//!   ([`propagate::apply_hamiltonian_naive`]) is the conformance reference,
//!   pinned to the lane kernels at 1e-12 by the test suite.
//! * **Threshold tuning.** `EvolveOptions::with_threads(n)` /
//!   `QTURBO_THREADS=n` pin the worker count;
//!   [`exec::ExecutionContext::with_parallel_threshold`] moves the
//!   dimension cutoff (default [`compiled::PARALLEL_THRESHOLD_QUBITS`]).
//!   Chunks are lane-aligned and the participant count is recomputed from
//!   the rounded chunk, so over-provisioned thread counts never strand idle
//!   workers.
//! * **Determinism.** For a fixed worker count results are bitwise
//!   reproducible; across worker counts amplitudes agree to round-off
//!   (only the norm reduction order changes), well inside the 1e-10
//!   conformance pin. Fault-injection recovery is thread-count-independent
//!   (`tests/prop_faults.rs` runs its grid under the pool).
//! * **Realization batching.** Device noise sweeps can evolve their
//!   realizations as one structure-of-arrays [`state::RealizationBlock`]
//!   (opt-in via [`EvolveOptions::with_realization_block`]): amplitude
//!   `(j, r)` lives at `j · stride + r` with a lane-aligned stride, so a
//!   [`compiled::BlockKernel`] application reads every mask,
//!   diagonal-table entry, and gather index **once** per basis state for
//!   all realizations, the SIMD lanes running *across* the realization
//!   axis (gathers stay lane-aligned — basis-index XORs never cross
//!   lanes). Coherent miscalibration is rank-1 — every realization scales
//!   the *same* segment weights — so the kernel keeps one shared scalar
//!   weight row plus one unscaled diagonal table and applies the
//!   per-realization scale lane once per accumulated row, forming the
//!   `R × S × T` weight product in-register instead of materializing it;
//!   the sequential per-realization loop remains the 1e-10-pinned
//!   conformance reference (`tests/conformance_device.rs`), and
//!   `bench_device` gates the block path's realizations/sec against it.
//!
//! # Robustness
//!
//! The evolution pipeline is panic-free end to end: every entry point has a
//! fallible `try_*` twin returning [`EvolveError`], and the historical
//! panicking APIs are thin wrappers over them. The taxonomy partitions
//! failures into invalid input, non-finite state, norm drift, inner-solver
//! non-convergence, and Chebyshev order overflow ([`error`] module docs).
//!
//! **Guardrails.** Health checks run at run/segment boundaries and reuse the
//! norms the drift corrections compute anyway, so the happy path pays zero
//! extra amplitude passes (enforced by the `bench_schedule`/`bench_stepper`
//! gates). A relative norm drift beyond
//! [`stepper::NORM_DRIFT_LIMIT`] (1e-6 — six orders above honest round-off)
//! or any NaN/Inf in a series norm trips the guardrail.
//!
//! **Fallback.** When the Krylov or Chebyshev backend fails a guardrail on
//! any segment — a constant Hamiltonian is a one-segment schedule and takes
//! the same path — [`Propagator`] rolls the state back to the segment
//! boundary (both backends are rollback-safe by construction) and retries
//! the segment with the always-works Taylor reference. Each recovery is recorded in a
//! [`RecoveryLog`] — inspect it via [`Propagator::recovery_log`] — and under
//! [`StepperKind::Auto`] the failing backend is demoted for the rest of that
//! schedule.
//!
//! **Fault injection.** The [`fault`] module's seeded
//! [`FaultInjector`] deterministically corrupts
//! amplitudes (NaN/Inf/scale spikes), perturbs spectral bounds, or forces QL
//! non-convergence at chosen segment indices:
//!
//! ```
//! use qturbo_quantum::fault::{Fault, FaultInjector};
//! use qturbo_quantum::propagate::Propagator;
//!
//! let mut propagator = Propagator::new();
//! propagator.set_fault_injector(Some(
//!     FaultInjector::new(7).with_fault(1, Fault::NanAmplitude),
//! ));
//! // ... evolve a schedule; segment 1 is corrupted, detected, rolled back,
//! // and re-run by the Taylor fallback; see propagator.recovery_log().
//! ```
//!
//! The `tests/prop_faults.rs` conformance grid proves every failure class ×
//! every backend either recovers to the 1e-10-correct answer or returns a
//! typed error — never panics, never silently wrong.
//!
//! # Observability
//!
//! The [`telemetry`] module makes the pipeline's invisible decisions —
//! per-segment `Auto` backend choices, batched-run chaining, recovery
//! fallbacks, worker-pool chunk plans — inspectable without reading code.
//!
//! **Enabling.** Telemetry is opt-in and off by default. Turn it on
//! programmatically with [`EvolveOptions::with_telemetry`] or process-wide
//! with the `QTURBO_TRACE` environment variable (any value other than
//! empty or `0`; read once and cached). A traced [`Propagator`] exposes the
//! raw event buffer via [`Propagator::trace`] and an aggregated report via
//! [`Propagator::run_profile`]; [`EmulatedDevice`] attaches a per-realization
//! [`telemetry::RunProfile`] (and always a [`RecoveryLog`]) to every
//! [`DeviceRun`].
//!
//! **Event taxonomy.** One traced evolution emits, in order: a
//! [`telemetry::CompileSpan`] (schedule compile cost), one
//! [`telemetry::SegmentSpan`] per executed segment (backend decision, the
//! cost model's predicted applications vs. the measured count, pass deltas,
//! recovery flag), a [`telemetry::RecoverySpan`] per fallback as it
//! happens, then per-backend [`telemetry::StepperSpan`] counter snapshots,
//! one [`telemetry::ExecSpan`] (lane width, threads, chunk plan, pool busy
//! time), and a closing [`telemetry::ScheduleSpan`] with run totals. The
//! taxonomy is closed and the accounting exact:
//! `Σ segment passes + finalize passes = state_passes`
//! (`tests/conformance_telemetry.rs` proves this for every backend).
//!
//! **Overhead guarantees.** Disabled telemetry is a no-op: one boolean
//! check per evolution call, no allocation, no clock reads in the segment
//! loop, and **no extra amplitude passes** — traced and untraced runs
//! produce bitwise-identical states, and the relative bench gates
//! (batched ≤ Taylor wall, Auto within 10% of best) run with telemetry
//! off, so any accidental hot-path cost fails CI. Enabled telemetry adds
//! two clock reads plus one buffered event per segment (bounded at
//! [`telemetry::MAX_RECORDED_EVENTS`]), and `bench_schedule` additionally
//! gates a traced run against the untraced Taylor wall time.
//!
//! **Realization batching.** A block sweep counts work per realization: one
//! [`compiled::BlockKernel`] application over an `R`-realization block adds
//! `R` to the application counter and `R`-fold pass deltas, so throughput
//! numbers stay comparable with the sequential path. The block stepper
//! reuses the batched-Taylor integration scheme, and its counters fold into
//! the [`StepperKind::BatchedTaylor`] telemetry slot rather than adding a
//! backend of their own.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod compiled;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod observable;
pub mod propagate;
pub mod schedule;
pub mod state;
pub mod stepper;
pub mod telemetry;

pub use compiled::{CompiledHamiltonian, CompiledTerm};
pub use device::{ideal_run, DeviceRun, EmulatedDevice, NoiseModel};
pub use error::{EvolveError, RecoveryEvent, RecoveryLog};
pub use exec::ExecutionContext;
pub use fault::{Fault, FaultInjector};
pub use observable::DiagonalObservables;
pub use propagate::Propagator;
pub use schedule::CompiledSchedule;
pub use state::{RealizationBlock, StateVector};
pub use stepper::{AutoCostModel, EvolveOptions, SpectralBound, Stepper, StepperKind};
pub use telemetry::{MetricsRegistry, MetricsSnapshot, Recorder, RunProfile, SpanEvent, TraceSink};
