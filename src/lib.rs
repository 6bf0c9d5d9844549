//! Facade crate for the QTurbo reproduction workspace.
//!
//! Re-exports every workspace crate under one name so integration tests,
//! examples, and downstream users can depend on `qturbo-repro` alone:
//!
//! * [`compiler`] — the core QTurbo compiler pipeline (crate `qturbo`),
//! * [`math`] — numerical kernels ([`qturbo_math`]),
//! * [`hamiltonian`] — Pauli strings, targets, models ([`qturbo_hamiltonian`]),
//! * [`aais`] — analog instruction sets and pulse schedules ([`qturbo_aais`]),
//! * [`quantum`] — the state-vector simulator with the mask-compiled
//!   propagation engine ([`qturbo_quantum`]),
//! * [`baseline`] — the SimuQ-style baseline compiler ([`qturbo_baseline`]),
//! * [`mod@bench`] — the benchmark harness ([`qturbo_bench`]).
//!
//! # End-to-end: compile, lower, emulate
//!
//! The full compiler-in-the-loop path goes target Hamiltonian → pulse
//! schedule ([`compiler::QTurboCompiler::compile`]) → lowered piecewise
//! Hamiltonian ([`aais::lowering`], which pads every segment so the whole
//! pulse shares one term structure) → mask-compiled schedule
//! ([`quantum::CompiledSchedule::compile_piecewise`]) → fast-path evolution
//! and observables. Every stage has a fallible `try_*` twin returning a
//! typed error, so invalid programs or machines are reported instead of
//! panicking:
//!
//! ```
//! use qturbo_repro::aais::heisenberg::{heisenberg_aais, HeisenbergOptions};
//! use qturbo_repro::compiler::QTurboCompiler;
//! use qturbo_repro::hamiltonian::models::ising_chain;
//! use qturbo_repro::quantum::observable::z_average;
//! use qturbo_repro::quantum::propagate::{evolve, evolve_schedule};
//! use qturbo_repro::quantum::{CompiledSchedule, StateVector};
//!
//! let target = ising_chain(3, 1.0, 1.0);
//! let aais = heisenberg_aais(3, &HeisenbergOptions::default());
//!
//! // Compile the target onto the machine, then lower the pulse schedule
//! // into the emulator's representation. Both steps return typed errors
//! // on invalid inputs (`CompileError`, `AaisError`).
//! let result = QTurboCompiler::new().compile(&target, 1.0, &aais)?;
//! let lowered = result.try_lower(&aais)?;
//!
//! // Lowering pads drive-off segments with zero-coefficient placeholders,
//! // so the whole pulse mask-compiles into a single shared layout.
//! let schedule = CompiledSchedule::compile_piecewise(lowered.piecewise());
//! assert_eq!(schedule.num_layouts(), 1);
//!
//! // Run the compiled pulse on the fast path and compare observables
//! // against the ideal target evolution.
//! let initial = StateVector::zero_state(3);
//! let ideal = evolve(&initial, &target, 1.0);
//! let compiled = evolve_schedule(&initial, &schedule);
//! assert!((z_average(&ideal) - z_average(&compiled)).abs() < 1e-6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The noisy variant of the last step is
//! [`quantum::EmulatedDevice::run_compiled`], which sweeps the same
//! compiled schedule over noise realizations. Miscalibration scales the
//! whole pulse, so a one-segment pulse's realizations lie on one trajectory
//! and each continues from the last by its scale difference; a pulse of
//! several segments restarts each realization from `|0⟩`. `cargo run --release
//! --example ising_cycle_aquila` shows the full QTurbo-vs-baseline
//! comparison on an Aquila-like device, and `tests/conformance_e2e.rs` plus
//! the `bench_e2e` binary gate this pipeline per scenario cell in CI.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use qturbo as compiler;
pub use qturbo_aais as aais;
pub use qturbo_baseline as baseline;
pub use qturbo_bench as bench;
pub use qturbo_hamiltonian as hamiltonian;
pub use qturbo_math as math;
pub use qturbo_quantum as quantum;
