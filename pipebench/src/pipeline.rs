//! One program through the user's path: compile → lower → (schedule →
//! noiseless evolve → observables → noisy device sweep), with the output
//! checks, the reference computations and, in the traced run, the per-layer
//! spans and stage replays.
//!
//! Timed regions contain only calls into the layers' public functions.
//! References (ideal target evolution, dense propagation) and checks run
//! before or after them.

use crate::workload::{Program, Workload};
use qturbo::components::{dynamic_instruction_mask, partition};
use qturbo::local_system::{minimal_time_for_instruction, solve_component_at_time};
use qturbo::{CompilationResult, CompilerOptions, GlobalLinearSystem, QTurboCompiler};
use qturbo_aais::{Aais, GeneratorRef};
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString};
use qturbo_quantum::observable::measure_z_zz;
use qturbo_quantum::propagate::{evolve_naive, evolve_piecewise_with};
use qturbo_quantum::{
    CompiledSchedule, EmulatedDevice, EvolveOptions, NoiseModel, Propagator, StateVector,
    StepperKind,
};
use std::time::Instant;

/// Largest tolerated `|lowered duration − execution_time|` (µs).
const DURATION_TOLERANCE: f64 = 1e-9;
/// Largest tolerated deviation of the evolved norm from 1.
const NORM_TOLERANCE: f64 = 1e-10;
/// Largest tolerated fast-path vs dense-reference infidelity.
const NAIVE_INFIDELITY_TOLERANCE: f64 = 1e-10;

/// The options every layer runs with. The defaults are the program's own,
/// except that telemetry is off and the worker count is pinned, so
/// `QTURBO_TRACE` and `QTURBO_THREADS` cannot change what is measured.
#[derive(Debug, Clone)]
pub struct Knobs {
    /// Compiler options.
    pub compiler: CompilerOptions,
    /// Emulator options (noiseless evolve and device sweep).
    pub evolve: EvolveOptions,
}

impl Knobs {
    /// The program's defaults with [`EMULATOR_THREADS`] workers and
    /// telemetry off.
    pub fn defaults() -> Knobs {
        Knobs {
            compiler: CompilerOptions::default(),
            evolve: EvolveOptions::default()
                .with_telemetry(false)
                .with_threads(EMULATOR_THREADS),
        }
    }
}

/// The machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Emulator workers the benchmark pins, the same on every host. One: on a
/// shared two-vCPU host a second worker made `heisenberg_quench`'s 14–15-qubit
/// programs no faster, and its speed then followed whether the host happened
/// to give the benchmark a second core.
pub const EMULATOR_THREADS: usize = 1;

/// One set-up: builds every machine of `workload` and readies the emulator
/// (state buffers faulted in at the largest register). Returns the machines.
pub fn set_up(workload: Workload, knobs: &Knobs) -> Vec<Aais> {
    let machines: Vec<Aais> = workload
        .machine_specs()
        .into_iter()
        .map(|spec| spec.build())
        .collect();
    let n = workload.max_emulated_qubits();
    if n > 0 {
        // One short single-term segment over the full register.
        let mut probe = Hamiltonian::new(n);
        probe.add_term(1.0, PauliString::single(n - 1, Pauli::X));
        let schedule = CompiledSchedule::compile(&[(probe, 1e-3)]);
        let mut state = StateVector::zero_state(n);
        Propagator::with_options(knobs.evolve)
            .try_evolve_schedule_in_place(&schedule, &mut state)
            .unwrap_or_else(|e| panic!("emulator warm-up failed: {e}"));
        std::hint::black_box(&state);
    }
    machines
}

/// Per-layer seconds of one traced program (all zero when untraced, except
/// `compile`, which the end-to-end metrics use).
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// `compile_piecewise`.
    pub compile: f64,
    /// `try_lower`.
    pub lower: f64,
    /// `CompiledSchedule::compile_piecewise`.
    pub schedule: f64,
    /// The noiseless `try_evolve_schedule_in_place`.
    pub evolve: f64,
    /// `measure_z_zz`.
    pub observable: f64,
    /// The noisy `try_run_compiled` sweep.
    pub device: f64,
}

impl Spans {
    /// Sum of every layer span.
    pub fn total(&self) -> f64 {
        self.compile + self.lower + self.schedule + self.evolve + self.observable + self.device
    }
}

/// Stage replays of the compiler on a program's inputs (traced run only).
#[derive(Debug, Clone, Default)]
pub struct StageReplay {
    /// `GlobalLinearSystem::build` + `solve` over every segment.
    pub linear_s: f64,
    /// Rows of the first segment's linear system.
    pub rows: usize,
    /// Columns of the first segment's linear system.
    pub cols: usize,
    /// `minimal_time_for_instruction` over every dynamic instruction of
    /// every segment.
    pub evolution_time_s: f64,
    /// `partition` + `solve_component_at_time` on the fixed components at the
    /// compiled reference time (0 when the program has no fixed work).
    pub fixed_solve_s: f64,
    /// Largest L1 residual of the replayed fixed-component solves.
    pub fixed_residual_max: f64,
}

/// Everything measured and checked for one program.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// The program's label.
    pub label: String,
    /// Register size.
    pub num_qubits: usize,
    /// Wall seconds of the timed region (the whole user path).
    pub wall_s: f64,
    /// Layer spans (only `compile` outside the traced run).
    pub spans: Spans,
    /// The compiler's relative error.
    pub relative_error: f64,
    /// Compiled pulse length (simulated µs).
    pub execution_time: f64,
    /// Local components of the compile.
    pub components: usize,
    /// Δt relaxation steps of the compile.
    pub relaxation_steps: usize,
    /// Whether refinement improved the compile.
    pub refinement_improved: bool,
    /// Placeholder terms lowering padded in.
    pub padded_terms: usize,
    /// Structure runs before padding.
    pub raw_structure_runs: usize,
    /// Mask layouts of the compiled schedule (0 when not emulated).
    pub layouts: usize,
    /// `|Δ⟨Z⟩| + |Δ⟨ZZ⟩|` of the noiseless emulation vs the ideal target
    /// evolution (`None` when not emulated).
    pub obs_error: Option<f64>,
    /// Noiseless-evolve kernel applications.
    pub kernel_applications: u64,
    /// Noiseless-evolve amplitude passes.
    pub state_passes: u64,
    /// Backend chosen for each noiseless-evolve segment.
    pub decisions: Vec<StepperKind>,
    /// Device realizations swept.
    pub realizations: usize,
    /// Device-sweep kernel applications (traced run only).
    pub device_applications: u64,
    /// Recovered mid-schedule failures across the device sweep.
    pub device_recoveries: usize,
    /// Stage replays (traced run only).
    pub replay: Option<StageReplay>,
    /// Failed output checks, each naming the check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// The outputs that must repeat exactly for the same seed.
    pub fn deterministic_outputs(&self) -> (u64, u64, Option<u64>, u64, u64, Vec<StepperKind>) {
        (
            self.relative_error.to_bits(),
            self.execution_time.to_bits(),
            self.obs_error.map(f64::to_bits),
            self.kernel_applications,
            self.state_passes,
            self.decisions.clone(),
        )
    }
}

/// Clock for one layer call: reads the clock only when tracing.
struct SpanClock(Option<Instant>);

impl SpanClock {
    fn start(traced: bool) -> SpanClock {
        SpanClock(traced.then(Instant::now))
    }

    fn stop(self) -> f64 {
        self.0.map_or(0.0, |t| t.elapsed().as_secs_f64())
    }
}

/// Runs one program. `traced` adds the per-layer spans, device telemetry and
/// the stage replays; the end-to-end metrics come from untraced calls.
pub fn run_program(program: &Program, aais: &Aais, knobs: &Knobs, traced: bool) -> Outcome {
    let mut outcome = Outcome {
        label: program.label.clone(),
        num_qubits: program.num_qubits,
        ..Outcome::default()
    };

    // Reference: the ideal target evolution (outside the timed region).
    let ideal = program.emulation.map(|_| {
        let segments: Vec<(Hamiltonian, f64)> = program
            .target
            .segments()
            .iter()
            .map(|s| (s.hamiltonian.clone(), s.duration))
            .collect();
        // The reference keeps the default backend selection, so a variant
        // knob under test cannot move it.
        let state = evolve_piecewise_with(
            &StateVector::zero_state(program.num_qubits),
            &segments,
            EvolveOptions {
                stepper: StepperKind::Auto,
                realization_block: false,
                ..knobs.evolve
            },
        );
        measure_z_zz(&state, program.cyclic)
    });

    let compiler = QTurboCompiler::with_options(knobs.compiler.clone());
    let device_options = knobs.evolve.with_telemetry(traced);
    let mut spans = Spans::default();

    // ---- Timed region: the user's path through the layers. ----
    let started = Instant::now();
    let compile_started = Instant::now();
    let compiled = compiler.compile_piecewise(&program.target, aais);
    spans.compile = compile_started.elapsed().as_secs_f64();
    let result = match compiled {
        Ok(result) => result,
        Err(e) => {
            outcome.wall_s = started.elapsed().as_secs_f64();
            outcome.spans = spans;
            outcome.failures.push(format!("compile returned Err: {e}"));
            return outcome;
        }
    };
    let clock = SpanClock::start(traced);
    let lowered = result.try_lower(aais);
    spans.lower = clock.stop();
    let lowered = match lowered {
        Ok(lowered) => lowered,
        Err(e) => {
            outcome.wall_s = started.elapsed().as_secs_f64();
            outcome.spans = spans;
            outcome
                .failures
                .push(format!("try_lower returned Err: {e}"));
            return outcome;
        }
    };
    let mut emulated = None;
    if let Some(emulation) = program.emulation {
        let clock = SpanClock::start(traced);
        let schedule = CompiledSchedule::compile_piecewise(lowered.piecewise());
        spans.schedule = clock.stop();

        let clock = SpanClock::start(traced);
        let mut propagator = Propagator::with_options(knobs.evolve);
        let mut state = StateVector::zero_state(program.num_qubits);
        let evolved = propagator.try_evolve_schedule_in_place(&schedule, &mut state);
        spans.evolve = clock.stop();

        let clock = SpanClock::start(traced);
        let observed = measure_z_zz(&state, program.cyclic);
        spans.observable = clock.stop();

        let clock = SpanClock::start(traced);
        let runs = EmulatedDevice::new(NoiseModel::aquila_like(), emulation.device_seed)
            .with_options(device_options)
            .try_run_compiled(
                &schedule,
                program.num_qubits,
                program.cyclic,
                emulation.realizations,
            );
        spans.device = clock.stop();
        emulated = Some((
            schedule, propagator, state, evolved, observed, runs, emulation,
        ));
    }
    outcome.wall_s = started.elapsed().as_secs_f64();
    // ---- End of the timed region. ----

    outcome.spans = spans;
    outcome.relative_error = result.relative_error();
    outcome.execution_time = result.execution_time;
    outcome.components = result.stats.num_local_systems;
    outcome.relaxation_steps = result.stats.relaxation_steps;
    outcome.refinement_improved = result.stats.refinement_improved;
    outcome.padded_terms = lowered.padded_terms();
    outcome.raw_structure_runs = lowered.raw_structure_runs();

    let failures = &mut outcome.failures;
    if let Err(e) = result.schedule.validate(aais) {
        failures.push(format!("schedule does not validate: {e}"));
    }
    let duration_gap = (lowered.total_duration() - result.execution_time).abs();
    if duration_gap.is_nan() || duration_gap > DURATION_TOLERANCE {
        failures.push(format!(
            "lowered total_duration {} differs from execution_time {} by {duration_gap}",
            lowered.total_duration(),
            result.execution_time
        ));
    }
    if lowered.structure_runs() != 1 {
        failures.push(format!("structure_runs() = {}", lowered.structure_runs()));
    }

    if let Some((schedule, propagator, state, evolved, observed, runs, emulation)) = emulated {
        outcome.layouts = schedule.num_layouts();
        if schedule.num_layouts() != 1 {
            failures.push(format!("num_layouts() = {}", schedule.num_layouts()));
        }
        if let Err(e) = evolved {
            failures.push(format!("noiseless evolve returned Err: {e}"));
        }
        let norm_gap = (state.norm() - 1.0).abs();
        if norm_gap.is_nan() || norm_gap > NORM_TOLERANCE {
            failures.push(format!("evolved norm deviates from 1 by {norm_gap}"));
        }
        if let Some(ideal) = &ideal {
            outcome.obs_error = Some(
                (observed.z_average() - ideal.z_average()).abs()
                    + (observed.zz_average() - ideal.zz_average()).abs(),
            );
        }
        outcome.kernel_applications = propagator.kernel_applications();
        outcome.state_passes = propagator.state_passes();
        outcome.decisions = propagator.segment_decisions().to_vec();
        outcome.realizations = emulation.realizations;
        match runs {
            Ok(runs) => {
                if runs.len() != emulation.realizations {
                    failures.push(format!(
                        "device swept {} of {} realizations",
                        runs.len(),
                        emulation.realizations
                    ));
                }
                outcome.device_recoveries = runs.iter().map(|r| r.recoveries.len()).sum();
                outcome.device_applications = runs
                    .iter()
                    .filter_map(|r| r.profile.as_ref())
                    .map(|p| p.applications())
                    .sum();
            }
            Err(e) => failures.push(format!("device sweep returned Err: {e}")),
        }
        if emulation.naive_check {
            // Reference: dense propagation of the same lowered segments.
            let mut naive = StateVector::zero_state(program.num_qubits);
            for (hamiltonian, duration) in lowered.hamiltonian_segments() {
                naive = evolve_naive(&naive, &hamiltonian, duration);
            }
            let infidelity = 1.0 - state.fidelity(&naive);
            if infidelity.is_nan() || infidelity >= NAIVE_INFIDELITY_TOLERANCE {
                failures.push(format!("fast path vs evolve_naive infidelity {infidelity}"));
            }
        }
    }

    if traced {
        outcome.replay = Some(replay_stages(program, aais, &result, knobs));
    }
    outcome
}

/// Replays compiler stages 1–3 on the program's inputs through their public
/// entry points, timing each (traced run only).
fn replay_stages(
    program: &Program,
    aais: &Aais,
    result: &CompilationResult,
    knobs: &Knobs,
) -> StageReplay {
    let mut replay = StageReplay::default();
    let segments: Vec<(Hamiltonian, f64)> = program
        .target
        .segments()
        .iter()
        .map(|s| {
            let mapped = result
                .mapping
                .apply(&s.hamiltonian, aais.num_sites())
                .unwrap_or_else(|e| panic!("{}: mapping replay failed: {e}", program.label));
            (mapped, s.duration)
        })
        .collect();

    let started = Instant::now();
    let mut systems = Vec::with_capacity(segments.len());
    let mut alphas = Vec::with_capacity(segments.len());
    for (hamiltonian, duration) in &segments {
        let system = GlobalLinearSystem::build(aais, hamiltonian, *duration)
            .unwrap_or_else(|e| panic!("{}: linear system replay failed: {e}", program.label));
        alphas.push(
            system
                .solve()
                .unwrap_or_else(|e| panic!("{}: linear solve replay failed: {e}", program.label)),
        );
        systems.push(system);
    }
    replay.linear_s = started.elapsed().as_secs_f64();
    replay.rows = systems[0].matrix().rows();
    replay.cols = systems[0].matrix().cols();

    let columns: Vec<GeneratorRef> = systems[0].columns().to_vec();
    let pairs_of = |alpha: &qturbo_math::Vector| -> Vec<(GeneratorRef, f64)> {
        columns
            .iter()
            .enumerate()
            .map(|(k, g)| (*g, alpha[k]))
            .collect()
    };

    let started = Instant::now();
    let dynamic = dynamic_instruction_mask(aais);
    let mut minimal_times = Vec::with_capacity(alphas.len());
    for alpha in &alphas {
        let pairs = pairs_of(alpha);
        let mut minimal = 0.0_f64;
        for (instruction, _) in dynamic.iter().enumerate().filter(|(_, &d)| d) {
            let timing =
                minimal_time_for_instruction(aais, instruction, &pairs, aais.max_evolution_time())
                    .unwrap_or_else(|e| panic!("{}: timing replay failed: {e}", program.label));
            minimal = minimal.max(timing.minimal_time);
        }
        minimal_times.push(minimal.max(knobs.compiler.time_resolution));
    }
    replay.evolution_time_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let components = partition(aais, knobs.compiler.localize);
    let fixed: Vec<_> = components.iter().filter(|c| c.is_fixed()).collect();
    let fixed_columns: Vec<usize> = (0..columns.len())
        .filter(|&k| fixed.iter().any(|c| c.generators.contains(&columns[k])))
        .collect();
    let demand = |i: usize| -> f64 {
        fixed_columns
            .iter()
            .map(|&k| alphas[i][k].abs())
            .fold(0.0_f64, f64::max)
            / minimal_times[i].max(1e-9)
    };
    let has_fixed_work = (0..alphas.len()).any(|i| demand(i) > 0.0);
    if has_fixed_work {
        let reference = (0..alphas.len())
            .max_by(|&a, &b| demand(a).total_cmp(&demand(b)))
            .unwrap_or(0);
        let pairs = pairs_of(&alphas[reference]);
        let time = result.stats.segment_times[reference];
        for component in &fixed {
            let solution = solve_component_at_time(aais, component, &pairs, time, None)
                .unwrap_or_else(|e| panic!("{}: fixed-solve replay failed: {e}", program.label));
            replay.fixed_residual_max = replay.fixed_residual_max.max(solution.residual_l1);
        }
    }
    replay.fixed_solve_s = started.elapsed().as_secs_f64();
    replay
}
