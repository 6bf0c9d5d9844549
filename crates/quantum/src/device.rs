//! Emulated analog quantum device with a phenomenological noise model.
//!
//! The paper's §7.4 experiments run compiled pulses on QuEra's Aquila machine
//! and compare against noiseless theory curves. We do not have the physical
//! device, so this module provides the substitution documented in DESIGN.md:
//! a state-vector execution of the compiled pulse plus a noise model whose
//! strength grows with the machine execution time. That reproduces the
//! mechanism the paper exploits — shorter compiled pulses suffer less
//! decoherence and land closer to the theoretical prediction.
//!
//! Noise channels emulated:
//!
//! * **Coherent amplitude miscalibration** — each run scales the programmed
//!   Hamiltonian by `1 + ε` with `ε` drawn once per run; the accumulated phase
//!   error grows with execution time.
//! * **Depolarizing decay** — expectation values of weight-`w` observables are
//!   damped by `exp(−γ·w·T_exec)`.
//! * **Readout error** — each measured qubit flips with a small probability,
//!   damping a weight-`w` observable by `(1 − 2p)^w`.
//! * **Shot noise** — observables are estimated from a finite number of
//!   Bernoulli samples (1000 shots in the paper).

use crate::error::{EvolveError, RecoveryLog};
use crate::observable::measure_z_zz;
use crate::propagate::Propagator;
use crate::schedule::CompiledSchedule;
use crate::state::{RealizationBlock, StateVector};
use crate::stepper::EvolveOptions;
use crate::telemetry::RunProfile;
use qturbo_hamiltonian::Hamiltonian;
use qturbo_math::rng::Rng;

/// Cap on the amplitudes of **one** realization-block buffer
/// (`dim × tile`), sizing the block sweep's realization tiles. The block
/// Taylor path keeps three such buffers alive (the block plus two series
/// scratches); `2^17` amplitudes keeps that working set small enough to
/// stay cache-resident on commodity parts at mid-size registers, so the SoA
/// sweep keeps its read-amortization win instead of going DRAM-bound.
const MAX_BLOCK_TILE_AMPS: usize = 1 << 17;

/// Floor on realizations per tile: two full lane blocks, so the kernel's
/// paired-lane path (one evaluation of each row's scalar work driving
/// 2 × [`crate::exec::LANE_WIDTH`] realization lanes) engages even at the
/// largest registers, where [`MAX_BLOCK_TILE_AMPS`] alone would shrink
/// tiles to a single lane. At 16 qubits the row-scalar amortization is
/// worth more than the last level of cache residency.
const MIN_BLOCK_TILE: usize = 2 * crate::exec::LANE_WIDTH;

/// Ceiling on realizations per tile: past ~four lane pairs the row-scalar
/// amortization has flattened while the tile working set keeps growing, so
/// wider sweeps only dilute cache residency at small registers.
const MAX_BLOCK_TILE: usize = 4 * MIN_BLOCK_TILE;

/// Phenomenological noise parameters of the emulated device.
///
/// The fields are public for struct-literal construction, so the bounds
/// below are enforced by [`NoiseModel::validate`] at the point of use
/// (every `run*` entry point of [`EmulatedDevice`]) rather than at
/// construction — an out-of-range value panics loudly instead of silently
/// corrupting the physics (a `readout_error > ½` would *flip* observable
/// signs through `(1 − 2p)^w`; a negative `depolarizing_rate` would amplify
/// instead of damp).
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseModel {
    /// Depolarizing rate `γ` per unit time and unit observable weight.
    /// Must be finite and `≥ 0` (negative rates would *amplify*
    /// expectation values through `exp(−γ·w·T)`).
    pub depolarizing_rate: f64,
    /// Relative standard deviation of the per-run Hamiltonian scale error.
    /// Must be finite and `≥ 0`.
    pub amplitude_miscalibration: f64,
    /// Per-qubit readout bit-flip probability. Must lie in `[0, ½]`: the
    /// damping factor `(1 − 2p)^w` crosses zero at `p = ½`, and beyond it a
    /// weight-1 observable would come back *sign-flipped* — a physically
    /// meaningless "readout error" that silently corrupts every `Z`/`ZZ`
    /// estimate. `p = ½` itself is legal (total depolarization of the
    /// readout: every observable damps to exactly `0`).
    pub readout_error: f64,
    /// Number of measurement shots; `None` reports exact (infinite-shot)
    /// expectation values. `Some(0)` is **rejected** by
    /// [`validate`](NoiseModel::validate): zero shots estimates nothing — an
    /// earlier revision reported it noisy through
    /// [`is_noiseless`](NoiseModel::is_noiseless) yet silently treated it as
    /// exact (infinite shots) in the estimator, and either reading is a trap
    /// for a caller who meant `None`.
    pub shots: Option<usize>,
}

impl NoiseModel {
    /// No noise at all: the emulator then plays the role of QuTiP/Bloqade
    /// ("TH", "QTurbo (TH)", "SimuQ (TH)" curves in Fig. 6).
    pub fn noiseless() -> Self {
        NoiseModel {
            depolarizing_rate: 0.0,
            amplitude_miscalibration: 0.0,
            readout_error: 0.0,
            shots: None,
        }
    }

    /// Noise magnitudes representative of a neutral-atom analog machine: a
    /// coherence-limited decay on the microsecond scale, percent-level
    /// amplitude miscalibration, 1% readout error, 1000 shots.
    pub fn aquila_like() -> Self {
        NoiseModel {
            depolarizing_rate: 0.25,
            amplitude_miscalibration: 0.05,
            readout_error: 0.01,
            shots: Some(1000),
        }
    }

    /// Returns `true` when every noise channel is disabled.
    pub fn is_noiseless(&self) -> bool {
        self.depolarizing_rate == 0.0
            && self.amplitude_miscalibration == 0.0
            && self.readout_error == 0.0
            && self.shots.is_none()
    }

    /// Panics unless every field is within its documented physical range:
    /// `depolarizing_rate ≥ 0`, `amplitude_miscalibration ≥ 0` (both
    /// finite), `readout_error ∈ [0, ½]`, and `shots ≠ Some(0)`.
    ///
    /// Called by every [`EmulatedDevice`] `run*` entry point, so a
    /// hand-built out-of-range model fails loudly before it can flip
    /// observable signs (`readout_error > ½`), amplify instead of damp
    /// (negative `depolarizing_rate`), or silently pretend zero shots are
    /// infinitely many (`Some(0)`).
    pub fn validate(&self) {
        if let Err(error) = self.try_validate() {
            panic!("{error}");
        }
    }

    /// Fallible variant of [`validate`](NoiseModel::validate): reports an
    /// out-of-range field as [`EvolveError::InvalidInput`] instead of
    /// panicking.
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] naming the offending field.
    pub fn try_validate(&self) -> Result<(), EvolveError> {
        let invalid = |context: String| Err(EvolveError::InvalidInput { context });
        if !(self.depolarizing_rate.is_finite() && self.depolarizing_rate >= 0.0) {
            return invalid(format!(
                "depolarizing_rate must be finite and non-negative, got {}",
                self.depolarizing_rate
            ));
        }
        if !(self.amplitude_miscalibration.is_finite() && self.amplitude_miscalibration >= 0.0) {
            return invalid(format!(
                "amplitude_miscalibration must be finite and non-negative, got {}",
                self.amplitude_miscalibration
            ));
        }
        if !(self.readout_error.is_finite() && (0.0..=0.5).contains(&self.readout_error)) {
            return invalid(format!(
                "readout_error must lie in [0, 0.5] ((1 - 2p)^w flips signs past 0.5), got {}",
                self.readout_error
            ));
        }
        if self.shots == Some(0) {
            return invalid(
                "shots = Some(0) estimates nothing; use None for exact expectation values"
                    .to_string(),
            );
        }
        Ok(())
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::noiseless()
    }
}

/// Result of one emulated device run.
#[derive(Debug, Clone)]
pub struct DeviceRun {
    /// Estimated `⟨Z_i⟩` per qubit.
    pub z: Vec<f64>,
    /// Estimated `⟨Z_i Z_{i+1}⟩` per adjacent pair.
    pub zz: Vec<f64>,
    /// Total machine execution time of the run.
    pub execution_time: f64,
    /// Mid-schedule failures recovered during **this realization**'s
    /// evolution (guardrail trip → Taylor fallback). Empty on every
    /// healthy run; earlier revisions discarded the propagator's log, so
    /// noisy-device callers could not see that fallbacks happened.
    pub recoveries: RecoveryLog,
    /// Per-realization telemetry profile, present when the device's
    /// [`EvolveOptions`] enable telemetry (see [`crate::telemetry`]).
    pub profile: Option<RunProfile>,
}

/// Equality deliberately ignores [`profile`](DeviceRun::profile): the
/// profile carries wall-clock timings, which would break the exact
/// reproducibility contract (`run` twice with one seed ⇒ equal results)
/// the device tests pin. Observables, execution time, and the (fully
/// deterministic) recovery log all participate.
impl PartialEq for DeviceRun {
    fn eq(&self, other: &Self) -> bool {
        self.z == other.z
            && self.zz == other.zz
            && self.execution_time == other.execution_time
            && self.recoveries == other.recoveries
    }
}

impl DeviceRun {
    /// `Z_avg` over all qubits (paper §7.4: `(1/N) Σ_i ⟨Z_i⟩`).
    pub fn z_average(&self) -> f64 {
        mean(&self.z)
    }

    /// `ZZ_avg` over the measured adjacent bonds (paper §7.4), divided by
    /// the **bond count** — `N − 1` on an open chain, `N` on a ring with
    /// `n ≥ 3` — matching [`crate::observable::zz_average`], not by the
    /// qubit count `N`.
    pub fn zz_average(&self) -> f64 {
        mean(&self.zz)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// An emulated analog quantum device.
#[derive(Debug, Clone)]
pub struct EmulatedDevice {
    noise: NoiseModel,
    seed: u64,
    options: EvolveOptions,
}

impl EmulatedDevice {
    /// Creates a device with the given noise model and RNG seed (default
    /// evolution options — [`crate::StepperKind::Auto`], which picks the
    /// cheapest backend per schedule segment).
    pub fn new(noise: NoiseModel, seed: u64) -> Self {
        EmulatedDevice {
            noise,
            seed,
            options: EvolveOptions::default(),
        }
    }

    /// A noiseless reference device (the "theory" curves).
    pub fn ideal() -> Self {
        EmulatedDevice::new(NoiseModel::noiseless(), 0)
    }

    /// Selects the time-evolution backend (and tolerance) the device runs
    /// its state-vector execution with — including the options'
    /// [`crate::ExecutionContext`] (worker count, parallel threshold, kernel
    /// path), which the one [`Propagator`] built per sweep reuses across
    /// **every** noise realization: the worker pool is warmed once, not per
    /// realization.
    pub fn with_options(mut self, options: EvolveOptions) -> Self {
        self.options = options;
        self
    }

    /// The configured noise model.
    pub fn noise(&self) -> &NoiseModel {
        &self.noise
    }

    /// The configured evolution options.
    pub fn options(&self) -> EvolveOptions {
        self.options
    }

    /// Executes a sequence of `(Hamiltonian, duration)` segments starting from
    /// `|0…0⟩` and measures the `Z`/`ZZ` observables.
    ///
    /// `cyclic` controls whether the wrap-around `ZZ` bond is measured; the
    /// bonds follow the deduplicated [`crate::observable::zz_pairs`]
    /// semantics (no wrap-around for fewer than 3 qubits). The segments are
    /// compiled into a layout-sharing [`CompiledSchedule`] (compiled pulse
    /// schedules reuse a handful of term structures across segments), and
    /// both observable families come from the single fused sweep of
    /// [`measure_z_zz`].
    ///
    /// For noise sweeps over many realizations, use
    /// [`run_realizations`](EmulatedDevice::run_realizations) (or
    /// [`run_compiled`](EmulatedDevice::run_compiled) with a schedule you
    /// compiled yourself): the schedule is compiled **once** and every
    /// realization reuses its mask layouts through
    /// [`CompiledSchedule::scaled_weights`].
    ///
    /// # Panics
    ///
    /// Panics on the failures [`try_run`](EmulatedDevice::try_run) reports
    /// as errors.
    pub fn run(
        &self,
        segments: &[(Hamiltonian, f64)],
        num_qubits: usize,
        cyclic: bool,
    ) -> DeviceRun {
        self.try_run(segments, num_qubits, cyclic)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Fallible variant of [`run`](EmulatedDevice::run).
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] for an out-of-range noise model, an
    /// empty segment list, a negative or non-finite segment duration, or a
    /// schedule wider than the register; any [`EvolveError`] of the
    /// underlying evolution.
    pub fn try_run(
        &self,
        segments: &[(Hamiltonian, f64)],
        num_qubits: usize,
        cyclic: bool,
    ) -> Result<DeviceRun, EvolveError> {
        // Evolve realization 0 directly — no realization `Vec` to pop, so
        // the historical `unreachable!` (the last panicking site in the
        // realization path) is gone by construction.
        let schedule = CompiledSchedule::try_compile(segments)?;
        let execution_time = self.try_prepare(&schedule)?;
        let mut propagator = Propagator::with_options(self.options);
        self.run_realization(
            &schedule,
            num_qubits,
            cyclic,
            execution_time,
            &mut propagator,
            0,
        )
    }

    /// [`run`](EmulatedDevice::run) repeated over `realizations` independent
    /// noise draws, compiling the schedule **once**. Realization `0`
    /// reproduces [`run`](EmulatedDevice::run) exactly; realization `r`
    /// draws from an independent stream obtained by SplitMix64-mixing the
    /// device seed with `r` ([`Rng::seed_from_pair`]) — the historical
    /// additive `seed + r` composition made *distinct* device seeds share
    /// realization streams (seed `s`, realization `r` replayed seed `s + 1`,
    /// realization `r − 1`).
    ///
    /// # Panics
    ///
    /// Panics on the failures
    /// [`try_run_realizations`](EmulatedDevice::try_run_realizations)
    /// reports as errors.
    pub fn run_realizations(
        &self,
        segments: &[(Hamiltonian, f64)],
        num_qubits: usize,
        cyclic: bool,
        realizations: usize,
    ) -> Vec<DeviceRun> {
        self.try_run_realizations(segments, num_qubits, cyclic, realizations)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Fallible variant of
    /// [`run_realizations`](EmulatedDevice::run_realizations).
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] for a negative or non-finite segment
    /// duration; otherwise see
    /// [`try_run_compiled`](EmulatedDevice::try_run_compiled).
    pub fn try_run_realizations(
        &self,
        segments: &[(Hamiltonian, f64)],
        num_qubits: usize,
        cyclic: bool,
        realizations: usize,
    ) -> Result<Vec<DeviceRun>, EvolveError> {
        let schedule = CompiledSchedule::try_compile(segments)?;
        self.try_run_compiled(&schedule, num_qubits, cyclic, realizations)
    }

    /// Runs a pre-compiled schedule over `realizations` independent noise
    /// draws.
    ///
    /// The per-run coherent amplitude miscalibration rescales every
    /// coefficient by one global factor, which leaves the term structure
    /// untouched — so each realization is a
    /// [`CompiledSchedule::scaled_weights`] view sharing `schedule`'s mask
    /// layouts, and the structural compile work is paid exactly once however
    /// many realizations are swept. One [`Propagator`] (with the device's
    /// [`EvolveOptions`]) carries its scratch buffers across all of them.
    ///
    /// When the device's options request realization batching
    /// ([`EvolveOptions::with_realization_block`]) and more than one
    /// realization is swept, the realizations evolve together as
    /// structure-of-arrays [`RealizationBlock`] tiles — every mask,
    /// diagonal-table entry, and gather index is read once per basis state
    /// for all realizations in a tile — and agree with the per-realization
    /// reference path to 1e-10 (the conformance grid in
    /// `tests/conformance_device.rs` pins this for every stepper kind).
    ///
    /// # Panics
    ///
    /// Panics on the failures
    /// [`try_run_compiled`](EmulatedDevice::try_run_compiled) reports as
    /// errors.
    pub fn run_compiled(
        &self,
        schedule: &CompiledSchedule,
        num_qubits: usize,
        cyclic: bool,
        realizations: usize,
    ) -> Vec<DeviceRun> {
        self.try_run_compiled(schedule, num_qubits, cyclic, realizations)
            .unwrap_or_else(|error| panic!("{error}"))
    }

    /// Fallible variant of [`run_compiled`](EmulatedDevice::run_compiled).
    ///
    /// # Errors
    ///
    /// [`EvolveError::InvalidInput`] if the noise model fails
    /// [`NoiseModel::try_validate`], the schedule has no segments (a device
    /// run of nothing measures nothing — callers wanting an identity
    /// evolution say so with a zero-duration segment), or the schedule acts
    /// on more than `num_qubits` qubits; otherwise any [`EvolveError`] of
    /// the underlying schedule evolution.
    pub fn try_run_compiled(
        &self,
        schedule: &CompiledSchedule,
        num_qubits: usize,
        cyclic: bool,
        realizations: usize,
    ) -> Result<Vec<DeviceRun>, EvolveError> {
        let execution_time = self.try_prepare(schedule)?;
        if self.options.realization_block && realizations > 1 {
            return self.try_run_compiled_block(
                schedule,
                num_qubits,
                cyclic,
                realizations,
                execution_time,
            );
        }
        let mut propagator = Propagator::with_options(self.options);
        (0..realizations)
            .map(|realization| {
                self.run_realization(
                    schedule,
                    num_qubits,
                    cyclic,
                    execution_time,
                    &mut propagator,
                    realization,
                )
            })
            .collect()
    }

    /// Shared entry validation of every run: noise-model range checks and
    /// the non-empty-schedule rule. Returns the machine execution time.
    fn try_prepare(&self, schedule: &CompiledSchedule) -> Result<f64, EvolveError> {
        self.noise.try_validate()?;
        if schedule.num_segments() == 0 {
            return Err(EvolveError::InvalidInput {
                context: "empty schedules cannot be run on a device (no pulse to execute)"
                    .to_string(),
            });
        }
        Ok(schedule.total_time())
    }

    /// The RNG stream of one noise realization: the device seed
    /// SplitMix64-mixed with the realization index, so distinct device
    /// seeds never share streams (the additive `seed + r` composition
    /// aliased seed `s`, realization `r` onto seed `s + 1`, realization
    /// `r − 1`).
    fn realization_rng(&self, realization: usize) -> Rng {
        Rng::seed_from_pair(self.seed, realization as u64)
    }

    /// Draws this realization's coherent amplitude-miscalibration scale —
    /// or returns exactly `1.0`, **without touching the RNG**, when the
    /// channel is disabled. The branch is on the noise model, not on the
    /// drawn value: a Gaussian draw that happens to land on `1.0` still
    /// takes the scaled-weights path every other realization took (the
    /// historical `scale == 1.0` float test silently skipped it).
    fn draw_scale(&self, rng: &mut Rng) -> f64 {
        if self.miscalibration_enabled() {
            1.0 + rng.next_gaussian() * self.noise.amplitude_miscalibration
        } else {
            1.0
        }
    }

    /// Whether the coherent amplitude-miscalibration channel is active —
    /// the explicit branch both run paths key the scale draw off.
    fn miscalibration_enabled(&self) -> bool {
        self.noise.amplitude_miscalibration > 0.0
    }

    /// Evolves and measures **one** noise realization against a shared
    /// propagator: the unit of the sequential (per-realization) reference
    /// path, and the direct body of [`try_run`](EmulatedDevice::try_run).
    fn run_realization(
        &self,
        schedule: &CompiledSchedule,
        num_qubits: usize,
        cyclic: bool,
        execution_time: f64,
        propagator: &mut Propagator,
        realization: usize,
    ) -> Result<DeviceRun, EvolveError> {
        let mut rng = self.realization_rng(realization);

        // Coherent amplitude miscalibration: one scale error per run.
        let scaled;
        let effective = if self.miscalibration_enabled() {
            scaled = schedule.try_scaled_weights(self.draw_scale(&mut rng))?;
            &scaled
        } else {
            schedule
        };

        let mut final_state = StateVector::zero_state(num_qubits);
        // The propagator's recovery log accumulates across the
        // sweep; remember where this realization starts so its own
        // events can be sliced out below.
        let recoveries_before = propagator.recovery_log().len();
        propagator.try_evolve_schedule_in_place(effective, &mut final_state)?;
        let recoveries =
            RecoveryLog::from_events(&propagator.recovery_log().events()[recoveries_before..]);
        // Draining resets the recorder, so each realization's
        // profile covers exactly its own evolution.
        let profile = propagator
            .drain_trace()
            .as_ref()
            .map(RunProfile::from_recorder);

        Ok(self.measure_run(
            &final_state,
            cyclic,
            execution_time,
            recoveries,
            profile,
            &mut rng,
        ))
    }

    /// Converts a final state into a [`DeviceRun`]: damps the exact
    /// observables by the depolarizing and readout channels, then applies
    /// finite-shot estimation. Shared by the sequential and block paths so
    /// both consume the realization RNG in the identical order (scale draw
    /// first, then estimation draws).
    fn measure_run(
        &self,
        final_state: &StateVector,
        cyclic: bool,
        execution_time: f64,
        recoveries: RecoveryLog,
        profile: Option<RunProfile>,
        rng: &mut Rng,
    ) -> DeviceRun {
        let damp = |weight: f64| {
            let depolarizing = (-self.noise.depolarizing_rate * weight * execution_time).exp();
            let readout = (1.0 - 2.0 * self.noise.readout_error).powf(weight);
            depolarizing * readout
        };

        let observables = measure_z_zz(final_state, cyclic);
        let z: Vec<f64> = observables
            .z
            .into_iter()
            .map(|e| self.estimate(e * damp(1.0), rng))
            .collect();
        let zz: Vec<f64> = observables
            .zz
            .into_iter()
            .map(|e| self.estimate(e * damp(2.0), rng))
            .collect();

        DeviceRun {
            z,
            zz,
            execution_time,
            recoveries,
            profile,
        }
    }

    /// The structure-of-arrays sweep behind
    /// [`EvolveOptions::with_realization_block`]: every realization's scale
    /// is drawn first (in realization order, so the per-stream RNG draw
    /// sequence matches the sequential path exactly), then realizations are
    /// evolved as lane-aligned [`RealizationBlock`]s — masks, diagonal
    /// tables, and gather indices read once per basis state for **all**
    /// realizations in a block — and finally measured per realization with
    /// the same RNGs.
    ///
    /// Blocks are tiled: a tile of realizations small enough to keep the
    /// three block buffers cache-resident is evolved at a time (at most
    /// [`MAX_BLOCK_TILE_AMPS`] amplitudes per buffer), which preserves the
    /// SoA read-amortization win without turning the sweep DRAM-bound at
    /// large registers.
    fn try_run_compiled_block(
        &self,
        schedule: &CompiledSchedule,
        num_qubits: usize,
        cyclic: bool,
        realizations: usize,
        execution_time: f64,
    ) -> Result<Vec<DeviceRun>, EvolveError> {
        let mut propagator = Propagator::with_options(self.options);
        let mut rngs: Vec<Rng> = (0..realizations).map(|r| self.realization_rng(r)).collect();
        let scales: Vec<f64> = rngs.iter_mut().map(|rng| self.draw_scale(rng)).collect();

        let dim = 1usize << num_qubits;
        let tile = (MAX_BLOCK_TILE_AMPS / dim.max(1))
            .clamp(MIN_BLOCK_TILE, MAX_BLOCK_TILE)
            .min(realizations.next_multiple_of(crate::exec::LANE_WIDTH));

        let mut runs = Vec::with_capacity(realizations);
        let mut start = 0usize;
        while start < realizations {
            let count = tile.min(realizations - start);
            let mut block = RealizationBlock::zero_states(num_qubits, count);
            let recoveries_before = propagator.recovery_log().len();
            propagator.try_evolve_schedule_block(
                schedule,
                &mut block,
                &scales[start..start + count],
            )?;
            let recoveries =
                RecoveryLog::from_events(&propagator.recovery_log().events()[recoveries_before..]);
            let profile = propagator
                .drain_trace()
                .as_ref()
                .map(RunProfile::from_recorder);
            for r in 0..count {
                let final_state = block.extract(r);
                runs.push(self.measure_run(
                    &final_state,
                    cyclic,
                    execution_time,
                    recoveries.clone(),
                    profile.clone(),
                    &mut rngs[start + r],
                ));
            }
            start += count;
        }
        Ok(runs)
    }

    /// Converts an exact expectation value into a finite-shot estimate.
    /// `Some(0)` is unreachable here — [`NoiseModel::validate`] rejects it
    /// before any estimation happens (an earlier revision silently treated
    /// it as exact, contradicting `is_noiseless`).
    fn estimate(&self, expectation: f64, rng: &mut Rng) -> f64 {
        match self.noise.shots {
            None => expectation,
            Some(shots) => {
                assert!(shots > 0, "Some(0) shots is rejected by validate()");
                let probability_plus = ((1.0 + expectation) / 2.0).clamp(0.0, 1.0);
                let mut plus_count = 0usize;
                for _ in 0..shots {
                    if rng.next_f64() < probability_plus {
                        plus_count += 1;
                    }
                }
                2.0 * plus_count as f64 / shots as f64 - 1.0
            }
        }
    }
}

/// Convenience: run the segments on a noiseless device.
pub fn ideal_run(segments: &[(Hamiltonian, f64)], num_qubits: usize, cyclic: bool) -> DeviceRun {
    EmulatedDevice::ideal().run(segments, num_qubits, cyclic)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qturbo_hamiltonian::{Pauli, PauliString};

    fn rabi_segment(num_qubits: usize, omega: f64, duration: f64) -> (Hamiltonian, f64) {
        let mut h = Hamiltonian::new(num_qubits);
        for i in 0..num_qubits {
            h.add_term(omega / 2.0, PauliString::single(i, Pauli::X));
        }
        (h, duration)
    }

    #[test]
    fn ideal_run_matches_analytic_rabi() {
        // ⟨Z⟩(t) = cos(Ω t) for each qubit under a global Rabi drive.
        let omega = 2.0;
        let t = 0.4;
        let run = ideal_run(&[rabi_segment(3, omega, t)], 3, false);
        for z in &run.z {
            assert!((z - (omega * t).cos()).abs() < 1e-8);
        }
        for zz in &run.zz {
            assert!((zz - (omega * t).cos().powi(2)).abs() < 1e-8);
        }
        assert!((run.execution_time - t).abs() < 1e-15);
        assert!((run.z_average() - (omega * t).cos()).abs() < 1e-8);
    }

    #[test]
    fn noiseless_model_is_detected() {
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(!NoiseModel::aquila_like().is_noiseless());
        assert!(NoiseModel::default().is_noiseless());
    }

    #[test]
    fn depolarizing_damps_towards_zero_with_time() {
        let noise = NoiseModel {
            depolarizing_rate: 0.5,
            amplitude_miscalibration: 0.0,
            readout_error: 0.0,
            shots: None,
        };
        let device = EmulatedDevice::new(noise, 1);
        // Identity evolution: the ideal Z expectation stays 1, so the noisy
        // value is exactly the damping factor.
        let idle = (Hamiltonian::new(2), 1.0);
        let short = device.run(&[(idle.0.clone(), 0.5)], 2, false);
        let long = device.run(&[idle], 2, false);
        assert!(short.z_average() > long.z_average());
        assert!((short.z_average() - (-0.5_f64 * 0.5).exp()).abs() < 1e-12);
        assert!((long.z_average() - (-0.5_f64).exp()).abs() < 1e-12);
        // Weight-2 observables are damped twice as fast.
        assert!((long.zz_average() - (-(2.0_f64 * 0.5)).exp()).abs() < 1e-12);
    }

    #[test]
    fn shot_noise_is_unbiased_but_fluctuates() {
        let noise = NoiseModel {
            depolarizing_rate: 0.0,
            amplitude_miscalibration: 0.0,
            readout_error: 0.0,
            shots: Some(400),
        };
        let device = EmulatedDevice::new(noise, 7);
        let run = device.run(&[rabi_segment(1, 2.0, 0.3)], 1, false);
        let exact = (2.0_f64 * 0.3).cos();
        // 400 shots => standard error about 0.05; allow 5 sigma.
        assert!((run.z[0] - exact).abs() < 0.25);
        // Same seed, same result (deterministic reproduction).
        let rerun = device.run(&[rabi_segment(1, 2.0, 0.3)], 1, false);
        assert_eq!(run, rerun);
    }

    #[test]
    fn readout_error_shrinks_magnitudes() {
        let noise = NoiseModel {
            depolarizing_rate: 0.0,
            amplitude_miscalibration: 0.0,
            readout_error: 0.05,
            shots: None,
        };
        let device = EmulatedDevice::new(noise, 3);
        let run = device.run(&[(Hamiltonian::new(2), 0.1)], 2, true);
        assert!((run.z_average() - 0.9).abs() < 1e-12);
        assert!((run.zz_average() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn miscalibration_changes_dynamics_deterministically_per_seed() {
        let noise = NoiseModel {
            depolarizing_rate: 0.0,
            amplitude_miscalibration: 0.2,
            readout_error: 0.0,
            shots: None,
        };
        let a = EmulatedDevice::new(noise.clone(), 11).run(&[rabi_segment(1, 2.0, 1.0)], 1, false);
        let b = EmulatedDevice::new(noise, 12).run(&[rabi_segment(1, 2.0, 1.0)], 1, false);
        let ideal = ideal_run(&[rabi_segment(1, 2.0, 1.0)], 1, false);
        assert!((a.z[0] - ideal.z[0]).abs() > 1e-6 || (b.z[0] - ideal.z[0]).abs() > 1e-6);
        assert_ne!(a.z[0], b.z[0]);
    }

    #[test]
    fn realizations_reuse_one_compiled_schedule() {
        // The shared-layout scaled_weights path changes no physics:
        // realization 0 reproduces `run` exactly, the sweep is
        // deterministic, and the realization streams are mutually distinct.
        let noise = NoiseModel {
            depolarizing_rate: 0.1,
            amplitude_miscalibration: 0.1,
            readout_error: 0.01,
            shots: Some(200),
        };
        let segments = [rabi_segment(2, 2.0, 0.5)];
        let base = EmulatedDevice::new(noise.clone(), 40);
        let sweep = base.run_realizations(&segments, 2, false, 3);
        assert_eq!(sweep.len(), 3);
        assert_eq!(sweep[0], base.run(&segments, 2, false));
        assert_eq!(sweep, base.run_realizations(&segments, 2, false, 3));
        assert_ne!(sweep[0], sweep[1]);
        assert_ne!(sweep[1], sweep[2]);
        // Decorrelation regression: with the historical additive `seed + r`
        // streams, realization 1 of seed 40 replayed realization 0 of seed
        // 41 draw for draw.
        let neighbor = EmulatedDevice::new(noise, 41);
        assert_ne!(
            sweep[1],
            neighbor.run_realizations(&segments, 2, false, 1)[0]
        );
    }

    #[test]
    fn stepper_choice_does_not_change_the_physics() {
        use crate::stepper::EvolveOptions;
        let segments = [rabi_segment(3, 2.0, 0.4)];
        let reference = ideal_run(&segments, 3, false);
        for options in [EvolveOptions::krylov(), EvolveOptions::chebyshev()] {
            let run = EmulatedDevice::ideal()
                .with_options(options)
                .run(&segments, 3, false);
            assert_eq!(run.execution_time, reference.execution_time);
            for (a, b) in run.z.iter().zip(&reference.z) {
                assert!((a - b).abs() < 1e-9, "{options:?}: {a} != {b}");
            }
            for (a, b) in run.zz.iter().zip(&reference.zz) {
                assert!((a - b).abs() < 1e-9, "{options:?}: {a} != {b}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "shots = Some(0)")]
    fn zero_shots_is_rejected() {
        // Regression: Some(0) used to be reported noisy by is_noiseless()
        // yet silently treated as exact (infinite shots) by the estimator.
        // The pinned choice is rejection — a caller who wants exact values
        // says None.
        let noise = NoiseModel {
            shots: Some(0),
            ..NoiseModel::noiseless()
        };
        // Still *classified* as noisy (the field is set)…
        assert!(!noise.is_noiseless());
        // …but running with it panics instead of quietly acting noiseless.
        let _ = EmulatedDevice::new(noise, 1).run(&[rabi_segment(1, 1.0, 0.1)], 1, false);
    }

    #[test]
    #[should_panic(expected = "readout_error")]
    fn readout_error_above_half_is_rejected() {
        // (1 − 2p)^w flips observable signs for p > ½ — an earlier revision
        // silently returned sign-flipped Z/ZZ estimates.
        let noise = NoiseModel {
            readout_error: 0.6,
            ..NoiseModel::noiseless()
        };
        let _ = EmulatedDevice::new(noise, 1).run(&[rabi_segment(1, 1.0, 0.1)], 1, false);
    }

    #[test]
    #[should_panic(expected = "depolarizing_rate")]
    fn negative_depolarizing_rate_is_rejected() {
        // exp(−γ·w·T) with γ < 0 amplifies instead of damps.
        let noise = NoiseModel {
            depolarizing_rate: -0.1,
            ..NoiseModel::noiseless()
        };
        let _ = EmulatedDevice::new(noise, 1).run(&[rabi_segment(1, 1.0, 0.1)], 1, false);
    }

    #[test]
    fn boundary_noise_values_are_legal() {
        // p = ½ is total readout depolarization: every observable damps to
        // exactly zero — legal, and the boundary of the validated range.
        let noise = NoiseModel {
            readout_error: 0.5,
            ..NoiseModel::noiseless()
        };
        noise.validate();
        let run = EmulatedDevice::new(noise, 3).run(&[(Hamiltonian::new(2), 0.1)], 2, false);
        assert_eq!(run.z, vec![0.0, 0.0]);
        assert_eq!(run.zz, vec![0.0]);
        // Zero rates are the other boundary; aquila_like is interior.
        NoiseModel::noiseless().validate();
        NoiseModel::aquila_like().validate();
    }

    #[test]
    fn shorter_pulses_are_closer_to_theory() {
        // The central mechanism of the paper's real-device result: the same
        // target evolution compiled into a shorter pulse suffers less noise.
        let noise = NoiseModel {
            depolarizing_rate: 0.3,
            amplitude_miscalibration: 0.0,
            readout_error: 0.0,
            shots: None,
        };
        let device = EmulatedDevice::new(noise, 5);
        // Target: rotate by angle Ω·t = 0.8 rad. Short pulse: Ω=4, t=0.2.
        // Long pulse: Ω=0.5, t=1.6. Both give the same ideal state.
        let ideal = ideal_run(&[rabi_segment(2, 4.0, 0.2)], 2, false);
        let short = device.run(&[rabi_segment(2, 4.0, 0.2)], 2, false);
        let long = device.run(&[rabi_segment(2, 0.5, 1.6)], 2, false);
        let short_error = (short.z_average() - ideal.z_average()).abs();
        let long_error = (long.z_average() - ideal.z_average()).abs();
        assert!(short_error < long_error);
    }
}
