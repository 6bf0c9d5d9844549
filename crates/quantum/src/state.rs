//! Dense state vectors and Pauli-string actions.

use qturbo_hamiltonian::{Pauli, PauliString};
use qturbo_math::Complex;

use crate::exec::LANE_WIDTH;

/// One cache-line-aligned block of [`LANE_WIDTH`] amplitudes — the
/// allocation unit of [`AlignedAmps`]. `repr(C)` + the 64-byte alignment
/// make a `Vec<AmpBlock>` a contiguous, lane-block-aligned `Complex` array
/// (64 bytes is exactly four 16-byte amplitudes, so there is no inter-block
/// padding).
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct AmpBlock([Complex; LANE_WIDTH]);

// The no-padding guarantee the slice casts below rely on.
const _: () = assert!(std::mem::size_of::<AmpBlock>() == LANE_WIDTH * 16);

/// Amplitude storage aligned to [`AmpBlock`] boundaries, so the SIMD lane
/// kernels in [`crate::compiled`] always see cache-line-aligned blocks.
/// Presents itself as a plain `&[Complex]` / `&mut [Complex]` of logical
/// length `len` (which may be smaller than one block for 0- and 1-qubit
/// states; the padding lanes of the final block are initialized but never
/// observable through the slices).
#[derive(Clone)]
struct AlignedAmps {
    blocks: Vec<AmpBlock>,
    len: usize,
}

impl AlignedAmps {
    /// `len` amplitudes, every one (padding lanes included) set to `value`.
    fn filled(value: Complex, len: usize) -> Self {
        AlignedAmps {
            blocks: vec![AmpBlock([value; LANE_WIDTH]); len.div_ceil(LANE_WIDTH)],
            len,
        }
    }

    /// Copies a plain vector into aligned storage.
    fn from_vec(values: Vec<Complex>) -> Self {
        let mut amps = AlignedAmps::filled(Complex::ZERO, values.len());
        amps.as_mut_slice().copy_from_slice(&values);
        amps
    }

    fn as_slice(&self) -> &[Complex] {
        // SAFETY: `AmpBlock` is `repr(C)` with no padding (checked above),
        // so the blocks hold at least `len` contiguous initialized
        // `Complex` values starting at the vec's base pointer.
        unsafe { std::slice::from_raw_parts(self.blocks.as_ptr().cast::<Complex>(), self.len) }
    }

    fn as_mut_slice(&mut self) -> &mut [Complex] {
        // SAFETY: as in `as_slice`, plus unique access through `&mut self`.
        unsafe {
            std::slice::from_raw_parts_mut(self.blocks.as_mut_ptr().cast::<Complex>(), self.len)
        }
    }
}

impl std::fmt::Debug for AlignedAmps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for AlignedAmps {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A pure quantum state of `num_qubits` qubits stored as a dense amplitude
/// vector in the computational (Z) basis.
///
/// Qubit `q` corresponds to bit `q` of the basis-state index (little-endian),
/// and `|0⟩` is the `+1` eigenstate of `Z` — the convention used for the
/// Rydberg ground state in the paper's device experiments.
///
/// Amplitudes live in cache-line-aligned storage (64-byte blocks of
/// [`LANE_WIDTH`] amplitudes) so the execution layer's lane kernels load
/// aligned blocks; see [`crate::exec`].
///
/// # Example
///
/// ```
/// use qturbo_quantum::StateVector;
/// use qturbo_hamiltonian::{Pauli, PauliString};
///
/// let state = StateVector::zero_state(2);
/// assert_eq!(state.expectation(&PauliString::single(0, Pauli::Z)), 1.0);
/// assert_eq!(state.expectation(&PauliString::single(0, Pauli::X)), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: AlignedAmps,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 26 (the dense representation would not
    /// fit in memory).
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= 26,
            "dense state vectors are limited to 26 qubits"
        );
        let mut amplitudes = AlignedAmps::filled(Complex::ZERO, 1 << num_qubits);
        amplitudes.as_mut_slice()[0] = Complex::ONE;
        StateVector {
            num_qubits,
            amplitudes,
        }
    }

    /// Overwrites the state with `|0…0⟩` in place, without allocating.
    pub(crate) fn set_zero_state(&mut self) {
        let amplitudes = self.amplitudes.as_mut_slice();
        amplitudes.fill(Complex::ZERO);
        amplitudes[0] = Complex::ONE;
    }

    /// The zero *vector* (every amplitude `0`) on `num_qubits` qubits — not a
    /// physical state, but the correct accumulator seed for `H|ψ⟩` kernels.
    ///
    /// This replaces the old `zero_state` + `scale(0.0)` hack the propagator
    /// used to erase the `|0…0⟩` seed amplitude.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 26.
    pub fn zeros(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= 26,
            "dense state vectors are limited to 26 qubits"
        );
        StateVector {
            num_qubits,
            amplitudes: AlignedAmps::filled(Complex::ZERO, 1 << num_qubits),
        }
    }

    /// The uniform superposition `|+…+⟩`.
    pub fn plus_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= 26,
            "dense state vectors are limited to 26 qubits"
        );
        let dim = 1usize << num_qubits;
        let amp = Complex::from_real(1.0 / (dim as f64).sqrt());
        StateVector {
            num_qubits,
            amplitudes: AlignedAmps::filled(amp, dim),
        }
    }

    /// Builds a state from raw amplitudes (normalizing them).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the norm is zero.
    pub fn from_amplitudes(amplitudes: Vec<Complex>) -> Self {
        let dim = amplitudes.len();
        assert!(
            dim.is_power_of_two() && dim > 0,
            "amplitude count must be a power of two"
        );
        let num_qubits = dim.trailing_zeros() as usize;
        let mut state = StateVector {
            num_qubits,
            amplitudes: AlignedAmps::from_vec(amplitudes),
        };
        let norm = state.norm();
        assert!(norm > 0.0, "cannot normalize the zero vector");
        state.scale(1.0 / norm);
        state
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Dimension of the underlying vector (`2^num_qubits`).
    pub fn dim(&self) -> usize {
        self.amplitudes.len
    }

    /// Immutable view of the amplitudes.
    pub fn amplitudes(&self) -> &[Complex] {
        self.amplitudes.as_slice()
    }

    /// Mutable view of the amplitudes, for in-place kernels.
    ///
    /// The caller is responsible for any normalization invariant it needs —
    /// the propagation kernels deliberately work on unnormalized
    /// accumulators.
    pub fn amplitudes_mut(&mut self) -> &mut [Complex] {
        self.amplitudes.as_mut_slice()
    }

    /// Copies `other`'s amplitudes into this vector without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn copy_from(&mut self, other: &StateVector) {
        assert_eq!(self.dim(), other.dim(), "state dimension mismatch");
        self.amplitudes
            .as_mut_slice()
            .copy_from_slice(other.amplitudes.as_slice());
    }

    /// Euclidean norm of the amplitude vector.
    pub fn norm(&self) -> f64 {
        self.amplitudes
            .as_slice()
            .iter()
            .map(|a| a.norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales every amplitude by a real factor (used internally for
    /// normalization).
    pub fn scale(&mut self, factor: f64) {
        for amp in self.amplitudes.as_mut_slice() {
            *amp = amp.scale(factor);
        }
    }

    /// Renormalizes the state to unit norm.
    pub fn normalize(&mut self) {
        let norm = self.norm();
        if norm > 0.0 {
            self.scale(1.0 / norm);
        }
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn inner_product(&self, other: &StateVector) -> Complex {
        assert_eq!(self.dim(), other.dim(), "state dimension mismatch");
        let mut acc = Complex::ZERO;
        for (a, b) in self
            .amplitudes
            .as_slice()
            .iter()
            .zip(other.amplitudes.as_slice())
        {
            acc += a.conj() * *b;
        }
        acc
    }

    /// Fidelity `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner_product(other).norm_sqr()
    }

    /// Applies a Pauli string, returning `P|ψ⟩` as a new state (not
    /// normalized — Pauli strings are unitary so the norm is preserved).
    ///
    /// This is the *naive per-qubit reference*: it dispatches on every
    /// `(qubit, Pauli)` pair for every basis state and allocates the output.
    /// The propagation hot path uses the mask-compiled kernel in
    /// [`crate::compiled`] instead; the property tests pin the two
    /// implementations against each other.
    ///
    /// # Panics
    ///
    /// Panics if the string acts on a qubit outside the register.
    pub fn apply_pauli_string(&self, string: &PauliString) -> StateVector {
        if let Some(max) = string.max_qubit() {
            assert!(
                max < self.num_qubits,
                "Pauli string acts outside the register"
            );
        }
        let mut out = vec![Complex::ZERO; self.dim()];
        let ops: Vec<(usize, Pauli)> = string.iter().collect();
        for (basis, &amplitude) in self.amplitudes.as_slice().iter().enumerate() {
            if amplitude == Complex::ZERO {
                continue;
            }
            let mut target = basis;
            let mut phase = Complex::ONE;
            for &(qubit, op) in &ops {
                let bit = (basis >> qubit) & 1;
                match op {
                    Pauli::I => {}
                    Pauli::X => target ^= 1 << qubit,
                    Pauli::Y => {
                        target ^= 1 << qubit;
                        // Y|0> = i|1>, Y|1> = -i|0>
                        phase *= if bit == 0 { Complex::I } else { -Complex::I };
                    }
                    Pauli::Z => {
                        if bit == 1 {
                            phase = -phase;
                        }
                    }
                }
            }
            out[target] += phase * amplitude;
        }
        StateVector {
            num_qubits: self.num_qubits,
            amplitudes: AlignedAmps::from_vec(out),
        }
    }

    /// Expectation value `⟨ψ|P|ψ⟩` of a Pauli string (a real number).
    ///
    /// Evaluated through the mask-compiled kernel: one allocation-free pass
    /// over the amplitudes instead of materializing `P|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if the string acts on a qubit outside the register.
    pub fn expectation(&self, string: &PauliString) -> f64 {
        if let Some(max) = string.max_qubit() {
            assert!(
                max < self.num_qubits,
                "Pauli string acts outside the register"
            );
        }
        crate::compiled::CompiledTerm::compile(1.0, string)
            .expectation(self.amplitudes.as_slice())
            .re
    }

    /// Probability of measuring the computational basis state `basis`.
    pub fn probability(&self, basis: usize) -> f64 {
        self.amplitudes.as_slice()[basis].norm_sqr()
    }

    /// Adds `factor · other` to this state (used by the propagator's Taylor
    /// accumulation).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn accumulate(&mut self, factor: Complex, other: &StateVector) {
        assert_eq!(self.dim(), other.dim(), "state dimension mismatch");
        for (a, b) in self
            .amplitudes
            .as_mut_slice()
            .iter_mut()
            .zip(other.amplitudes.as_slice())
        {
            *a += factor * *b;
        }
    }

    /// `true` when the amplitude storage base is 64-byte aligned (always
    /// holds; exposed so the test suite can pin the allocation contract).
    pub fn is_block_aligned(&self) -> bool {
        (self.amplitudes.blocks.as_ptr() as usize).is_multiple_of(64)
    }
}

/// A structure-of-arrays batch of noise-realization states: `realizations`
/// state vectors over the same register, stored **realization-innermost** —
/// the amplitude of basis state `i` in realization `r` lives at
/// `i * stride + r`, where `stride` is the realization count rounded up to
/// a whole SIMD lane ([`LANE_WIDTH`]).
///
/// This is the layout behind the device's batched realization sweep: a
/// kernel walking basis states reads each mask, diagonal-table entry, and
/// gather index **once** per basis state for all realizations, and the
/// realization-innermost lanes are always contiguous and lane-aligned — so
/// the [`crate::exec::F64x8`] lane path vectorizes across realizations with
/// no permutes, even for gather terms whose within-state lanes would be
/// misaligned.
///
/// The `stride − realizations` padding lanes hold amplitude `0` and are
/// driven with zero weights by the block kernels, so they stay exactly `0`
/// (and finite) through any evolution; no operation observes them.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizationBlock {
    num_qubits: usize,
    realizations: usize,
    stride: usize,
    amplitudes: AlignedAmps,
}

impl RealizationBlock {
    fn layout(num_qubits: usize, realizations: usize) -> (usize, usize) {
        assert!(
            num_qubits <= 26,
            "dense state vectors are limited to 26 qubits"
        );
        assert!(realizations > 0, "a realization block needs realizations");
        let stride = realizations.next_multiple_of(LANE_WIDTH);
        (1usize << num_qubits, stride)
    }

    /// A block of `realizations` copies of the all-zeros basis state
    /// `|0…0⟩` — the initial state of every device realization.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 26 or `realizations` is zero.
    pub fn zero_states(num_qubits: usize, realizations: usize) -> Self {
        let mut block = RealizationBlock::zeros(num_qubits, realizations);
        let stride = block.stride;
        for amp in &mut block.amplitudes.as_mut_slice()[..realizations.min(stride)] {
            *amp = Complex::ONE;
        }
        block
    }

    /// A block of `realizations` zero *vectors* — the accumulator seed for
    /// block `H|ψ⟩` kernels, mirroring [`StateVector::zeros`].
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` exceeds 26 or `realizations` is zero.
    pub fn zeros(num_qubits: usize, realizations: usize) -> Self {
        let (dim, stride) = RealizationBlock::layout(num_qubits, realizations);
        RealizationBlock {
            num_qubits,
            realizations,
            stride,
            amplitudes: AlignedAmps::filled(Complex::ZERO, dim * stride),
        }
    }

    /// Number of qubits of each realization's register.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of live (non-padding) realizations in the block.
    pub fn realizations(&self) -> usize {
        self.realizations
    }

    /// Lane stride between consecutive basis states: the realization count
    /// rounded up to a multiple of [`LANE_WIDTH`].
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Dimension of each realization's state vector (`2^num_qubits`).
    pub fn dim(&self) -> usize {
        1usize << self.num_qubits
    }

    /// The interleaved amplitudes, `dim × stride` long, realization-innermost.
    pub(crate) fn as_slice(&self) -> &[Complex] {
        self.amplitudes.as_slice()
    }

    /// Mutable view of the interleaved amplitudes.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [Complex] {
        self.amplitudes.as_mut_slice()
    }

    /// Copies `other`'s amplitudes into this block without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the block shapes differ.
    pub(crate) fn copy_from(&mut self, other: &RealizationBlock) {
        assert!(
            self.num_qubits == other.num_qubits && self.stride == other.stride,
            "realization block shape mismatch"
        );
        self.amplitudes
            .as_mut_slice()
            .copy_from_slice(other.amplitudes.as_slice());
    }

    /// Extracts realization `r` as a standalone [`StateVector`].
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a live realization index.
    pub fn extract(&self, r: usize) -> StateVector {
        assert!(r < self.realizations, "realization index out of range");
        let amps = self.amplitudes.as_slice();
        let mut out = StateVector::zeros(self.num_qubits);
        for (i, amp) in out.amplitudes_mut().iter_mut().enumerate() {
            *amp = amps[i * self.stride + r];
        }
        out
    }

    /// Euclidean norm of realization `r`'s amplitude vector.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a live realization index.
    pub fn realization_norm(&self, r: usize) -> f64 {
        assert!(r < self.realizations, "realization index out of range");
        let amps = self.amplitudes.as_slice();
        (0..self.dim())
            .map(|i| amps[i * self.stride + r].norm_sqr())
            .sum::<f64>()
            .sqrt()
    }

    /// Scales every amplitude of realization `r` by a real factor (the
    /// per-realization drift correction of the block Taylor path).
    pub(crate) fn scale_realization(&mut self, r: usize, factor: f64) {
        debug_assert!(r < self.realizations, "realization index out of range");
        let stride = self.stride;
        for lane in self.amplitudes.as_mut_slice()[r..]
            .iter_mut()
            .step_by(stride)
        {
            *lane = lane.scale(factor);
        }
    }

    /// Multiplies realization `r` by `phases[r]` for every live realization
    /// — the exact evolution of an identity-shift segment, whose phase
    /// differs per realization through the miscalibration scale.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is shorter than the live realization count.
    pub(crate) fn apply_phases(&mut self, phases: &[Complex]) {
        assert!(
            phases.len() >= self.realizations,
            "one phase per realization required"
        );
        let (stride, realizations) = (self.stride, self.realizations);
        for row in self.amplitudes.as_mut_slice().chunks_exact_mut(stride) {
            for (amp, &phase) in row[..realizations].iter_mut().zip(phases) {
                *amp = phase * *amp;
            }
        }
    }

    /// Adds `factor · other` to this block (the block analog of
    /// [`StateVector::accumulate`]; padding lanes are zero on both sides, so
    /// they stay zero).
    ///
    /// # Panics
    ///
    /// Panics if the block shapes differ.
    pub(crate) fn accumulate(&mut self, factor: Complex, other: &RealizationBlock) {
        assert!(
            self.num_qubits == other.num_qubits && self.stride == other.stride,
            "realization block shape mismatch"
        );
        for (a, b) in self
            .amplitudes
            .as_mut_slice()
            .iter_mut()
            .zip(other.amplitudes.as_slice())
        {
            *a += factor * *b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_plus_states() {
        let zero = StateVector::zero_state(3);
        assert_eq!(zero.dim(), 8);
        assert_eq!(zero.num_qubits(), 3);
        assert!((zero.norm() - 1.0).abs() < 1e-15);
        assert_eq!(zero.probability(0), 1.0);

        let plus = StateVector::plus_state(2);
        assert!((plus.probability(3) - 0.25).abs() < 1e-15);
        assert!((plus.expectation(&PauliString::single(0, Pauli::X)) - 1.0).abs() < 1e-12);
        assert!(plus.expectation(&PauliString::single(0, Pauli::Z)).abs() < 1e-12);
    }

    #[test]
    fn from_amplitudes_normalizes() {
        let state =
            StateVector::from_amplitudes(vec![Complex::from_real(3.0), Complex::from_real(4.0)]);
        assert!((state.norm() - 1.0).abs() < 1e-15);
        assert!((state.probability(0) - 0.36).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![Complex::ONE; 3]);
    }

    #[test]
    fn pauli_actions_on_basis_states() {
        let zero = StateVector::zero_state(1);
        // X|0> = |1>
        let x = zero.apply_pauli_string(&PauliString::single(0, Pauli::X));
        assert!((x.probability(1) - 1.0).abs() < 1e-15);
        // Y|0> = i|1>
        let y = zero.apply_pauli_string(&PauliString::single(0, Pauli::Y));
        assert!((y.amplitudes()[1] - Complex::I).abs() < 1e-15);
        // Z|0> = |0>
        let z = zero.apply_pauli_string(&PauliString::single(0, Pauli::Z));
        assert!((z.amplitudes()[0] - Complex::ONE).abs() < 1e-15);
        // Z|1> = -|1>
        let one = StateVector::from_amplitudes(vec![Complex::ZERO, Complex::ONE]);
        let z1 = one.apply_pauli_string(&PauliString::single(0, Pauli::Z));
        assert!((z1.amplitudes()[1] + Complex::ONE).abs() < 1e-15);
    }

    #[test]
    fn expectation_values_on_entangled_state() {
        // Bell state (|00> + |11>)/sqrt(2): <Z0Z1> = 1, <Z0> = 0, <X0X1> = 1.
        let bell = StateVector::from_amplitudes(vec![
            Complex::ONE,
            Complex::ZERO,
            Complex::ZERO,
            Complex::ONE,
        ]);
        assert!(
            (bell.expectation(&PauliString::two(0, Pauli::Z, 1, Pauli::Z)) - 1.0).abs() < 1e-12
        );
        assert!(bell.expectation(&PauliString::single(0, Pauli::Z)).abs() < 1e-12);
        assert!(
            (bell.expectation(&PauliString::two(0, Pauli::X, 1, Pauli::X)) - 1.0).abs() < 1e-12
        );
        assert!(
            (bell.expectation(&PauliString::two(0, Pauli::Y, 1, Pauli::Y)) + 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn fidelity_and_inner_product() {
        let a = StateVector::zero_state(2);
        let b = StateVector::plus_state(2);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-15);
        assert!((a.fidelity(&b) - 0.25).abs() < 1e-12);
        let mut c = StateVector::zero_state(2);
        c.accumulate(Complex::ONE, &a);
        c.normalize();
        assert!((c.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pauli_strings_preserve_norm() {
        let state = StateVector::plus_state(3);
        let transformed = state.apply_pauli_string(&PauliString::from_ops([
            (0, Pauli::X),
            (1, Pauli::Y),
            (2, Pauli::Z),
        ]));
        assert!((transformed.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn amplitude_storage_is_block_aligned_at_every_size() {
        // 0- and 1-qubit states (dims 1 and 2) exercise the partial final
        // block; larger states exercise whole blocks.
        for num_qubits in 0..=5 {
            let state = StateVector::zeros(num_qubits);
            assert!(state.is_block_aligned());
            assert_eq!(state.dim(), 1 << num_qubits);
        }
        let plus = StateVector::plus_state(1);
        assert!(plus.is_block_aligned());
        assert_eq!(plus.amplitudes().len(), 2);
        // Equality and cloning look through the padding lanes.
        let clone = plus.clone();
        assert_eq!(plus, clone);
    }

    #[test]
    #[should_panic(expected = "outside the register")]
    fn pauli_outside_register_panics() {
        let state = StateVector::zero_state(1);
        let _ = state.apply_pauli_string(&PauliString::single(3, Pauli::X));
    }

    #[test]
    fn realization_block_layout_and_extraction() {
        // 5 realizations pad to a stride of 8 (two SIMD lanes).
        let block = RealizationBlock::zero_states(3, 5);
        assert_eq!(block.stride(), 8);
        assert_eq!(block.realizations(), 5);
        assert_eq!(block.dim(), 8);
        assert_eq!(block.as_slice().len(), 64);
        for r in 0..5 {
            assert_eq!(block.extract(r), StateVector::zero_state(3));
            assert!((block.realization_norm(r) - 1.0).abs() < 1e-15);
        }
        // Padding lanes are exactly zero.
        for i in 0..block.dim() {
            for p in 5..8 {
                assert_eq!(block.as_slice()[i * 8 + p], Complex::ZERO);
            }
        }
    }

    #[test]
    fn realization_block_per_realization_ops() {
        let mut block = RealizationBlock::zero_states(2, 2);
        block.scale_realization(1, 0.5);
        assert!((block.realization_norm(0) - 1.0).abs() < 1e-15);
        assert!((block.realization_norm(1) - 0.5).abs() < 1e-15);
        block.apply_phases(&[Complex::I, Complex::ONE]);
        assert_eq!(block.extract(0).amplitudes()[0], Complex::I);
        assert_eq!(block.extract(1).amplitudes()[0], Complex::from_real(0.5));
        let mut acc = RealizationBlock::zeros(2, 2);
        acc.accumulate(Complex::from_real(2.0), &block);
        assert_eq!(acc.extract(0).amplitudes()[0], Complex::new(0.0, 2.0));
    }
}
