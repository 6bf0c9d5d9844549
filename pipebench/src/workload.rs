//! The three workloads: which machines each one builds and how each round of
//! programs is drawn from the seed.
//!
//! A round holds one program of every shape the workload covers (size ×
//! model family), so every run's deck of two rounds has the same mix and
//! order of shapes and only the seeded parameters differ.

use qturbo_aais::heisenberg::{heisenberg_aais, HeisenbergOptions};
use qturbo_aais::rydberg::{rydberg_aais, Layout, RydbergOptions};
use qturbo_aais::Aais;
use qturbo_hamiltonian::models::{heisenberg_chain, ising_chain, ising_cycle, kitaev, mis_chain};
use qturbo_hamiltonian::{Hamiltonian, Pauli, PauliString, PiecewiseHamiltonian};
use qturbo_math::rng::Rng;

// Every workload has seven shapes per round, so over a deck of two rounds
// `program_s_p50` falls on the fourth shape's pair and `program_s_tail` (p75)
// on the lower of the sixth shape's pair, never on a gap between two shapes.

/// Ring sizes of `ring_compile` (atoms); even positions are the uniform
/// ring, odd positions the disordered one.
pub const RING_SIZES: [usize; 7] = [20, 22, 24, 26, 28, 30, 32];
/// Relative spread of the disordered rings' couplings and fields.
pub const RING_DISORDER: f64 = 0.1;
/// Chain sizes of `heisenberg_quench` (qubits); both at or above the
/// emulator's parallel threshold.
pub const QUENCH_SIZES: [usize; 2] = [14, 15];
/// Target models of `heisenberg_quench`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuenchModel {
    /// `models::heisenberg_chain` with seeded `J, h`.
    HeisenbergChain,
    /// `models::kitaev` with seeded `µ, t, h`.
    Kitaev,
    /// `models::ising_chain` with seeded `J, h`.
    IsingChain,
    /// Ising chain with ±30 % seeded per-bond couplings and per-site fields.
    DisorderedIsingChain,
}
/// `(model, qubits)` of the `heisenberg_quench` programs.
pub const QUENCH_SHAPES: [(QuenchModel, usize); 7] = [
    (QuenchModel::HeisenbergChain, 14),
    (QuenchModel::HeisenbergChain, 15),
    (QuenchModel::Kitaev, 14),
    (QuenchModel::Kitaev, 15),
    (QuenchModel::IsingChain, 15),
    (QuenchModel::DisorderedIsingChain, 14),
    (QuenchModel::DisorderedIsingChain, 15),
];
/// Target evolution time of every `heisenberg_quench` program (µs).
pub const QUENCH_TIME: f64 = 0.5;
/// Noise realizations swept per `heisenberg_quench` program.
pub const QUENCH_REALIZATIONS: usize = 8;
/// Chain sizes of `mis_noise_sweep` (atoms).
pub const MIS_SIZES: [usize; 3] = [10, 11, 12];
/// `(atoms, segments)` of the `mis_noise_sweep` annealing ramps.
pub const MIS_SHAPES: [(usize, usize); 7] = [
    (10, 16),
    (10, 24),
    (11, 16),
    (11, 20),
    (11, 24),
    (12, 16),
    (12, 24),
];
/// Noise realizations swept per `mis_noise_sweep` program.
pub const MIS_REALIZATIONS: usize = 32;
/// The `mis_noise_sweep` size whose programs are also checked against the
/// dense reference propagation.
pub const MIS_NAIVE_CHECK_SIZE: usize = 10;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Rydberg Ising rings at 20–32 atoms: compile → lower only.
    RingCompile,
    /// Heisenberg-machine quenches at 14–15 qubits: the emulator's load.
    HeisenbergQuench,
    /// Many-segment MIS annealing ramps at 10–12 atoms with a wide noise sweep.
    MisNoiseSweep,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 3] = [
        Workload::RingCompile,
        Workload::HeisenbergQuench,
        Workload::MisNoiseSweep,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::RingCompile => "ring_compile",
            Workload::HeisenbergQuench => "heisenberg_quench",
            Workload::MisNoiseSweep => "mis_noise_sweep",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every machine the workload's programs compile onto, in the order
    /// [`Program::machine`] indexes them.
    pub fn machine_specs(self) -> Vec<MachineSpec> {
        match self {
            Workload::RingCompile => RING_SIZES
                .iter()
                .map(|&n| MachineSpec::RydbergRing(n))
                .collect(),
            Workload::HeisenbergQuench => QUENCH_SIZES
                .iter()
                .map(|&n| MachineSpec::Heisenberg(n))
                .collect(),
            Workload::MisNoiseSweep => MIS_SIZES
                .iter()
                .map(|&n| MachineSpec::RydbergLine(n))
                .collect(),
        }
    }

    /// The largest register the workload emulates (0 when it does not).
    pub fn max_emulated_qubits(self) -> usize {
        match self {
            Workload::RingCompile => 0,
            Workload::HeisenbergQuench => QUENCH_SIZES[QUENCH_SIZES.len() - 1],
            Workload::MisNoiseSweep => MIS_SIZES[MIS_SIZES.len() - 1],
        }
    }

    /// The programs of round `round` under `seed`: one per shape, always in
    /// the same order. The same `(seed, round)` always yields the same
    /// programs.
    pub fn round(self, seed: u64, round: u64) -> Vec<Program> {
        let mut rng = Rng::seed_from_pair(seed, round);
        let mut programs = match self {
            Workload::RingCompile => ring_round(&mut rng),
            Workload::HeisenbergQuench => quench_round(&mut rng),
            Workload::MisNoiseSweep => mis_round(&mut rng),
        };
        for program in &mut programs {
            if let Some(emulation) = program.emulation.as_mut() {
                emulation.device_seed = rng.next_u64();
            }
        }
        programs
    }
}

/// A machine (AAIS) a workload builds during set-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpec {
    /// Rydberg atoms on a ring (the Ising-cycle geometry).
    RydbergRing(usize),
    /// Rydberg atoms on a line with the default options.
    RydbergLine(usize),
    /// The Heisenberg machine with chain connectivity.
    Heisenberg(usize),
}

impl MachineSpec {
    /// Builds the machine.
    pub fn build(self) -> Aais {
        match self {
            MachineSpec::RydbergRing(n) => rydberg_aais(
                n,
                &RydbergOptions {
                    layout: Layout::Ring { spacing: 8.0 },
                    ..RydbergOptions::default()
                },
            ),
            MachineSpec::RydbergLine(n) => rydberg_aais(n, &RydbergOptions::default()),
            MachineSpec::Heisenberg(n) => heisenberg_aais(n, &HeisenbergOptions::default()),
        }
    }
}

/// How a program is emulated after lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Emulation {
    /// Noise realizations of the Aquila-like device sweep.
    pub realizations: usize,
    /// Seed of the device's noise streams.
    pub device_seed: u64,
    /// Whether the fast-path state is also checked against the dense
    /// reference propagation.
    pub naive_check: bool,
}

/// One program: a target evolution on one of the workload's machines.
#[derive(Debug, Clone)]
pub struct Program {
    /// Human-readable shape and parameters, printed when a check fails.
    pub label: String,
    /// Index into the workload's [`Workload::machine_specs`].
    pub machine: usize,
    /// Register size.
    pub num_qubits: usize,
    /// The target (piecewise-constant) evolution.
    pub target: PiecewiseHamiltonian,
    /// Whether the `⟨ZZ⟩` observable closes the ring.
    pub cyclic: bool,
    /// Emulation settings; `None` for compile-only programs.
    pub emulation: Option<Emulation>,
}

fn zz(i: usize, j: usize) -> PauliString {
    PauliString::two(i, Pauli::Z, j, Pauli::Z)
}

/// Transverse-field Ising chain or ring with per-bond couplings and per-site
/// fields: `Σ_b J_b Z Z + Σ_i h_i X_i`.
fn disordered_ising(couplings: &[f64], fields: &[f64], cyclic: bool) -> Hamiltonian {
    let n = fields.len();
    let mut h = Hamiltonian::new(n);
    for (i, &j) in couplings.iter().enumerate() {
        let next = if cyclic { (i + 1) % n } else { i + 1 };
        h.add_term(j, zz(i, next));
    }
    for (i, &field) in fields.iter().enumerate() {
        h.add_term(field, PauliString::single(i, Pauli::X));
    }
    h
}

/// `count` values `base · (1 + spread · u)`, `u` uniform in `[−1, 1]`.
fn disordered(rng: &mut Rng, count: usize, base: f64, spread: f64) -> Vec<f64> {
    (0..count)
        .map(|_| base * (1.0 + spread * rng.next_range(-1.0, 1.0)))
        .collect()
}

fn ring_round(rng: &mut Rng) -> Vec<Program> {
    RING_SIZES
        .iter()
        .enumerate()
        .map(|(machine, &n)| {
            let (label, hamiltonian) = if machine % 2 == 0 {
                // The paper's case: J = h = 1 on every bond and site.
                (format!("ring_uniform n={n}"), ising_cycle(n, 1.0, 1.0))
            } else {
                let couplings = disordered(rng, n, 1.0, RING_DISORDER);
                let fields = disordered(rng, n, 1.0, RING_DISORDER);
                (
                    format!("ring_disordered n={n}"),
                    disordered_ising(&couplings, &fields, true),
                )
            };
            Program {
                label,
                machine,
                num_qubits: n,
                target: PiecewiseHamiltonian::constant(hamiltonian, 1.0),
                cyclic: true,
                emulation: None,
            }
        })
        .collect()
}

fn quench_round(rng: &mut Rng) -> Vec<Program> {
    QUENCH_SHAPES
        .iter()
        .map(|&(model, n)| {
            let (label, hamiltonian) = match model {
                QuenchModel::HeisenbergChain => {
                    let (j, h) = (rng.next_range(0.9, 1.1), rng.next_range(0.9, 1.1));
                    (
                        format!("heisenberg_chain n={n} J={j} h={h}"),
                        heisenberg_chain(n, j, h),
                    )
                }
                QuenchModel::Kitaev => {
                    let (mu, t_hop, h) = (
                        rng.next_range(0.9, 1.1),
                        rng.next_range(0.9, 1.1),
                        rng.next_range(0.9, 1.1),
                    );
                    (
                        format!("kitaev n={n} mu={mu} t={t_hop} h={h}"),
                        kitaev(n, mu, t_hop, h),
                    )
                }
                QuenchModel::IsingChain => {
                    let (j, h) = (rng.next_range(0.9, 1.1), rng.next_range(0.9, 1.1));
                    (
                        format!("ising_chain n={n} J={j} h={h}"),
                        ising_chain(n, j, h),
                    )
                }
                QuenchModel::DisorderedIsingChain => {
                    let couplings = disordered(rng, n - 1, 1.0, 0.3);
                    let fields = disordered(rng, n, 1.0, 0.3);
                    (
                        format!("ising_chain_disordered n={n}"),
                        disordered_ising(&couplings, &fields, false),
                    )
                }
            };
            Program {
                label,
                machine: n - QUENCH_SIZES[0],
                num_qubits: n,
                target: PiecewiseHamiltonian::constant(hamiltonian, QUENCH_TIME),
                cyclic: false,
                emulation: Some(Emulation {
                    realizations: QUENCH_REALIZATIONS,
                    device_seed: 0,
                    naive_check: false,
                }),
            }
        })
        .collect()
}

fn mis_round(rng: &mut Rng) -> Vec<Program> {
    MIS_SHAPES
        .iter()
        .map(|&(n, segments)| {
            let u = rng.next_range(0.9, 1.1);
            let omega = rng.next_range(2.8, 3.2);
            let alpha = rng.next_range(0.9, 1.1);
            let total_time = rng.next_range(0.9, 1.1);
            Program {
                label: format!(
                    "mis_ramp n={n} segments={segments} U={u} omega={omega} alpha={alpha} T={total_time}"
                ),
                machine: n - MIS_SIZES[0],
                num_qubits: n,
                target: mis_chain(n, u, omega, alpha, total_time, segments),
                cyclic: false,
                emulation: Some(Emulation {
                    realizations: MIS_REALIZATIONS,
                    device_seed: 0,
                    naive_check: n == MIS_NAIVE_CHECK_SIZE,
                }),
            }
        })
        .collect()
}
