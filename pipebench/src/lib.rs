//! Compile → lower → emulate benchmark of the QTurbo reproduction.
//!
//! A user brings a target Hamiltonian and a machine: `qturbo` compiles it,
//! `qturbo-aais` lowers the pulse and `qturbo-quantum` emulates it, first
//! noiselessly and then as a noisy Aquila-like sweep. Three workloads load
//! different layers of that path (see [`workload`]); an untraced run yields
//! the end-to-end metrics and a separate traced run the per-layer ones
//! ([`report`]). `README.md` in this directory maps each per-layer metric to
//! the end-to-end metric and workload it should move.

pub mod heap;
pub mod pipeline;
pub mod report;
pub mod run;
pub mod workload;
