//! The closed loop: one client, one program at a time, passes over a fixed
//! deck of programs until the measuring time is spent.

use crate::pipeline::{run_program, set_up, Knobs, Outcome};
use crate::workload::{Program, Workload};
use std::time::Instant;

/// Set-ups timed together as one sample, one batch before every program;
/// `setup_s` is the fastest batch's seconds per set-up. One set-up takes
/// about a millisecond, so a preemption or a contended cache slows a sample
/// by up to several times its length but never speeds it up: the minimum
/// over a run's batches is the set-up's own cost, and it repeats where a
/// median follows the host's load.
pub const SETUP_BATCH: usize = 5;
/// Passes over the deck every run completes regardless of time.
pub const MIN_PASSES: usize = 4;
/// Seed of the deck's quality round, whatever the run's seed. The quality
/// metrics come from that round alone, so they are a function of the code:
/// a run under any seed reproduces them exactly, and a change in them is a
/// change in the code.
pub const QUALITY_SEED: u64 = 1;

/// The programs a run cycles through: the quality round (round 0 of
/// [`QUALITY_SEED`]) followed by round 1 of the run's seed. Each half holds
/// one program of every shape.
pub fn deck(workload: Workload, seed: u64) -> Vec<Program> {
    let mut deck = workload.round(QUALITY_SEED, 0);
    deck.extend(workload.round(seed, 1));
    deck
}

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the program generator.
    pub seed: u64,
    /// Measuring time; programs keep starting until it is spent.
    pub seconds: f64,
    /// Traced run: per-layer spans and stage replays.
    pub traced: bool,
    /// Layer options.
    pub knobs: Knobs,
}

/// Everything one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every program execution, in order: execution `k` ran deck program
    /// `k % deck_len`.
    pub outcomes: Vec<Outcome>,
    /// Programs in the deck.
    pub deck_len: usize,
    /// How many leading deck programs form the quality round.
    pub quality_programs: usize,
    /// Seconds of the process's first set-up.
    pub first_setup_s: f64,
    /// Seconds per set-up of each timed batch, one batch per execution.
    pub setup_samples: Vec<f64>,
    /// Seconds from the first execution to the last.
    pub elapsed_s: f64,
    /// Deck programs whose deterministic outputs differed between two
    /// executions with the same seed.
    pub nondeterministic: Vec<String>,
    /// Traced run only: the untraced wall time of each execution, measured
    /// right before its traced twin.
    pub untraced_wall_s: Vec<f64>,
}

impl RunResult {
    /// Every execution of deck program `index`.
    pub fn executions(&self, index: usize) -> impl Iterator<Item = &Outcome> {
        self.outcomes
            .iter()
            .skip(index)
            .step_by(self.deck_len.max(1))
    }

    /// Fewest executions of any deck program.
    pub fn passes(&self) -> usize {
        self.outcomes.len() / self.deck_len.max(1)
    }

    /// The first execution of every deck program of the quality round.
    pub fn quality(&self) -> &[Outcome] {
        &self.outcomes[..self.quality_programs.min(self.outcomes.len())]
    }
}

/// Runs `config`: the first set-up, then passes over the [`deck`], each
/// program after a timed batch of set-ups, until `config.seconds` have
/// passed and at least [`MIN_PASSES`] passes are complete. Every repeat of a
/// program must reproduce the deterministic outputs of its first execution.
pub fn run(config: &RunConfig) -> RunResult {
    let workload = config.workload;
    let deck = deck(workload, config.seed);
    let started = Instant::now();
    let mut machines = set_up(workload, &config.knobs);
    let first_setup_s = started.elapsed().as_secs_f64();
    let mut setup_samples = Vec::new();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut untraced_wall_s = Vec::new();
    let mut nondeterministic: Vec<String> = Vec::new();
    let started = Instant::now();
    while outcomes.len() < MIN_PASSES * deck.len()
        || started.elapsed().as_secs_f64() < config.seconds
    {
        let index = outcomes.len() % deck.len();
        let program = &deck[index];
        let setup_started = Instant::now();
        for _ in 0..SETUP_BATCH {
            machines = set_up(workload, &config.knobs);
        }
        setup_samples.push(setup_started.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        let aais = &machines[program.machine];
        if config.traced {
            untraced_wall_s.push(run_program(program, aais, &config.knobs, false).wall_s);
        }
        let outcome = run_program(program, aais, &config.knobs, config.traced);
        if let Some(first) = outcomes.get(index) {
            if outcome.deterministic_outputs() != first.deterministic_outputs()
                && !nondeterministic.contains(&program.label)
            {
                nondeterministic.push(program.label.clone());
            }
        }
        outcomes.push(outcome);
    }

    RunResult {
        outcomes,
        deck_len: deck.len(),
        quality_programs: workload.round(QUALITY_SEED, 0).len(),
        first_setup_s,
        setup_samples,
        elapsed_s: started.elapsed().as_secs_f64(),
        nondeterministic,
        untraced_wall_s,
    }
}
