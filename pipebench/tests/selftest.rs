//! The benchmark's own tests.
//!
//! * Sensitivity: known-slower variants, reachable through the layers'
//!   public options, must move the workload they target by more than the
//!   metric's bound in `BENCHMARK.json`, and must leave the workload that
//!   bypasses the changed layer within it.
//! * Determinism: the same seed repeats the deterministic outputs exactly.
//! * Contract: the metrics the benchmark prints are exactly the ones
//!   `BENCHMARK.json` lists, with the same units.
//!
//! Run with `cargo test --release --manifest-path pipebench/Cargo.toml`.

use pipebench::pipeline::{run_program, set_up, Knobs, Outcome};
use pipebench::report::{end_to_end, per_layer, tail, TAIL_PERCENTILE};
use pipebench::run::{deck, RunResult, MIN_PASSES};
use pipebench::workload::{Program, Workload};
use qturbo_quantum::StepperKind;

const SEED: u64 = 1;

/// Serializes the tests that run programs: `cargo test` runs tests on
/// parallel threads, and a concurrent program would slow whichever side of a
/// timing comparison it overlaps.
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"))
}

/// `(name, unit, bound)` of every metric object in `BENCHMARK.json` (the
/// file is flat enough that a scan for `"name"` keys is exact).
fn listed_metrics(json: &str, section: &str) -> Vec<(String, String, Option<f64>)> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let end = json[start..].find(']').map_or(json.len(), |i| start + i);
    let string_after = |text: &str, key: &str| -> Option<String> {
        let at = text.find(&format!("\"{key}\""))?;
        let rest = &text[at + key.len() + 2..];
        let open = rest.find('"')?;
        let close = rest[open + 1..].find('"')?;
        Some(rest[open + 1..open + 1 + close].to_string())
    };
    json[start..end]
        .split('{')
        .skip(1)
        .map(|object| {
            let bound = object.find("\"bound\"").map(|at| {
                let rest = &object[at + 7..];
                let rest = rest.trim_start_matches([':', ' ']);
                let number: String = rest
                    .chars()
                    .take_while(|c| c.is_ascii_digit() || *c == '.')
                    .collect();
                number.parse().expect("bound is a number")
            });
            (
                string_after(object, "name").expect("metric has a name"),
                string_after(object, "unit").expect("metric has a unit"),
                bound,
            )
        })
        .collect()
}

fn bound_of(name: &str) -> f64 {
    listed_metrics(&benchmark_json(), "end_to_end")
        .into_iter()
        .find(|(n, _, _)| n == name)
        .and_then(|(_, _, bound)| bound)
        .unwrap_or_else(|| panic!("{name} has no bound in BENCHMARK.json"))
}

/// Total wall time of `programs` under `variant` divided by their total under
/// the defaults. Each program runs `repetitions` times per side, alternating
/// sides, and each side keeps its fastest time.
fn slowdown(
    workload: Workload,
    keep: impl Fn(&Program) -> bool,
    variant: &Knobs,
    repetitions: usize,
) -> f64 {
    let _serial = serial();
    let defaults = Knobs::defaults();
    let machines = set_up(workload, &defaults);
    let (mut base, mut changed) = (0.0, 0.0);
    for program in workload.round(SEED, 0).into_iter().filter(keep) {
        let aais = &machines[program.machine];
        let (mut fastest_base, mut fastest_changed) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..repetitions {
            for (knobs, fastest) in [
                (&defaults, &mut fastest_base),
                (variant, &mut fastest_changed),
            ] {
                let outcome = run_program(&program, aais, knobs, false);
                assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
                *fastest = fastest.min(outcome.wall_s);
            }
        }
        base += fastest_base;
        changed += fastest_changed;
    }
    changed / base
}

fn size(n: usize) -> impl Fn(&Program) -> bool {
    move |program| program.num_qubits == n
}

fn variant(change: impl FnOnce(&mut Knobs)) -> Knobs {
    let mut knobs = Knobs::defaults();
    change(&mut knobs);
    knobs
}

#[test]
fn realization_block_moves_heisenberg_quench_not_ring_compile() {
    let block = variant(|k| k.evolve = k.evolve.with_realization_block(true));
    let bound = bound_of("program_s_p50");
    let target = slowdown(Workload::HeisenbergQuench, size(14), &block, 1);
    assert!(target > 1.0 + bound, "heisenberg_quench slowdown {target}");
    let bypass = slowdown(Workload::RingCompile, size(24), &block, 3);
    assert!(
        (bypass - 1.0).abs() < bound,
        "ring_compile slowdown {bypass}"
    );
}

#[test]
fn forced_taylor_moves_heisenberg_quench_not_ring_compile() {
    let taylor = variant(|k| k.evolve.stepper = StepperKind::Taylor);
    let bound = bound_of("program_s_p50");
    let target = slowdown(Workload::HeisenbergQuench, size(14), &taylor, 1);
    assert!(target > 1.0 + bound, "heisenberg_quench slowdown {target}");
    let bypass = slowdown(Workload::RingCompile, size(24), &taylor, 3);
    assert!(
        (bypass - 1.0).abs() < bound,
        "ring_compile slowdown {bypass}"
    );
}

#[test]
fn no_localization_moves_ring_compile_not_heisenberg_quench() {
    let monolithic = variant(|k| k.compiler.localize = false);
    let bound = bound_of("compile_s_p50");
    let target = slowdown(Workload::RingCompile, size(24), &monolithic, 1);
    assert!(target > 1.0 + bound, "ring_compile slowdown {target}");
    let bound = bound_of("program_s_p50");
    let bypass = slowdown(Workload::HeisenbergQuench, size(14), &monolithic, 3);
    assert!(
        (bypass - 1.0).abs() < bound,
        "heisenberg_quench slowdown {bypass}"
    );
}

#[test]
fn same_seed_repeats_deterministic_outputs() {
    let _serial = serial();
    let knobs = Knobs::defaults();
    for (workload, n) in [
        (Workload::MisNoiseSweep, 10),
        (Workload::HeisenbergQuench, 14),
    ] {
        let machines = set_up(workload, &knobs);
        let first: Vec<Program> = workload
            .round(SEED, 0)
            .into_iter()
            .filter(size(n))
            .collect();
        let second: Vec<Program> = workload
            .round(SEED, 0)
            .into_iter()
            .filter(size(n))
            .collect();
        assert!(!first.is_empty());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.label, b.label);
            let x = run_program(a, &machines[a.machine], &knobs, false);
            let y = run_program(b, &machines[b.machine], &knobs, false);
            assert!(x.failures.is_empty(), "{:?}", x.failures);
            assert_eq!(
                x.deterministic_outputs(),
                y.deterministic_outputs(),
                "{}",
                a.label
            );
            assert!(x.kernel_applications > 0 && !x.decisions.is_empty());
        }
    }
}

#[test]
fn seeds_change_inputs_but_not_shapes() {
    for workload in Workload::ALL {
        let a = workload.round(1, 0);
        let b = workload.round(2, 0);
        let c = workload.round(1, 1);
        let shapes = |programs: &[Program]| {
            let mut sizes: Vec<usize> = programs.iter().map(|p| p.num_qubits).collect();
            sizes.sort_unstable();
            sizes
        };
        assert_eq!(shapes(&a), shapes(&b));
        assert_eq!(shapes(&a), shapes(&c));
        let targets = |programs: &[Program]| {
            format!(
                "{:?}",
                programs.iter().map(|p| &p.target).collect::<Vec<_>>()
            )
        };
        assert_ne!(targets(&a), targets(&b), "{}", workload.name());
    }
}

#[test]
fn tail_leaves_ten_executions_beyond_it_in_every_run() {
    for workload in Workload::ALL {
        let programs = deck(workload, SEED).len();
        let walls: Vec<f64> = (0..programs).map(|i| i as f64).collect();
        let (_, beyond) = tail(&walls, TAIL_PERCENTILE);
        assert!(
            beyond * MIN_PASSES >= 10,
            "{}: {beyond} programs beyond",
            workload.name()
        );
    }
}

#[test]
fn deck_holds_the_quality_round_and_a_seeded_round() {
    for workload in Workload::ALL {
        let labels = |seed: u64| -> Vec<String> {
            deck(workload, seed).into_iter().map(|p| p.label).collect()
        };
        let (a, b) = (labels(SEED), labels(SEED + 1));
        let half = a.len() / 2;
        assert_eq!(a[..half], b[..half], "{}", workload.name());
        assert_eq!(a, labels(SEED), "{}", workload.name());
    }
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let json = benchmark_json();
    let result = RunResult {
        outcomes: vec![Outcome::default()],
        deck_len: 1,
        quality_programs: 1,
        first_setup_s: 1.0,
        setup_samples: vec![1.0],
        elapsed_s: 1.0,
        nondeterministic: Vec::new(),
        untraced_wall_s: vec![1.0],
    };
    let printed = |metrics: Vec<pipebench::report::Metric>| -> Vec<(String, String)> {
        metrics
            .into_iter()
            .map(|m| (m.name, m.unit.to_string()))
            .collect()
    };
    let listed = |section: &str| -> Vec<(String, String)> {
        listed_metrics(&json, section)
            .into_iter()
            .map(|(name, unit, _)| (name, unit))
            .collect()
    };
    assert_eq!(printed(end_to_end(&result).metrics), listed("end_to_end"));
    assert_eq!(printed(per_layer(&result, 1.0)), listed("per_layer"));
    for (name, _, bound) in listed_metrics(&json, "end_to_end") {
        let bound = bound.unwrap_or_else(|| panic!("{name} has no bound"));
        assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
    }
}
