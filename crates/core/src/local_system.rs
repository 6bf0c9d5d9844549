//! Localized mixed equation systems: per-component nonlinear solving and the
//! per-instruction evolution-time analysis (paper §4.2 and §5).

use crate::components::LocalComponent;
use crate::error::CompileError;
use qturbo_aais::{Aais, GeneratorRef, VariableId};
use qturbo_math::{LevenbergMarquardt, NelderMead, Vector};
use std::collections::BTreeMap;

/// Targets below this magnitude are treated as "instruction switched off".
const TARGET_EPSILON: f64 = 1e-12;

/// The position of every variable in `variables`, indexed by
/// [`VariableId::index`]: the residual closures look a variable up in O(1)
/// instead of scanning the list on every evaluation. A repeated variable
/// keeps its first position, as a scan would.
fn slot_table(variables: &[VariableId]) -> Vec<Option<usize>> {
    let len = variables.iter().map(|v| v.index() + 1).max().unwrap_or(0);
    let mut slots = vec![None; len];
    for (pos, var) in variables.iter().enumerate().rev() {
        slots[var.index()] = Some(pos);
    }
    slots
}

/// `id`'s position in the list [`slot_table`] indexed, if it is there.
fn slot_of(slots: &[Option<usize>], id: VariableId) -> Option<usize> {
    slots.get(id.index()).copied().flatten()
}

/// Result of solving one localized mixed system at a fixed evolution time.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSolution {
    /// Solved values of the component's amplitude variables.
    pub values: BTreeMap<VariableId, f64>,
    /// L1 norm of the residual `g_k(x)·T − α_k` over the component equations.
    pub residual_l1: f64,
}

/// How the minimal evolution time of a dynamic instruction was obtained.
#[derive(Debug, Clone, PartialEq)]
pub enum TimingDetail {
    /// All targets were zero; the instruction stays off.
    Idle,
    /// The time-critical variable was absorbed into the evolution time
    /// (paper §5.1 cases 1 and 2).
    Absorbed {
        /// The time-critical variable.
        time_critical: VariableId,
        /// The solved product `w = v·T` of the time-critical variable and the
        /// evolution time.
        scaled_value: f64,
        /// Solved values of the instruction's other variables (e.g. phases).
        others: BTreeMap<VariableId, f64>,
    },
    /// No time-critical variable: the evolution time was minimized directly
    /// under the equation constraints (paper §5.1 case 3).
    Minimized {
        /// Solved values of the instruction's variables at the minimal time.
        values: BTreeMap<VariableId, f64>,
    },
}

/// Minimal-evolution-time analysis of one dynamic instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct InstructionTiming {
    /// Index of the instruction in the AAIS.
    pub instruction: usize,
    /// Shortest machine time at which this instruction can realize its
    /// synthesized-variable targets without violating amplitude bounds.
    pub minimal_time: f64,
    /// Details used to warm-start the subsequent fixed-time solve.
    pub detail: TimingDetail,
}

/// Computes the shortest evolution time at which a dynamic instruction can
/// meet its synthesized-variable targets (paper §5.1).
///
/// `targets` are `(generator, α)` pairs; only those belonging to
/// `instruction_index` are considered.
///
/// # Errors
///
/// Returns [`CompileError::LocalSolveFailed`] when the absorbed system cannot
/// be solved to reasonable accuracy.
pub fn minimal_time_for_instruction(
    aais: &Aais,
    instruction_index: usize,
    targets: &[(GeneratorRef, f64)],
    max_time: f64,
) -> Result<InstructionTiming, CompileError> {
    let instruction = &aais.instructions()[instruction_index];
    let equations: Vec<(GeneratorRef, f64)> = targets
        .iter()
        .filter(|(gref, _)| gref.instruction == instruction_index)
        .copied()
        .collect();

    let all_zero = equations
        .iter()
        .all(|(_, alpha)| alpha.abs() < TARGET_EPSILON);
    if all_zero {
        return Ok(InstructionTiming {
            instruction: instruction_index,
            minimal_time: 0.0,
            detail: TimingDetail::Idle,
        });
    }

    match instruction.time_critical() {
        Some(time_critical) => {
            absorbed_minimal_time(aais, instruction_index, time_critical, &equations)
        }
        None => direct_minimal_time(aais, instruction_index, &equations, max_time),
    }
}

/// Paper §5.1 cases 1–2: absorb the time-critical variable `v` into `w = v·T`,
/// solve the small nonlinear system for `w` and the remaining variables, and
/// derive the minimal time from the hardware bound on `v`.
fn absorbed_minimal_time(
    aais: &Aais,
    instruction_index: usize,
    time_critical: VariableId,
    equations: &[(GeneratorRef, f64)],
) -> Result<InstructionTiming, CompileError> {
    let instruction = &aais.instructions()[instruction_index];
    let registry = aais.registry();
    let tc_variable = registry.get(time_critical);

    // Unknowns: w (the absorbed product) followed by the other variables.
    let other_variables: Vec<VariableId> = instruction
        .variables()
        .iter()
        .copied()
        .filter(|v| *v != time_critical)
        .collect();

    let alpha_scale = equations
        .iter()
        .map(|(_, a)| a.abs())
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let big = 1e6 * alpha_scale;
    // The sign range of w mirrors the sign range of v (Ω ≥ 0 stays ≥ 0).
    let w_lower = if tc_variable.lower() >= 0.0 {
        0.0
    } else {
        -big
    };
    let w_upper = if tc_variable.upper() <= 0.0 { 0.0 } else { big };

    let mut lower = vec![w_lower];
    let mut upper = vec![w_upper];
    let base_initial = alpha_scale.min(w_upper.abs().max(w_lower.abs()));
    for &var in &other_variables {
        let v = registry.get(var);
        lower.push(v.lower());
        upper.push(v.upper());
    }

    let grefs: Vec<GeneratorRef> = equations.iter().map(|(g, _)| *g).collect();
    let alphas: Vec<f64> = equations.iter().map(|(_, a)| *a).collect();
    let aais_ref = aais;
    let other_slots = slot_table(&other_variables);
    let residual_fn = |params: &[f64]| -> Vec<f64> {
        let w = params[0];
        let lookup = |id: VariableId| -> f64 {
            if id == time_critical {
                w
            } else {
                slot_of(&other_slots, id).map_or(0.0, |pos| params[pos + 1])
            }
        };
        grefs
            .iter()
            .zip(alphas.iter())
            .map(|(gref, alpha)| aais_ref.generator(*gref).expr().eval(&lookup) - alpha)
            .collect()
    };

    // The absorbed system is tiny but can have spurious local minima (e.g. a
    // Rabi drive that must point along −X starts with the wrong phase), so a
    // handful of spread starting points over the non-time-critical variables
    // is used and the best result kept.
    let solver = LevenbergMarquardt::new()
        .with_max_iterations(300)
        .with_residual_tolerance(0.5 * (1e-9 * alpha_scale.max(1e-6)).powi(2));
    let tolerance = 1e-8 * alpha_scale.max(1.0) * equations.len() as f64;
    let mut best: Option<qturbo_math::LmOutcome> = None;
    for fraction in [f64::NAN, 0.125, 0.375, 0.625, 0.875] {
        let mut initial = vec![base_initial];
        for &var in &other_variables {
            let v = registry.get(var);
            let guess = if fraction.is_nan() {
                v.initial_guess()
            } else {
                v.lower() + fraction * (v.upper() - v.lower())
            };
            initial.push(guess);
        }
        let outcome = solver
            .solve(&residual_fn, Vector::from(initial), &lower, &upper)
            .map_err(CompileError::from)?;
        let better = best
            .as_ref()
            .is_none_or(|b| outcome.residual_l1() < b.residual_l1());
        if better {
            best = Some(outcome);
        }
        if best.as_ref().is_some_and(|b| b.residual_l1() < tolerance) {
            break;
        }
    }
    let outcome = best.ok_or_else(|| CompileError::LocalSolveFailed {
        component: instruction.name().to_string(),
        residual: f64::INFINITY,
    })?;
    let residual = outcome.residual_l1();
    if residual > 1e-6 * alpha_scale.max(1.0) * equations.len() as f64 {
        return Err(CompileError::LocalSolveFailed {
            component: instruction.name().to_string(),
            residual,
        });
    }

    let w = outcome.solution[0];
    let limit = if w >= 0.0 {
        tc_variable.upper().abs()
    } else {
        tc_variable.lower().abs()
    };
    let minimal_time = if limit > 0.0 {
        w.abs() / limit
    } else {
        f64::INFINITY
    };

    let mut others = BTreeMap::new();
    for (pos, &var) in other_variables.iter().enumerate() {
        others.insert(var, outcome.solution[pos + 1]);
    }

    Ok(InstructionTiming {
        instruction: instruction_index,
        minimal_time,
        detail: TimingDetail::Absorbed {
            time_critical,
            scaled_value: w,
            others,
        },
    })
}

/// Paper §5.1 case 3: no time-critical variable — minimize the evolution time
/// directly with a penalty formulation.
fn direct_minimal_time(
    aais: &Aais,
    instruction_index: usize,
    equations: &[(GeneratorRef, f64)],
    max_time: f64,
) -> Result<InstructionTiming, CompileError> {
    let instruction = &aais.instructions()[instruction_index];
    let registry = aais.registry();
    let variables: Vec<VariableId> = instruction.variables().to_vec();

    let mut lower = Vec::with_capacity(variables.len() + 1);
    let mut upper = Vec::with_capacity(variables.len() + 1);
    let mut initial = Vec::with_capacity(variables.len() + 1);
    for &var in &variables {
        let v = registry.get(var);
        lower.push(v.lower());
        upper.push(v.upper());
        initial.push(v.initial_guess());
    }
    // The last parameter is the evolution time itself.
    lower.push(0.0);
    upper.push(max_time);
    initial.push(max_time * 0.5);

    let alpha_scale = equations
        .iter()
        .map(|(_, a)| a.abs())
        .fold(0.0_f64, f64::max)
        .max(1.0);
    let grefs: Vec<GeneratorRef> = equations.iter().map(|(g, _)| *g).collect();
    let alphas: Vec<f64> = equations.iter().map(|(_, a)| *a).collect();
    let penalty_weight = 1e5 * alpha_scale;

    let slots = slot_table(&variables);
    let objective = |params: &[f64]| -> f64 {
        let time = params[variables.len()];
        let lookup = |id: VariableId| -> f64 { slot_of(&slots, id).map_or(0.0, |pos| params[pos]) };
        let mut penalty = 0.0;
        for (gref, alpha) in grefs.iter().zip(alphas.iter()) {
            let value = aais.generator(*gref).expr().eval(&lookup) * time;
            penalty += (value - alpha).powi(2);
        }
        penalty_weight * penalty + time
    };

    let outcome = NelderMead::new()
        .with_max_iterations(4000)
        .minimize(&objective, Vector::from(initial), &lower, &upper)
        .map_err(CompileError::from)?;

    let minimal_time = outcome.solution[variables.len()];
    // Check the constraints are actually met at the reported minimum.
    let lookup =
        |id: VariableId| -> f64 { slot_of(&slots, id).map_or(0.0, |pos| outcome.solution[pos]) };
    let residual: f64 = grefs
        .iter()
        .zip(alphas.iter())
        .map(|(gref, alpha)| {
            (aais.generator(*gref).expr().eval(&lookup) * minimal_time - alpha).abs()
        })
        .sum();
    if residual > 1e-3 * alpha_scale * equations.len() as f64 {
        return Err(CompileError::LocalSolveFailed {
            component: instruction.name().to_string(),
            residual,
        });
    }

    let mut values = BTreeMap::new();
    for (pos, &var) in variables.iter().enumerate() {
        values.insert(var, outcome.solution[pos]);
    }

    Ok(InstructionTiming {
        instruction: instruction_index,
        minimal_time,
        detail: TimingDetail::Minimized { values },
    })
}

/// Solves one localized mixed system at a fixed evolution time: find variable
/// values such that `g_k(x)·T = α_k` for every generator in the component.
///
/// `warm_start` overrides the registry initial guesses for selected variables
/// (used with the values suggested by the timing analysis).
///
/// # Errors
///
/// Returns [`CompileError::Numerical`] when the underlying solver fails; a
/// large residual is *not* an error here — it is reported in the solution and
/// contributes to the compilation error metric.
pub fn solve_component_at_time(
    aais: &Aais,
    component: &LocalComponent,
    targets: &[(GeneratorRef, f64)],
    time: f64,
    warm_start: Option<&BTreeMap<VariableId, f64>>,
) -> Result<LocalSolution, CompileError> {
    let registry = aais.registry();
    let variables = &component.variables;

    let equations: Vec<(GeneratorRef, f64)> = targets
        .iter()
        .filter(|(gref, _)| component.generators.contains(gref))
        .copied()
        .collect();
    if equations.is_empty() || variables.is_empty() {
        return Ok(LocalSolution {
            values: BTreeMap::new(),
            residual_l1: 0.0,
        });
    }

    // If every target is zero the component can simply stay switched off when
    // it is dynamic (amplitude zero is always admissible); runtime-fixed
    // components (atom positions) still need a feasible geometry, handled by
    // the general path below.
    let all_zero = equations.iter().all(|(_, a)| a.abs() < TARGET_EPSILON);
    if all_zero && component.is_dynamic() {
        let mut values = BTreeMap::new();
        for &var in variables {
            let v = registry.get(var);
            values.insert(var, 0.0_f64.clamp(v.lower(), v.upper()));
        }
        let residual_l1 = residual_for(aais, &equations, &values, time);
        return Ok(LocalSolution {
            values,
            residual_l1,
        });
    }

    let mut lower = Vec::with_capacity(variables.len());
    let mut upper = Vec::with_capacity(variables.len());
    let mut initial = Vec::with_capacity(variables.len());
    for &var in variables {
        let v = registry.get(var);
        lower.push(v.lower());
        upper.push(v.upper());
        let guess = warm_start
            .and_then(|w| w.get(&var).copied())
            .unwrap_or(v.initial_guess());
        initial.push(guess.clamp(v.lower(), v.upper()));
    }

    let grefs: Vec<GeneratorRef> = equations.iter().map(|(g, _)| *g).collect();
    let alphas: Vec<f64> = equations.iter().map(|(_, a)| *a).collect();
    let slots = slot_table(variables);
    let residual_fn = |params: &[f64]| -> Vec<f64> {
        let lookup = |id: VariableId| -> f64 { slot_of(&slots, id).map_or(0.0, |pos| params[pos]) };
        grefs
            .iter()
            .zip(alphas.iter())
            .map(|(gref, alpha)| aais.generator(*gref).expr().eval(&lookup) * time - alpha)
            .collect()
    };

    // Tolerance relative to the magnitude of the targets so that targets with
    // small coefficients are still met to high *relative* accuracy.
    let alpha_scale = alphas
        .iter()
        .map(|a| a.abs())
        .fold(0.0_f64, f64::max)
        .max(1e-6);
    let solver = LevenbergMarquardt::new()
        .with_max_iterations(250)
        .with_residual_tolerance(0.5 * (1e-9 * alpha_scale).powi(2));
    let mut outcome = solver
        .solve(&residual_fn, Vector::from(initial), &lower, &upper)
        .map_err(CompileError::from)?;

    // Small components occasionally land in a spurious local minimum (phases
    // with the wrong sign); retry from a few spread starting points.
    let alpha_scale = alpha_scale.max(1.0);
    let acceptable = 1e-6 * alpha_scale * equations.len() as f64;
    if outcome.residual_l1() > acceptable && variables.len() <= 6 {
        for fraction in [0.125, 0.375, 0.625, 0.875] {
            let spread: Vec<f64> = variables
                .iter()
                .map(|&var| {
                    let v = registry.get(var);
                    v.lower() + fraction * (v.upper() - v.lower())
                })
                .collect();
            let retry = solver
                .solve(&residual_fn, Vector::from(spread), &lower, &upper)
                .map_err(CompileError::from)?;
            if retry.residual_l1() < outcome.residual_l1() {
                outcome = retry;
            }
            if outcome.residual_l1() < acceptable {
                break;
            }
        }
    }

    let mut values = BTreeMap::new();
    for (pos, &var) in variables.iter().enumerate() {
        values.insert(var, outcome.solution[pos]);
    }
    let residual_l1 = residual_for(aais, &equations, &values, time);
    Ok(LocalSolution {
        values,
        residual_l1,
    })
}

/// L1 residual of a component's equations for a concrete variable assignment.
pub fn residual_for(
    aais: &Aais,
    equations: &[(GeneratorRef, f64)],
    values: &BTreeMap<VariableId, f64>,
    time: f64,
) -> f64 {
    let lookup = |id: VariableId| values.get(&id).copied().unwrap_or(0.0);
    equations
        .iter()
        .map(|(gref, alpha)| (aais.generator(*gref).expr().eval(&lookup) * time - alpha).abs())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::partition;
    use qturbo_aais::heisenberg::{heisenberg_aais, HeisenbergOptions};
    use qturbo_aais::rydberg::{rydberg_aais, RydbergOptions};

    fn rydberg3() -> Aais {
        rydberg_aais(
            3,
            &RydbergOptions {
                interaction_cutoff: None,
                ..RydbergOptions::default()
            },
        )
    }

    fn gref_of(aais: &Aais, name: &str, generator: usize) -> GeneratorRef {
        let instruction = aais
            .instructions()
            .iter()
            .position(|i| i.name() == name)
            .unwrap_or_else(|| panic!("instruction {name} not found"));
        GeneratorRef {
            instruction,
            generator,
        }
    }

    #[test]
    fn detuning_minimal_time_matches_paper_case_1() {
        // Paper §5.1 case 1: Δ/2 · T = 1 with Δ_max = 20 MHz ⇒ T = 0.1 µs.
        let aais = rydberg3();
        let gref = gref_of(&aais, "detuning_0", 0);
        let timing =
            minimal_time_for_instruction(&aais, gref.instruction, &[(gref, 1.0)], 4.0).unwrap();
        assert!(
            (timing.minimal_time - 0.1).abs() < 1e-6,
            "T was {}",
            timing.minimal_time
        );
        match timing.detail {
            TimingDetail::Absorbed { scaled_value, .. } => {
                assert!((scaled_value - 2.0).abs() < 1e-6)
            }
            _ => panic!("expected absorbed detail"),
        }
    }

    #[test]
    fn rabi_minimal_time_matches_paper_case_2() {
        // Paper §5.1 case 2: Ω/2 cos φ · T = 1, Ω/2 sin φ · T = 0 with
        // Ω_max = 2.5 MHz ⇒ T = 0.8 µs, φ = 0.
        let aais = rydberg3();
        let cos_ref = gref_of(&aais, "rabi_0", 0);
        let sin_ref = gref_of(&aais, "rabi_0", 1);
        let timing = minimal_time_for_instruction(
            &aais,
            cos_ref.instruction,
            &[(cos_ref, 1.0), (sin_ref, 0.0)],
            4.0,
        )
        .unwrap();
        assert!(
            (timing.minimal_time - 0.8).abs() < 1e-4,
            "T was {}",
            timing.minimal_time
        );
        match timing.detail {
            TimingDetail::Absorbed {
                scaled_value,
                others,
                ..
            } => {
                assert!((scaled_value - 2.0).abs() < 1e-4);
                let phi = *others.values().next().unwrap();
                assert!(phi.abs() < 1e-4);
            }
            _ => panic!("expected absorbed detail"),
        }
    }

    #[test]
    fn detuning_second_qubit_needs_twice_the_time() {
        // Paper: Δ₂/2 · T = 2 (α₅ = 2) ⇒ T = 0.2 µs.
        let aais = rydberg3();
        let gref = gref_of(&aais, "detuning_1", 0);
        let timing =
            minimal_time_for_instruction(&aais, gref.instruction, &[(gref, 2.0)], 4.0).unwrap();
        assert!((timing.minimal_time - 0.2).abs() < 1e-6);
    }

    #[test]
    fn idle_instruction_needs_no_time() {
        let aais = rydberg3();
        let gref = gref_of(&aais, "rabi_2", 0);
        let timing =
            minimal_time_for_instruction(&aais, gref.instruction, &[(gref, 0.0)], 4.0).unwrap();
        assert_eq!(timing.minimal_time, 0.0);
        assert_eq!(timing.detail, TimingDetail::Idle);
    }

    #[test]
    fn heisenberg_amplitude_sign_uses_negative_bound() {
        // A negative target uses the negative amplitude range: a·T = −3 with
        // |a| ≤ 2 ⇒ T = 1.5.
        let aais = heisenberg_aais(2, &HeisenbergOptions::default());
        let gref = gref_of(&aais, "coupling_Z_0_1", 0);
        let timing =
            minimal_time_for_instruction(&aais, gref.instruction, &[(gref, -3.0)], 100.0).unwrap();
        assert!((timing.minimal_time - 1.5).abs() < 1e-6);
    }

    #[test]
    fn solve_rabi_component_at_fixed_time() {
        // With T = 0.8 µs the Rabi targets (1, 0) give Ω = 2.5 MHz, φ = 0.
        let aais = rydberg3();
        let components = partition(&aais, true);
        let cos_ref = gref_of(&aais, "rabi_0", 0);
        let sin_ref = gref_of(&aais, "rabi_0", 1);
        let component = components
            .iter()
            .find(|c| c.generators.contains(&cos_ref))
            .expect("rabi component exists");
        let solution = solve_component_at_time(
            &aais,
            component,
            &[(cos_ref, 1.0), (sin_ref, 0.0)],
            0.8,
            None,
        )
        .unwrap();
        assert!(solution.residual_l1 < 1e-6);
        let omega_id = aais
            .registry()
            .iter()
            .find(|v| v.name() == "Omega_0")
            .unwrap()
            .id();
        let phi_id = aais
            .registry()
            .iter()
            .find(|v| v.name() == "phi_0")
            .unwrap()
            .id();
        assert!((solution.values[&omega_id] - 2.5).abs() < 1e-4);
        assert!(solution.values[&phi_id].abs() < 1e-4);
    }

    #[test]
    fn solve_position_component_reproduces_paper_geometry() {
        // Paper §5.2: with T = 0.8 µs, vdW targets (1, 1, 0) give a chain with
        // spacing ≈ 7.46 µm.
        let options = RydbergOptions {
            interaction_cutoff: None,
            ..RydbergOptions::one_dimensional()
        };
        let aais = rydberg_aais(3, &options);
        let components = partition(&aais, true);
        let fixed = components
            .iter()
            .find(|c| c.is_fixed())
            .expect("fixed component");
        let targets = vec![
            (gref_of(&aais, "vdw_0_1", 0), 1.0),
            (gref_of(&aais, "vdw_1_2", 0), 1.0),
            (gref_of(&aais, "vdw_0_2", 0), 0.0),
        ];
        let solution = solve_component_at_time(&aais, fixed, &targets, 0.8, None).unwrap();
        // Residual is dominated by the unavoidable 0→(0.02) tail of the
        // third equation (paper §6.2 reports α₃ = 0.020).
        assert!(
            solution.residual_l1 < 0.05,
            "residual {}",
            solution.residual_l1
        );
        let x: Vec<f64> = aais
            .site_positions()
            .iter()
            .map(|coords| solution.values[&coords[0]])
            .collect();
        let spacing_01 = (x[1] - x[0]).abs();
        let spacing_12 = (x[2] - x[1]).abs();
        assert!((spacing_01 - 7.46).abs() < 0.1, "spacing {spacing_01}");
        assert!((spacing_12 - 7.46).abs() < 0.1, "spacing {spacing_12}");
    }

    #[test]
    fn zero_targets_turn_dynamic_components_off() {
        let aais = rydberg3();
        let components = partition(&aais, true);
        let cos_ref = gref_of(&aais, "rabi_1", 0);
        let sin_ref = gref_of(&aais, "rabi_1", 1);
        let component = components
            .iter()
            .find(|c| c.generators.contains(&cos_ref))
            .unwrap();
        let solution = solve_component_at_time(
            &aais,
            component,
            &[(cos_ref, 0.0), (sin_ref, 0.0)],
            0.8,
            None,
        )
        .unwrap();
        assert!(solution.residual_l1 < 1e-12);
        assert!(solution.values.values().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn warm_start_is_respected() {
        let aais = rydberg3();
        let components = partition(&aais, true);
        let cos_ref = gref_of(&aais, "rabi_0", 0);
        let sin_ref = gref_of(&aais, "rabi_0", 1);
        let component = components
            .iter()
            .find(|c| c.generators.contains(&cos_ref))
            .unwrap();
        let omega_id = aais
            .registry()
            .iter()
            .find(|v| v.name() == "Omega_0")
            .unwrap()
            .id();
        let mut warm = BTreeMap::new();
        warm.insert(omega_id, 2.5);
        let solution = solve_component_at_time(
            &aais,
            component,
            &[(cos_ref, 1.0), (sin_ref, 0.0)],
            0.8,
            Some(&warm),
        )
        .unwrap();
        assert!(solution.residual_l1 < 1e-6);
    }
}
