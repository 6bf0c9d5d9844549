//! Symbolic coefficient expressions over device variables.
//!
//! Each analog instruction contributes Hamiltonian terms whose strengths are
//! algebraic expressions of the device variables — for example the Van der
//! Waals coupling `C6 / |x_i − x_j|⁶` or the Rabi drive `Ω/2 · cos φ`. The
//! compiler needs to evaluate these expressions, discover which variables they
//! depend on, and (for evolution-time optimization) factor out the
//! time-critical variable. A small expression tree covers all of that without
//! pulling in a computer-algebra dependency.

use crate::variable::VariableId;
use std::collections::BTreeSet;
use std::fmt;

/// A symbolic expression over device variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal constant.
    Constant(f64),
    /// A device variable.
    Var(VariableId),
    /// Sum of sub-expressions.
    Sum(Vec<Expr>),
    /// Product of sub-expressions.
    Product(Vec<Expr>),
    /// Negation.
    Neg(Box<Expr>),
    /// Integer power (may be negative, e.g. `r⁻⁶`).
    Pow(Box<Expr>, i32),
    /// Absolute value.
    Abs(Box<Expr>),
    /// Cosine.
    Cos(Box<Expr>),
    /// Sine.
    Sin(Box<Expr>),
}

impl Expr {
    /// Convenience constructor for a constant.
    pub fn constant(value: f64) -> Expr {
        Expr::Constant(value)
    }

    /// Convenience constructor for a variable.
    pub fn var(id: VariableId) -> Expr {
        Expr::Var(id)
    }

    /// `factor · expr`.
    pub fn scaled(self, factor: f64) -> Expr {
        Expr::Product(vec![Expr::Constant(factor), self])
    }

    /// `a − b`.
    pub fn difference(a: Expr, b: Expr) -> Expr {
        Expr::Sum(vec![a, Expr::Neg(Box::new(b))])
    }

    /// The Van der Waals style coupling `constant / |a − b|^power`.
    pub fn inverse_power_distance(constant: f64, a: VariableId, b: VariableId, power: i32) -> Expr {
        Expr::Product(vec![
            Expr::Constant(constant),
            Expr::Pow(
                Box::new(Expr::Abs(Box::new(Expr::difference(
                    Expr::var(a),
                    Expr::var(b),
                )))),
                -power,
            ),
        ])
    }

    /// Evaluates the expression with variable values provided by `lookup`.
    pub fn eval<F>(&self, lookup: &F) -> f64
    where
        F: Fn(VariableId) -> f64,
    {
        match self {
            Expr::Constant(c) => *c,
            Expr::Var(id) => lookup(*id),
            Expr::Sum(terms) => terms.iter().map(|t| t.eval(lookup)).sum(),
            Expr::Product(factors) => factors.iter().map(|f| f.eval(lookup)).product(),
            Expr::Neg(inner) => -inner.eval(lookup),
            Expr::Pow(base, exponent) => {
                let b = base.eval(lookup);
                if *exponent >= 0 {
                    b.powi(*exponent)
                } else {
                    // Guard against division by zero when two atoms coincide
                    // during an intermediate solver step.
                    let denom = b.powi(-*exponent);
                    if denom.abs() < 1e-300 {
                        f64::MAX.sqrt()
                    } else {
                        1.0 / denom
                    }
                }
            }
            Expr::Abs(inner) => inner.eval(lookup).abs(),
            Expr::Cos(inner) => inner.eval(lookup).cos(),
            Expr::Sin(inner) => inner.eval(lookup).sin(),
        }
    }

    /// Evaluates using a dense slice indexed by [`VariableId::index`].
    pub fn eval_slice(&self, values: &[f64]) -> f64 {
        self.eval(&|id: VariableId| values[id.index()])
    }

    /// Collects every variable the expression depends on.
    pub fn variables(&self) -> BTreeSet<VariableId> {
        let mut out = BTreeSet::new();
        self.collect_variables(&mut out);
        out
    }

    fn collect_variables(&self, out: &mut BTreeSet<VariableId>) {
        match self {
            Expr::Constant(_) => {}
            Expr::Var(id) => {
                out.insert(*id);
            }
            Expr::Sum(items) | Expr::Product(items) => {
                for item in items {
                    item.collect_variables(out);
                }
            }
            Expr::Neg(inner)
            | Expr::Pow(inner, _)
            | Expr::Abs(inner)
            | Expr::Cos(inner)
            | Expr::Sin(inner) => inner.collect_variables(out),
        }
    }

    /// Returns `true` when the expression is linear and homogeneous in `id`,
    /// i.e. of the form `id · f(other variables)`.
    ///
    /// The evolution-time optimization (paper §5.1) relies on the generator of
    /// a runtime-dynamic instruction having this structure so that the
    /// time-critical variable can be absorbed into the evolution time. The
    /// check is numerical: the expression must vanish at `id = 0` and scale
    /// linearly with `id` at two probe points, for several random assignments
    /// of the other variables.
    pub fn is_linear_homogeneous_in(&self, id: VariableId) -> bool {
        if !self.variables().contains(&id) {
            return false;
        }
        let others: Vec<VariableId> = self.variables().into_iter().filter(|v| *v != id).collect();
        // Deterministic pseudo-random probe values.
        let mut seed = 0x9E3779B97F4A7C15_u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            ((seed >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 0.5
        };
        for _ in 0..4 {
            let assignment: Vec<(VariableId, f64)> = others.iter().map(|&v| (v, next())).collect();
            let eval_at = |value: f64| {
                self.eval(&|v: VariableId| {
                    if v == id {
                        value
                    } else {
                        assignment
                            .iter()
                            .find(|(other, _)| *other == v)
                            .map(|(_, x)| *x)
                            .unwrap_or(0.0)
                    }
                })
            };
            let f0 = eval_at(0.0);
            let f1 = eval_at(1.0);
            let f2 = eval_at(2.0);
            let scale = f1.abs().max(f2.abs()).max(1e-12);
            if f0.abs() > 1e-9 * scale || (f2 - 2.0 * f1).abs() > 1e-7 * scale {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Constant(c) => write!(f, "{c}"),
            Expr::Var(id) => write!(f, "{id}"),
            Expr::Sum(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Expr::Product(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Expr::Neg(inner) => write!(f, "-({inner})"),
            Expr::Pow(base, e) => write!(f, "({base})^{e}"),
            Expr::Abs(inner) => write!(f, "|{inner}|"),
            Expr::Cos(inner) => write!(f, "cos({inner})"),
            Expr::Sin(inner) => write!(f, "sin({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::{VariableKind, VariableRegistry};

    fn registry_with(n: usize) -> (VariableRegistry, Vec<VariableId>) {
        let mut reg = VariableRegistry::new();
        let ids = (0..n)
            .map(|i| {
                reg.register(
                    format!("v{i}"),
                    VariableKind::RuntimeDynamic,
                    -100.0,
                    100.0,
                    0.0,
                )
            })
            .collect();
        (reg, ids)
    }

    #[test]
    fn evaluates_basic_arithmetic() {
        let (_reg, ids) = registry_with(2);
        let expr = Expr::Sum(vec![
            Expr::var(ids[0]).scaled(2.0),
            Expr::Neg(Box::new(Expr::var(ids[1]))),
            Expr::constant(1.0),
        ]);
        assert_eq!(expr.eval_slice(&[3.0, 4.0]), 3.0);
        assert_eq!(expr.variables().len(), 2);
    }

    #[test]
    fn evaluates_trig_and_powers() {
        let (_reg, ids) = registry_with(2);
        // Omega/2 * cos(phi)
        let expr = Expr::Product(vec![
            Expr::var(ids[0]),
            Expr::constant(0.5),
            Expr::Cos(Box::new(Expr::var(ids[1]))),
        ]);
        let v = expr.eval_slice(&[2.5, 0.0]);
        assert!((v - 1.25).abs() < 1e-15);
        let p = Expr::Pow(Box::new(Expr::constant(2.0)), 3);
        assert_eq!(p.eval_slice(&[]), 8.0);
        let s = Expr::Sin(Box::new(Expr::constant(std::f64::consts::FRAC_PI_2)));
        assert!((s.eval_slice(&[]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn van_der_waals_expression() {
        let (_reg, ids) = registry_with(2);
        let c6 = 862690.0;
        let expr = Expr::inverse_power_distance(c6 / 4.0, ids[0], ids[1], 6);
        let r: f64 = 7.46;
        let value = expr.eval_slice(&[0.0, r]);
        let expected = c6 / (4.0 * r.powi(6));
        assert!((value - expected).abs() / expected < 1e-12);
        // Symmetric in the two positions.
        let swapped = expr.eval_slice(&[r, 0.0]);
        assert!((swapped - expected).abs() / expected < 1e-12);
        // Coinciding atoms do not produce infinity.
        assert!(expr.eval_slice(&[1.0, 1.0]).is_finite());
    }

    #[test]
    fn linear_homogeneity_detection() {
        let (_reg, ids) = registry_with(3);
        // Omega * cos(phi) / 2 is linear homogeneous in Omega but not in phi.
        let rabi = Expr::Product(vec![
            Expr::var(ids[0]),
            Expr::constant(0.5),
            Expr::Cos(Box::new(Expr::var(ids[1]))),
        ]);
        assert!(rabi.is_linear_homogeneous_in(ids[0]));
        assert!(!rabi.is_linear_homogeneous_in(ids[1]));
        assert!(!rabi.is_linear_homogeneous_in(ids[2])); // not even present

        // Delta / 2 is linear homogeneous in Delta.
        let detuning = Expr::var(ids[2]).scaled(0.5);
        assert!(detuning.is_linear_homogeneous_in(ids[2]));

        // Delta/2 + 1 is not homogeneous.
        let shifted = Expr::Sum(vec![Expr::var(ids[2]).scaled(0.5), Expr::constant(1.0)]);
        assert!(!shifted.is_linear_homogeneous_in(ids[2]));

        // Quadratic is not linear.
        let quad = Expr::Pow(Box::new(Expr::var(ids[0])), 2);
        assert!(!quad.is_linear_homogeneous_in(ids[0]));
    }

    #[test]
    fn display_is_readable() {
        let (_reg, ids) = registry_with(2);
        let expr = Expr::Product(vec![
            Expr::constant(0.5),
            Expr::var(ids[0]),
            Expr::Cos(Box::new(Expr::var(ids[1]))),
        ]);
        let text = expr.to_string();
        assert!(text.contains("cos"));
        assert!(text.contains("v0"));
        let vdw = Expr::inverse_power_distance(1.0, ids[0], ids[1], 6);
        assert!(vdw.to_string().contains("^-6"));
        assert!(Expr::Neg(Box::new(Expr::constant(1.0)))
            .to_string()
            .contains('-'));
        assert!(Expr::Sum(vec![Expr::constant(1.0), Expr::constant(2.0)])
            .to_string()
            .contains('+'));
    }
}
