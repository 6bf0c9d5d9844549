//! Numerical Jacobians of vector-valued functions.

use crate::matrix::Matrix;
use crate::vector::Vector;

/// Computes the Jacobian of `f` at `x` by central finite differences.
///
/// `f` maps an `n`-vector to an `m`-vector; the result is an `m × n` matrix
/// with `J[(i, j)] = ∂f_i/∂x_j`.
///
/// The step size is scaled with the magnitude of each coordinate, which keeps
/// the approximation stable both for atom positions (tens of micrometres) and
/// for pulse amplitudes (around unity in the compiler's internal units).
///
/// # Example
///
/// ```
/// use qturbo_math::{numerical_jacobian, Vector};
/// let f = |x: &[f64]| vec![x[0] * x[0], x[0] * x[1]];
/// let j = numerical_jacobian(&f, &Vector::from(vec![2.0, 3.0]), 2);
/// assert!((j[(0, 0)] - 4.0).abs() < 1e-6);
/// assert!((j[(1, 0)] - 3.0).abs() < 1e-6);
/// assert!((j[(1, 1)] - 2.0).abs() < 1e-6);
/// ```
pub fn numerical_jacobian<F>(f: &F, x: &Vector, output_len: usize) -> Matrix
where
    F: Fn(&[f64]) -> Vec<f64>,
{
    let n = x.len();
    let mut jac = Matrix::zeros(output_len, n);
    let mut xp = x.as_slice().to_vec();
    let mut xm = x.as_slice().to_vec();
    for j in 0..n {
        let h = step_for(x[j]);
        xp[j] = x[j] + h;
        xm[j] = x[j] - h;
        let fp = f(&xp);
        let fm = f(&xm);
        debug_assert_eq!(fp.len(), output_len, "function output length mismatch");
        debug_assert_eq!(fm.len(), output_len, "function output length mismatch");
        for i in 0..output_len {
            jac[(i, j)] = (fp[i] - fm[i]) / (2.0 * h);
        }
        xp[j] = x[j];
        xm[j] = x[j];
    }
    jac
}

fn step_for(value: f64) -> f64 {
    let eps = f64::EPSILON.cbrt();
    eps * value.abs().max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobian_of_linear_map_is_its_matrix() {
        let f = |x: &[f64]| vec![2.0 * x[0] + 3.0 * x[1], -x[0] + 4.0 * x[1]];
        let j = numerical_jacobian(&f, &Vector::from(vec![10.0, -5.0]), 2);
        assert!((j[(0, 0)] - 2.0).abs() < 1e-6);
        assert!((j[(0, 1)] - 3.0).abs() < 1e-6);
        assert!((j[(1, 0)] + 1.0).abs() < 1e-6);
        assert!((j[(1, 1)] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn jacobian_of_inverse_sixth_power() {
        // d/dr (r^-6) = -6 r^-7, the derivative shape that appears in the Van
        // der Waals instruction of the Rydberg AAIS.
        let f = |x: &[f64]| vec![x[0].powi(-6)];
        let r = 7.46;
        let j = numerical_jacobian(&f, &Vector::from(vec![r]), 1);
        let expected = -6.0 * r.powi(-7);
        assert!((j[(0, 0)] - expected).abs() / expected.abs() < 1e-5);
    }
}
