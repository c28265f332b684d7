//! Iterative solvers for sparse symmetric positive-definite systems.

use crate::error::LinalgError;
use crate::precond::{IdentityPreconditioner, Preconditioner};
use crate::sparse::CsrMatrix;
use crate::vector::{axpy, dot, norm2};

/// Iteration budget and stopping tolerance for the iterative solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterativeConfig {
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
    /// Convergence declared when `‖r‖₂ ≤ tolerance · ‖b‖₂`.
    pub relative_tolerance: f64,
}

impl Default for IterativeConfig {
    fn default() -> Self {
        Self {
            max_iterations: 10_000,
            relative_tolerance: 1e-10,
        }
    }
}

impl IterativeConfig {
    /// Creates a config, validating its parameters.
    ///
    /// # Panics
    ///
    /// Panics if `max_iterations` is zero or the tolerance is not positive.
    #[must_use]
    pub fn new(max_iterations: usize, relative_tolerance: f64) -> Self {
        assert!(max_iterations > 0, "need at least one iteration");
        assert!(
            relative_tolerance > 0.0,
            "relative tolerance must be positive, got {relative_tolerance}"
        );
        Self {
            max_iterations,
            relative_tolerance,
        }
    }
}

/// Outcome of an iterative solve: the solution plus convergence telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The computed solution vector.
    pub solution: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual 2-norm `‖b − A·x‖₂`.
    pub residual_norm: f64,
}

fn check_system(a: &CsrMatrix, b: &[f64]) -> Result<(), LinalgError> {
    if a.rows() != a.cols() {
        return Err(LinalgError::InvalidInput {
            reason: format!(
                "iterative solve needs a square matrix, got {}×{}",
                a.rows(),
                a.cols()
            ),
        });
    }
    if b.len() != a.rows() {
        return Err(LinalgError::DimensionMismatch {
            operation: "iterative solve",
            expected: a.rows(),
            actual: b.len(),
        });
    }
    Ok(())
}

/// Solves `A·x = b` by plain conjugate gradients (`A` must be SPD).
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] / [`LinalgError::DimensionMismatch`] for
///   malformed systems.
/// * [`LinalgError::NotConverged`] if the iteration budget runs out.
pub fn solve_cg(
    a: &CsrMatrix,
    b: &[f64],
    config: &IterativeConfig,
) -> Result<SolveReport, LinalgError> {
    solve_pcg(a, b, &IdentityPreconditioner, config)
}

/// Solves `A·x = b` by preconditioned conjugate gradients (`A` must be SPD,
/// `m` an SPD preconditioner).
///
/// # Errors
///
/// * [`LinalgError::InvalidInput`] / [`LinalgError::DimensionMismatch`] for
///   malformed systems.
/// * [`LinalgError::NotConverged`] if the iteration budget runs out.
pub fn solve_pcg<P: Preconditioner + ?Sized>(
    a: &CsrMatrix,
    b: &[f64],
    m: &P,
    config: &IterativeConfig,
) -> Result<SolveReport, LinalgError> {
    check_system(a, b)?;
    let n = b.len();
    let mut x = vec![0.0; n];
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok(SolveReport {
            solution: x,
            iterations: 0,
            residual_norm: 0.0,
        });
    }
    let target = config.relative_tolerance * b_norm;

    // x starts at zero, so the initial residual is b itself.
    let mut r = b.to_vec();
    let mut z = vec![0.0; n];
    let mut ap = vec![0.0; n];
    m.apply(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);

    for iter in 0..config.max_iterations {
        let r_norm = norm2(&r);
        if r_norm <= target {
            return Ok(SolveReport {
                solution: x,
                iterations: iter,
                residual_norm: r_norm,
            });
        }
        a.matvec_into(&p, &mut ap);
        let pap = dot(&p, &ap);
        if pap <= 0.0 {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "matrix is not positive-definite (pᵀAp = {pap:.3e} at iteration {iter})"
                ),
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        m.apply(&r, &mut z);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }

    let residual = norm2(&r);
    if residual <= target {
        Ok(SolveReport {
            solution: x,
            iterations: config.max_iterations,
            residual_norm: residual,
        })
    } else {
        Err(LinalgError::NotConverged {
            iterations: config.max_iterations,
            residual,
            tolerance: target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multigrid::MultigridPreconditioner;
    use crate::sparse::CooBuilder;

    /// 1-D Poisson matrix: SPD, tridiagonal.
    fn poisson(n: usize) -> CsrMatrix {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 2.0);
            if i + 1 < n {
                coo.add(i, i + 1, -1.0);
                coo.add(i + 1, i, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 50;
        let a = poisson(n);
        let b = vec![1.0; n];
        let report = solve_cg(&a, &b, &IterativeConfig::default()).unwrap();
        assert!(report.residual_norm <= 1e-10 * norm2(&b));
        assert!(a.residual_norm(&report.solution, &b).unwrap() < 1e-8);
    }

    #[test]
    fn cg_converges_in_at_most_n_iterations_exactly() {
        // CG terminates in ≤ n steps in exact arithmetic; allow slack for
        // rounding but it must be the same order.
        let n = 30;
        let a = poisson(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 - 2.0).collect();
        let report = solve_cg(&a, &b, &IterativeConfig::new(2 * n, 1e-12)).unwrap();
        assert!(report.iterations <= n + 5, "took {}", report.iterations);
    }

    #[test]
    fn preconditioning_reduces_iterations() {
        let n = 200;
        let a = poisson(n);
        let b = vec![1.0; n];
        let cfg = IterativeConfig::new(10_000, 1e-10);
        let plain = solve_cg(&a, &b, &cfg).unwrap();
        let mg = solve_pcg(&a, &b, &MultigridPreconditioner::new(&a).unwrap(), &cfg).unwrap();
        assert!(
            mg.iterations < plain.iterations,
            "multigrid {} vs plain {}",
            mg.iterations,
            plain.iterations
        );
        // Both must agree with each other.
        for (x, y) in plain.solution.iter().zip(&mg.solution) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = poisson(5);
        let report = solve_cg(&a, &[0.0; 5], &IterativeConfig::default()).unwrap();
        assert_eq!(report.solution, vec![0.0; 5]);
        assert_eq!(report.iterations, 0);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(0, 0, 1.0);
        coo.add(1, 1, -1.0);
        let a = coo.to_csr();
        let err = solve_cg(&a, &[1.0, 1.0], &IterativeConfig::default()).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let n = 100;
        let a = poisson(n);
        let b = vec![1.0; n];
        let err = solve_cg(&a, &b, &IterativeConfig::new(2, 1e-14)).unwrap_err();
        match err {
            LinalgError::NotConverged { iterations, .. } => assert_eq!(iterations, 2),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }
}
