//! Preconditioners for the conjugate-gradient solver.

/// A preconditioner: an approximation `M ≈ A` whose inverse is cheap to
/// apply. [`solve_pcg`](crate::solve_pcg) calls [`Preconditioner::apply`]
/// once per iteration with the current residual.
pub trait Preconditioner {
    /// Computes `z = M⁻¹ r`, writing into `z`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `r.len() != z.len()` or the length does
    /// not match the matrix the preconditioner was built from.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// The trivial preconditioner `M = I` (turns PCG into plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_copies_residual() {
        let mut z = vec![0.0; 3];
        IdentityPreconditioner.apply(&[1.0, -2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, -2.0, 3.0]);
    }
}
