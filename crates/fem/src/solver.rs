//! Multigrid-PCG plumbing for the 3-D Cartesian problem.
//!
//! Both finite-volume geometries assemble symmetric positive-definite
//! systems on structured grids, and each has one solver chosen by the
//! code, not by a setting. The axisymmetric problem's half-bandwidth is
//! its radial cell count (15–41 on the standard meshes), so it always
//! factors directly with banded LU. The Cartesian box takes banded LU
//! while its half-bandwidth `nx·ny` is at most 64, and conjugate
//! gradients preconditioned by a smoothed-aggregation multigrid V-cycle
//! otherwise.
//!
//! Multigrid setup (aggregation, Galerkin products) is a one-time cost per
//! sparsity pattern: callers that solve many boxes of one shape — the
//! Cartesian reference over a sweep — pass a [`MultigridContext`] and
//! every solve after the first refreshes the cached
//! [`MultigridHierarchy`](ttsv_linalg::MultigridHierarchy) numerically
//! instead of rebuilding it.

use ttsv_linalg::{
    solve_pcg_into, CsrMatrix, IterativeConfig, LinalgError, MultigridHierarchy,
    MultigridPreconditioner, PcgWorkspace,
};

/// Reusable multigrid state for repeated solves on one mesh.
///
/// Holds the smoothed-aggregation hierarchy between solves; as long as the
/// assembled matrix keeps its sparsity pattern (same mesh, new
/// coefficients), each solve after the first performs a cheap numeric
/// refresh instead of re-running aggregation and Galerkin-pattern
/// discovery. Pass one context across sweep points via
/// [`CartesianProblem::solve_with_context`](crate::cartesian::CartesianProblem::solve_with_context);
/// a context is also the hand-off vehicle for hierarchies parked in a
/// cross-solve cache ([`MultigridContext::from_hierarchy`] /
/// [`MultigridContext::into_hierarchy`]).
#[derive(Debug, Default)]
pub struct MultigridContext {
    pre: Option<MultigridPreconditioner>,
    /// PCG scratch, reused across the repeated solves the context serves.
    workspace: PcgWorkspace,
    builds: usize,
    refreshes: usize,
}

impl MultigridContext {
    /// An empty context; the first multigrid solve populates it.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a hierarchy taken from a cache (counts as neither a build nor
    /// a refresh until the next solve).
    #[must_use]
    pub fn from_hierarchy(hierarchy: MultigridHierarchy) -> Self {
        Self {
            pre: Some(MultigridPreconditioner::from_hierarchy(hierarchy)),
            ..Self::default()
        }
    }

    /// Surrenders the hierarchy (to park it in a cache between solves).
    #[must_use]
    pub fn into_hierarchy(self) -> Option<MultigridHierarchy> {
        self.pre.map(MultigridPreconditioner::into_hierarchy)
    }

    /// How many times this context ran the full hierarchy build
    /// (aggregation + Galerkin pattern discovery).
    #[must_use]
    pub fn builds(&self) -> usize {
        self.builds
    }

    /// How many times this context got away with a numeric-only refresh.
    #[must_use]
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Builds or refreshes the preconditioner for `a`, reusing the cached
    /// hierarchy when the sparsity pattern still matches.
    fn prepare(&mut self, a: &CsrMatrix) -> Result<(), LinalgError> {
        let reusable = self
            .pre
            .as_ref()
            .is_some_and(|p| p.hierarchy().pattern_matches(a));
        if reusable {
            self.pre
                .as_mut()
                .expect("reusable implies present")
                .refresh(a)?;
            self.refreshes += 1;
        } else {
            self.pre = Some(MultigridPreconditioner::new(a)?);
            self.builds += 1;
        }
        Ok(())
    }
}

/// Solves the assembled SPD system with multigrid-preconditioned CG from
/// a zero start, reusing (or populating) the multigrid hierarchy in `mg`
/// when one is provided. Returns the solution and the iteration count.
pub(crate) fn solve_multigrid_pcg(
    a: &CsrMatrix,
    rhs: &[f64],
    config: &IterativeConfig,
    mg: Option<&mut MultigridContext>,
) -> Result<(Vec<f64>, usize), LinalgError> {
    let mut x = vec![0.0; rhs.len()];
    let stats = match mg {
        Some(ctx) => {
            ctx.prepare(a)?;
            // Split the context borrow so the cached PCG workspace is
            // reused alongside the prepared preconditioner.
            let MultigridContext { pre, workspace, .. } = ctx;
            let pre = pre.as_ref().expect("just prepared");
            solve_pcg_into(a, rhs, pre, config, &mut x, workspace)?
        }
        None => {
            let pre = MultigridPreconditioner::new(a)?;
            solve_pcg_into(a, rhs, &pre, config, &mut x, &mut PcgWorkspace::new())?
        }
    };
    Ok((x, stats.iterations))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_counts_builds_and_refreshes() {
        use ttsv_linalg::CooBuilder;
        let assemble = |scale: f64| {
            let n = 128;
            let mut coo = CooBuilder::new(n, n);
            for i in 0..n {
                coo.add(i, i, 2.0 * scale);
                if i + 1 < n {
                    coo.add(i, i + 1, -scale);
                    coo.add(i + 1, i, -scale);
                }
            }
            coo.to_csr()
        };
        let mut ctx = MultigridContext::new();
        let cfg = IterativeConfig::default();
        let b = vec![1.0; 128];
        let a1 = assemble(1.0);
        let a2 = assemble(4.0);
        let (x1, _) = solve_multigrid_pcg(&a1, &b, &cfg, Some(&mut ctx)).unwrap();
        let (x2, _) = solve_multigrid_pcg(&a2, &b, &cfg, Some(&mut ctx)).unwrap();
        assert_eq!((ctx.builds(), ctx.refreshes()), (1, 1));
        assert!(a1.residual_norm(&x1, &b).unwrap() < 1e-7);
        assert!(a2.residual_norm(&x2, &b).unwrap() < 1e-7);
        // The scaled system's solution is the original divided by 4.
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - 4.0 * v).abs() < 1e-6);
        }
    }
}
