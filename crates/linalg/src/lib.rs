//! Self-contained numerical linear algebra for the TTSV workspace.
//!
//! The offline crate ecosystem available to this reproduction has no
//! scientific-computing stack, so everything the thermal models need is
//! implemented here from scratch:
//!
//! * [`DenseMatrix`] with [LU](DenseMatrix::lu) (partial pivoting) —
//!   Model A's direct-transcription oracle and the multigrid coarsest
//!   level.
//! * [`Tridiagonal`] (Thomas algorithm), [`BandedMatrix`] (banded LU), and
//!   [`BlockTridiagonal`] (2×2 block Thomas) — Model B's π-segment ladders
//!   are banded SPD systems, solved `O(n)` by the dedicated block kernel;
//!   Model A is the same ladder with one lumped segment per plane.
//! * [`CsrMatrix`] sparse storage with [conjugate-gradient](solve_cg)
//!   solvers and a smoothed-aggregation
//!   [multigrid](MultigridPreconditioner) V-cycle preconditioner for the
//!   structured finite-volume grids — the 3-D reference solver's
//!   iterative path. Each preconditioner is built for one matrix and
//!   carries no state from one solve to the next.
//! * Derivative-free optimizers ([`nelder_mead`], [`golden_section`]) — the
//!   k₁/k₂ fitting-coefficient calibration.
//!
//! # Examples
//!
//! ```
//! use ttsv_linalg::DenseMatrix;
//!
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = a.lu().unwrap().solve(&[1.0, 2.0]).unwrap();
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Index-based loops are the natural idiom for the numerical kernels here
// (simultaneous access to multiple vectors at matching positions).
#![allow(clippy::needless_range_loop)]

mod banded;
mod block_tridiag;
mod dense;
mod error;
mod iterative;
mod lu;
mod multigrid;
mod optimize;
mod precond;
mod sparse;
mod tridiagonal;
mod vector;

pub use banded::{BandedLu, BandedMatrix};
pub use block_tridiag::{BlockTridiagonal, BlockTridiagonalLu};
pub use dense::DenseMatrix;
pub use error::LinalgError;
pub use iterative::{solve_cg, solve_pcg, IterativeConfig, SolveReport};
pub use lu::LuDecomposition;
pub use multigrid::MultigridPreconditioner;
pub use optimize::{
    golden_section, nelder_mead, GoldenSectionResult, NelderMeadConfig, NelderMeadResult,
};
pub use precond::{IdentityPreconditioner, Preconditioner};
pub use sparse::{CooBuilder, CsrMatrix};
pub use tridiagonal::Tridiagonal;
pub use vector::{axpy, dot, norm2, norm_inf, scale, sub};
