//! Smoothed-aggregation multigrid for the structured finite-volume grids.
//!
//! The FEM reference solvers assemble symmetric positive-definite systems
//! on tensor-product grids — axisymmetric `(r, z)` and Cartesian
//! `(x, y, z)` — whose face conductances are wildly anisotropic (thin
//! device sheets, huge outer-ring areas, 400 : 1.4 conductivity jumps).
//! Coarsening therefore follows the *matrix*, not the index space:
//! aggregates are grown greedily along strong connections
//! (`|a_ij| ≥ θ·max_{k≠i}|a_ik|`), which on these grids automatically does
//! semi-coarsening along the stiff direction. The tentative
//! piecewise-constant prolongator is damped by one Jacobi sweep on the
//! strength-filtered operator (`P = (I − ω_P·D⁻¹·A_F)·P_tent`, smoothed
//! aggregation), restriction is the transpose, and every coarse operator
//! is the Galerkin product `Pᵀ·A·P` — so the whole hierarchy stays SPD.
//! Smoothing is one weighted-Jacobi sweep, applied identically before and
//! after coarse correction so one V-cycle stays a symmetric
//! positive-definite operator: a valid [`Preconditioner`] for
//! [`solve_pcg`](crate::solve_pcg) and a convergent standalone iteration
//! (energy-norm contraction).
//!
//! The method has no settings: every level's prolongator is smoothed,
//! with `θ = 0.25`, `ω = 0.7`, `ω_P = 2/3`, at most 12 levels and a
//! coarsest level of at most 48 unknowns.
//!
//! Every [`MultigridPreconditioner`] builds its hierarchy from the one
//! matrix it is given and keeps nothing between solves, so a solve's
//! result depends only on its own matrix and right-hand side.
//!
//! On the finest level the smoothing sweeps and residual computations are
//! row-chunked across scoped threads once the grid passes 2¹⁶ unknowns;
//! every row is computed by the
//! same arithmetic regardless of the chunking, so threaded and serial
//! V-cycles produce identical results.

use std::cell::RefCell;

use crate::dense::DenseMatrix;
use crate::error::LinalgError;
use crate::lu::LuDecomposition;
use crate::precond::Preconditioner;
use crate::sparse::CsrMatrix;

/// Maximum hierarchy depth including the coarsest level.
const MAX_LEVELS: usize = 12;

/// Coarsening stops once a level has at most this many unknowns; that
/// level is factorized densely and solved exactly.
const COARSEST_SIZE: usize = 48;

/// Jacobi damping factor `ω` of the smoother.
const JACOBI_WEIGHT: f64 = 0.7;

/// Prolongator damping factor `ω_P` (2/3 is the classical choice for
/// stencils with `ρ(D⁻¹A) ≈ 2`).
const PROLONGATOR_WEIGHT: f64 = 2.0 / 3.0;

/// Strength-of-connection threshold `θ`: `j` is a strong neighbour of `i`
/// when `|a_ij| ≥ θ·max_{k≠i}|a_ik|`. Relative to the row maximum (not the
/// diagonal), so every non-isolated node keeps at least one strong
/// neighbour and coarsening can never stall.
const STRENGTH_THRESHOLD: f64 = 0.25;

/// Finest-level unknown count at which smoothing/residual sweeps start
/// running on scoped worker threads. Each sweep spawns its own
/// scoped threads, so threading only pays once per-sweep work dwarfs the
/// spawn cost — measured break-even is ≈3·10⁴ unknowns on an 8-core box.
const PARALLEL_THRESHOLD: usize = 65_536;

// ---------------------------------------------------------------------------
// Threaded row-chunk helpers
// ---------------------------------------------------------------------------

/// Worker count for a level of `n` unknowns under `threshold`.
fn thread_count(n: usize, threshold: usize) -> usize {
    if n < threshold.max(1) {
        return 1;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(8)
        .min(n)
}

/// Splits `out` into `threads` contiguous chunks and runs
/// `op(first_row, chunk)` on scoped threads. Each row of `out` is written
/// by exactly the same arithmetic as in the serial case, so the result is
/// identical bit for bit regardless of `threads`.
fn par_rows<F: Fn(usize, &mut [f64]) + Sync>(out: &mut [f64], threads: usize, op: F) {
    if threads <= 1 || out.len() < 2 * threads {
        op(0, out);
        return;
    }
    let chunk = out.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, part) in out.chunks_mut(chunk).enumerate() {
            let op = &op;
            scope.spawn(move || op(ci * chunk, part));
        }
    });
}

/// `y = A·x`, row-chunked over `threads`.
fn matvec_threaded(a: &CsrMatrix, x: &[f64], y: &mut [f64], threads: usize) {
    par_rows(y, threads, |start, chunk| a.matvec_range(x, chunk, start));
}

// ---------------------------------------------------------------------------
// Sparse setup kernels
// ---------------------------------------------------------------------------

/// A sparse operator stored by row (prolongators and intermediates); the
/// trimmed-down cousin of [`CsrMatrix`] used by the setup kernels.
#[derive(Debug, Clone, Default)]
struct RowMatrix {
    row_ptr: Vec<usize>,
    col: Vec<usize>,
    val: Vec<f64>,
    cols: usize,
}

impl RowMatrix {
    #[inline]
    fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col[lo..hi]
            .iter()
            .zip(&self.val[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// `rc = selfᵀ·r` (restriction when `self` is the prolongator).
    fn transpose_mul(&self, r: &[f64], rc: &mut [f64]) {
        rc.fill(0.0);
        for i in 0..r.len() {
            let ri = r[i];
            for (c, p) in self.row(i) {
                rc[c] += p * ri;
            }
        }
    }

    /// `z += self·zc` (prolongation).
    fn mul_add(&self, zc: &[f64], z: &mut [f64]) {
        for i in 0..z.len() {
            let mut acc = 0.0;
            for (c, p) in self.row(i) {
                acc += p * zc[c];
            }
            z[i] += acc;
        }
    }
}

/// Scatter accumulator for building sparse rows without sorting the whole
/// entry list: `mark` remembers which columns are live in the current row.
struct Scatter {
    dense: Vec<f64>,
    mark: Vec<u32>,
    stamp: u32,
    cols: Vec<usize>,
}

impl Scatter {
    fn new(n: usize) -> Self {
        Self {
            dense: vec![0.0; n],
            mark: vec![0; n],
            stamp: 0,
            cols: Vec::new(),
        }
    }

    #[inline]
    fn begin_row(&mut self) {
        self.stamp += 1;
        self.cols.clear();
    }

    #[inline]
    fn add(&mut self, col: usize, v: f64) {
        if self.mark[col] != self.stamp {
            self.mark[col] = self.stamp;
            self.dense[col] = v;
            self.cols.push(col);
        } else {
            self.dense[col] += v;
        }
    }

    /// Drains the current row into `(col, val)` pushes, columns sorted.
    fn flush(&mut self, col_out: &mut Vec<usize>, val_out: &mut Vec<f64>) {
        self.cols.sort_unstable();
        for &c in &self.cols {
            col_out.push(c);
            val_out.push(self.dense[c]);
        }
    }
}

/// Largest off-diagonal magnitude per row (the strength reference).
fn row_max_offdiag(a: &CsrMatrix) -> Vec<f64> {
    (0..a.rows())
        .map(|i| {
            a.row_entries(i)
                .filter(|&(j, _)| j != i)
                .fold(0.0f64, |m, (_, v)| m.max(v.abs()))
        })
        .collect()
}

/// Per-stored-entry strength classification: entry `e = (i, j)` is strong
/// when `j ≠ i` and `|a_ij| ≥ θ·max_{k≠i}|a_ik|`.
fn strong_connections(a: &CsrMatrix, theta: f64) -> Vec<bool> {
    let row_max = row_max_offdiag(a);
    let mut strong = vec![false; a.values().len()];
    for i in 0..a.rows() {
        let (lo, hi) = a.row_range(i);
        for e in lo..hi {
            let j = a.col_indices()[e];
            let v = a.values()[e];
            strong[e] = j != i && row_max[i] > 0.0 && v.abs() >= theta * row_max[i];
        }
    }
    strong
}

/// Greedy strength-based aggregation (the classical smoothed-aggregation
/// three-pass scheme). Returns the aggregate id per unknown and the
/// aggregate count.
fn aggregate(a: &CsrMatrix, strong: &[bool]) -> (Vec<usize>, usize) {
    let n = a.rows();
    let entries = |i: usize| {
        let (lo, hi) = a.row_range(i);
        (lo..hi).map(move |e| (a.col_indices()[e], strong[e], a.values()[e]))
    };

    const UNASSIGNED: usize = usize::MAX;
    let mut agg = vec![UNASSIGNED; n];
    let mut count = 0;

    // Pass 1: a node with no aggregated strong neighbour seeds a new
    // aggregate containing its whole strong neighbourhood.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut blocked = false;
        for (j, s, _) in entries(i) {
            if s && agg[j] != UNASSIGNED {
                blocked = true;
                break;
            }
        }
        if blocked {
            continue;
        }
        agg[i] = count;
        for (j, s, _) in entries(i) {
            if s {
                agg[j] = count;
            }
        }
        count += 1;
    }

    // Pass 2: leftover nodes join the aggregate of their strongest
    // aggregated neighbour.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (j, s, v) in entries(i) {
            if s && agg[j] != UNASSIGNED {
                let w = v.abs();
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, agg[j]));
                }
            }
        }
        if let Some((_, id)) = best {
            agg[i] = id;
        }
    }

    // Pass 2b: nodes still alone (their strong neighbours were also
    // unaggregated) join their largest-magnitude assigned neighbour, strong
    // or not — this bounds the coarsening ratio away from 1.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        let mut best: Option<(f64, usize)> = None;
        for (j, _, v) in entries(i) {
            if j != i && agg[j] != UNASSIGNED {
                let w = v.abs();
                if best.is_none_or(|(bw, _)| w > bw) {
                    best = Some((w, agg[j]));
                }
            }
        }
        if let Some((_, id)) = best {
            agg[i] = id;
        }
    }

    // Pass 3: whatever is left (isolated nodes) becomes singletons grown
    // over their still-unassigned strong neighbours.
    for i in 0..n {
        if agg[i] != UNASSIGNED {
            continue;
        }
        agg[i] = count;
        for (j, s, _) in entries(i) {
            if s && agg[j] == UNASSIGNED {
                agg[j] = count;
            }
        }
        count += 1;
    }

    (agg, count)
}

/// Builds the smoothed prolongator `P = (I − ω_P·D⁻¹·A_F)·P_tent`, where
/// `A_F` is the strength-filtered operator (weak off-diagonals lumped onto
/// the diagonal — the standard stabilization for anisotropic problems).
fn build_prolongator(
    a: &CsrMatrix,
    strong: &[bool],
    agg: &[usize],
    n_agg: usize,
    inv_diag: &[f64],
) -> RowMatrix {
    let n = a.rows();
    let mut row_ptr = Vec::with_capacity(n + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    let mut scatter = Scatter::new(n_agg);
    for i in 0..n {
        scatter.begin_row();
        // Filtered row: strong entries kept, weak ones lumped onto the
        // diagonal; then one damped Jacobi sweep applied to P_tent.
        let mut lumped_diag = 0.0;
        let (lo, hi) = a.row_range(i);
        for e in lo..hi {
            let (j, v) = (a.col_indices()[e], a.values()[e]);
            if strong[e] {
                scatter.add(agg[j], -PROLONGATOR_WEIGHT * inv_diag[i] * v);
            } else {
                lumped_diag += v; // diagonal and weak off-diagonals
            }
        }
        scatter.add(agg[i], 1.0 - PROLONGATOR_WEIGHT * inv_diag[i] * lumped_diag);
        scatter.flush(&mut col, &mut val);
        row_ptr.push(col.len());
    }
    RowMatrix {
        row_ptr,
        col,
        val,
        cols: n_agg,
    }
}

/// Builds `T = A·P` (pattern and values) row by row.
fn build_t(a: &CsrMatrix, p: &RowMatrix) -> RowMatrix {
    let n = a.rows();
    let mut t = RowMatrix {
        row_ptr: Vec::with_capacity(n + 1),
        col: Vec::new(),
        val: Vec::new(),
        cols: p.cols,
    };
    t.row_ptr.push(0);
    let mut scatter = Scatter::new(p.cols);
    for i in 0..n {
        scatter.begin_row();
        for (j, a_ij) in a.row_entries(i) {
            for (c, p_jc) in p.row(j) {
                scatter.add(c, a_ij * p_jc);
            }
        }
        scatter.flush(&mut t.col, &mut t.val);
        t.row_ptr.push(t.col.len());
    }
    t
}

/// Overwrites every strictly-lower entry of the structurally symmetric
/// Galerkin operator with its transpose (an upper-triangle value, which
/// this pass never writes).
fn mirror_upper_triangle(coarse: &mut CsrMatrix) {
    for c in 0..coarse.rows() {
        let (clo, chi) = coarse.row_range(c);
        for e in clo..chi {
            let cj = coarse.col_indices()[e];
            if cj < c {
                let (mlo, mhi) = coarse.row_range(cj);
                let off = coarse.col_indices()[mlo..mhi]
                    .binary_search(&c)
                    .expect("Galerkin pattern must be structurally symmetric");
                coarse.values_mut()[e] = coarse.values()[mlo + off];
            }
        }
    }
}

/// Transpose adjacency of `P`: for every coarse column `c`, the fine rows
/// that reference it and the index of the corresponding stored value.
fn transpose_adjacency(p: &RowMatrix, n_rows: usize) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let nc = p.cols;
    let mut pt_ptr = vec![0usize; nc + 1];
    for &c in &p.col {
        pt_ptr[c + 1] += 1;
    }
    for c in 0..nc {
        pt_ptr[c + 1] += pt_ptr[c];
    }
    let mut pt_row = vec![0usize; p.col.len()];
    let mut pt_idx = vec![0usize; p.col.len()];
    let mut cursor = pt_ptr.clone();
    for i in 0..n_rows {
        for k in p.row_ptr[i]..p.row_ptr[i + 1] {
            let c = p.col[k];
            pt_row[cursor[c]] = i;
            pt_idx[cursor[c]] = k;
            cursor[c] += 1;
        }
    }
    (pt_ptr, pt_row, pt_idx)
}

/// Builds the Galerkin coarse operator `A_c = Pᵀ·T` (pattern and values).
fn build_coarse(
    p: &RowMatrix,
    t: &RowMatrix,
    pt_ptr: &[usize],
    pt_row: &[usize],
    pt_idx: &[usize],
) -> CsrMatrix {
    let nc = p.cols;
    let mut row_ptr = Vec::with_capacity(nc + 1);
    let mut col = Vec::new();
    let mut val = Vec::new();
    row_ptr.push(0);
    let mut scatter = Scatter::new(nc);
    for c in 0..nc {
        scatter.begin_row();
        for k in pt_ptr[c]..pt_ptr[c + 1] {
            let (i, p_ic) = (pt_row[k], p.val[pt_idx[k]]);
            for (cj, t_icj) in t.row(i) {
                scatter.add(cj, p_ic * t_icj);
            }
        }
        scatter.flush(&mut col, &mut val);
        row_ptr.push(col.len());
    }
    CsrMatrix::from_parts(nc, nc, row_ptr, col, val)
}

fn jacobi_inverse_diagonal(a: &CsrMatrix) -> Result<Vec<f64>, LinalgError> {
    let diag = a.diagonal();
    if diag.contains(&0.0) {
        return Err(LinalgError::InvalidInput {
            reason: "multigrid smoothing requires a nonzero diagonal".to_string(),
        });
    }
    Ok(diag.iter().map(|d| 1.0 / d).collect())
}

// ---------------------------------------------------------------------------
// Hierarchy
// ---------------------------------------------------------------------------

/// One fine level of the hierarchy: its operator, the smoother's inverse
/// diagonal, and the smoothed prolongator to the next coarser level.
#[derive(Debug, Clone)]
struct Level {
    a: CsrMatrix,
    inv_diag: Vec<f64>,
    p: RowMatrix,
}

/// Per-level work vectors, reused across V-cycles.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Right-hand side per level (`rhs[0]` is a copy of the input residual).
    rhs: Vec<Vec<f64>>,
    /// Correction per level (`z[levels]` is the coarsest solution).
    z: Vec<Vec<f64>>,
    /// Residual scratch per fine level.
    res: Vec<Vec<f64>>,
}

impl Scratch {
    fn for_levels(levels: &[Level], coarsest: usize) -> Self {
        let mut scratch = Scratch::default();
        for level in levels {
            scratch.rhs.push(vec![0.0; level.a.rows()]);
            scratch.z.push(vec![0.0; level.a.rows()]);
            scratch.res.push(vec![0.0; level.a.rows()]);
        }
        scratch.rhs.push(vec![0.0; coarsest]); // coarsest right-hand side
        scratch.z.push(vec![0.0; coarsest]); // coarsest solution
        scratch
    }
}

/// The smoothed-aggregation setup of one matrix: its fine levels, the
/// coarsest dense factorization, and the finest-level sweep thread count.
#[derive(Debug)]
struct Hierarchy {
    levels: Vec<Level>,
    /// Dense factorization of the coarsest operator.
    coarse: LuDecomposition,
    /// Resolved worker count for finest-level sweeps.
    threads: usize,
}

impl Hierarchy {
    /// Builds the hierarchy for `a`; sweeps thread past
    /// `parallel_threshold` finest-level unknowns.
    fn build(a: &CsrMatrix, parallel_threshold: usize) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "multigrid needs a square matrix, got {}×{}",
                    a.rows(),
                    a.cols()
                ),
            });
        }
        let threads = thread_count(a.rows(), parallel_threshold);
        let mut levels = Vec::new();
        let mut mat = a.clone();
        while mat.rows() > COARSEST_SIZE && levels.len() + 1 < MAX_LEVELS {
            let strong = strong_connections(&mat, STRENGTH_THRESHOLD);
            let (agg, n_agg) = aggregate(&mat, &strong);
            if n_agg >= mat.rows() {
                break; // no reduction left
            }
            let inv_diag = jacobi_inverse_diagonal(&mat)?;
            let p = build_prolongator(&mat, &strong, &agg, n_agg, &inv_diag);
            let t = build_t(&mat, &p);
            let (pt_ptr, pt_row, pt_idx) = transpose_adjacency(&p, mat.rows());
            let mut coarse_mat = build_coarse(&p, &t, &pt_ptr, &pt_row, &pt_idx);
            // The scatter product sums `A_c[c, cj]` and `A_c[cj, c]` in
            // different orders, so the two can differ in the last bit;
            // mirroring makes the coarse operator exactly symmetric, which
            // keeps the V-cycle a symmetric preconditioner for CG.
            mirror_upper_triangle(&mut coarse_mat);
            levels.push(Level {
                a: mat,
                inv_diag,
                p,
            });
            mat = coarse_mat;
        }

        // Guard the dense coarsest factorization: if coarsening stalled far
        // above the target size (a matrix with no usable connections, e.g.
        // near-diagonal), O(n²) dense memory would be pathological — tell
        // the caller instead.
        if mat.rows() > COARSEST_SIZE * 8 {
            let cause = if levels.len() + 1 >= MAX_LEVELS {
                format!("the {MAX_LEVELS}-level depth cap stopped coarsening")
            } else {
                "the matrix has too few strong connections for aggregation to coarsen it"
                    .to_string()
            };
            return Err(LinalgError::InvalidInput {
                reason: format!(
                    "coarsening stopped at {} unknowns (target ≤ {COARSEST_SIZE}): {cause}",
                    mat.rows()
                ),
            });
        }
        let coarse_dense = DenseMatrix::from_fn(mat.rows(), mat.rows(), |i, j| mat.get(i, j));
        let coarse = coarse_dense.lu()?;

        Ok(Self {
            levels,
            coarse,
            threads,
        })
    }

    /// Unknown count of the finest level.
    fn finest_unknowns(&self) -> usize {
        match self.levels.first() {
            Some(level) => level.a.rows(),
            None => self.coarse.dim(),
        }
    }

    /// One damped-Jacobi sweep on level `l`, `z ← z + ω·D⁻¹·(rhs − A·z)`.
    /// The pre-smoothing sweep (`zero_init`) starts from a zero guess and
    /// collapses to `z = ω·D⁻¹·rhs`; the post-smoothing sweep continues
    /// from the prolonged coarse correction.
    fn smooth_level(&self, l: usize, rhs: &[f64], z: &mut [f64], res: &mut [f64], zero_init: bool) {
        let level = &self.levels[l];
        let threads = if l == 0 { self.threads } else { 1 };
        let inv_diag = &level.inv_diag;
        if zero_init {
            par_rows(z, threads, |start, chunk| {
                for (k, zi) in chunk.iter_mut().enumerate() {
                    let i = start + k;
                    *zi = JACOBI_WEIGHT * inv_diag[i] * rhs[i];
                }
            });
        } else {
            matvec_threaded(&level.a, z, res, threads);
            let res = &*res;
            par_rows(z, threads, |start, chunk| {
                for (k, zi) in chunk.iter_mut().enumerate() {
                    let i = start + k;
                    *zi += JACOBI_WEIGHT * inv_diag[i] * (rhs[i] - res[i]);
                }
            });
        }
    }

    /// One V-cycle applied to the residual `r`, writing the correction
    /// into `z`, with all work vectors supplied by `scratch`.
    fn v_cycle(&self, r: &[f64], z: &mut [f64], scratch: &mut Scratch) {
        let n = self.finest_unknowns();
        assert_eq!(r.len(), n, "multigrid: wrong residual length");
        assert_eq!(z.len(), n, "multigrid: wrong output length");
        let depth = self.levels.len();

        if depth == 0 {
            let x = self.coarse.solve(r).expect("coarse factorization is valid");
            z.copy_from_slice(&x);
            return;
        }

        // Downward sweep: pre-smooth from zero, restrict the residual.
        scratch.rhs[0].copy_from_slice(r);
        for l in 0..depth {
            let level = &self.levels[l];
            let threads = if l == 0 { self.threads } else { 1 };
            let (rhs_fine, rhs_coarse) = {
                let (head, tail) = scratch.rhs.split_at_mut(l + 1);
                (std::mem::take(&mut head[l]), &mut tail[0])
            };
            {
                let (z_l, res_l) = (&mut scratch.z[l], &mut scratch.res[l]);
                self.smooth_level(l, &rhs_fine, z_l, res_l, true);
                matvec_threaded(&level.a, z_l, res_l, threads);
                let rhs_ref = &rhs_fine;
                par_rows(res_l, threads, |start, chunk| {
                    for (k, ri) in chunk.iter_mut().enumerate() {
                        *ri = rhs_ref[start + k] - *ri;
                    }
                });
                level.p.transpose_mul(res_l, rhs_coarse);
            }
            scratch.rhs[l] = rhs_fine;
        }
        let x = self
            .coarse
            .solve(&scratch.rhs[depth])
            .expect("coarse factorization is valid");
        scratch.z[depth].copy_from_slice(&x);

        // Upward sweep: prolong the coarse correction, post-smooth.
        for l in (0..depth).rev() {
            let level = &self.levels[l];
            let (z_head, z_tail) = scratch.z.split_at_mut(l + 1);
            let z_l = &mut z_head[l];
            level.p.mul_add(&z_tail[0], z_l);
            let rhs_l = std::mem::take(&mut scratch.rhs[l]);
            self.smooth_level(l, &rhs_l, z_l, &mut scratch.res[l], false);
            scratch.rhs[l] = rhs_l;
        }
        z.copy_from_slice(&scratch.z[0]);
    }
}

// ---------------------------------------------------------------------------
// Preconditioner
// ---------------------------------------------------------------------------

/// A V-cycle of smoothed-aggregation multigrid, applied as a
/// preconditioner.
///
/// [`MultigridPreconditioner::new`] builds the whole hierarchy —
/// aggregates, smoothed prolongators, Galerkin coarse operators, Jacobi
/// diagonals, and the coarsest dense factorization — from the one matrix
/// it is given. Build one per assembled matrix, then hand it to
/// [`solve_pcg`](crate::solve_pcg):
///
/// ```
/// use ttsv_linalg::{solve_pcg, CooBuilder, IterativeConfig};
/// use ttsv_linalg::MultigridPreconditioner;
///
/// // 1-D Poisson on 64 cells.
/// let n = 64;
/// let mut coo = CooBuilder::new(n, n);
/// for i in 0..n {
///     coo.add(i, i, 2.0);
///     if i + 1 < n {
///         coo.add(i, i + 1, -1.0);
///         coo.add(i + 1, i, -1.0);
///     }
/// }
/// let a = coo.to_csr();
/// let mg = MultigridPreconditioner::new(&a).unwrap();
/// let report = solve_pcg(&a, &vec![1.0; n], &mg, &IterativeConfig::default()).unwrap();
/// assert!(a.residual_norm(&report.solution, &vec![1.0; n]).unwrap() < 1e-7);
/// ```
///
/// Not `Sync`: the per-level scratch is interior-mutable so
/// [`Preconditioner::apply`] can stay allocation-free. Build one instance
/// per solving thread.
#[derive(Debug)]
pub struct MultigridPreconditioner {
    hierarchy: Hierarchy,
    scratch: RefCell<Scratch>,
}

impl MultigridPreconditioner {
    /// Builds the hierarchy for the SPD matrix `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if `a` is not square, a level has a
    ///   zero diagonal entry, or the matrix has too few strong connections
    ///   for aggregation to coarsen it.
    /// * [`LinalgError::Singular`] if the coarsest operator cannot be
    ///   factorized.
    pub fn new(a: &CsrMatrix) -> Result<Self, LinalgError> {
        Self::with_parallel_threshold(a, PARALLEL_THRESHOLD)
    }

    /// [`MultigridPreconditioner::new`] with the sweep-threading threshold
    /// overridden (`1` forces threading, `usize::MAX` forces serial
    /// sweeps), so the tests can pin threaded and serial V-cycles against
    /// each other on small matrices.
    pub(crate) fn with_parallel_threshold(
        a: &CsrMatrix,
        parallel_threshold: usize,
    ) -> Result<Self, LinalgError> {
        let hierarchy = Hierarchy::build(a, parallel_threshold)?;
        let scratch = Scratch::for_levels(&hierarchy.levels, hierarchy.coarse.dim());
        Ok(Self {
            hierarchy,
            scratch: RefCell::new(scratch),
        })
    }

    /// Number of levels in the hierarchy (1 = the matrix was small enough
    /// to factorize directly).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.hierarchy.levels.len() + 1
    }

    /// Unknown count of the coarsest (directly factorized) level.
    #[must_use]
    pub fn coarsest_unknowns(&self) -> usize {
        self.hierarchy.coarse.dim()
    }
}

impl Preconditioner for MultigridPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let mut scratch = self.scratch.borrow_mut();
        self.hierarchy.v_cycle(r, z, &mut scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iterative::{solve_cg, solve_pcg, IterativeConfig};
    use crate::sparse::CooBuilder;
    use crate::vector::{dot, norm2, sub};
    use proptest::prelude::*;

    include!("../tests/support/random_box.rs");

    /// A preconditioner whose sweeps thread past `threshold` work items.
    fn with_threshold(a: &CsrMatrix, threshold: usize) -> MultigridPreconditioner {
        MultigridPreconditioner::with_parallel_threshold(a, threshold).unwrap()
    }

    /// 2-D Poisson on an `nx × ny` grid with a smooth per-cell
    /// conductance factor, Dirichlet coupling on one edge and a
    /// vertical-coupling anisotropy `ay`.
    fn poisson2d(nx: usize, ny: usize, ay: f64) -> CsrMatrix {
        let n = nx * ny;
        let mut coo = CooBuilder::new(n, n);
        let idx = |i: usize, j: usize| i + j * nx;
        let cell = |i: usize, j: usize| 1.0 + 0.3 * ((i + 2 * j) % 5) as f64;
        for j in 0..ny {
            for i in 0..nx {
                let me = idx(i, j);
                let mut diag = 0.0;
                if j == 0 {
                    diag += 2.0 * ay * cell(i, j); // sink below the first row
                }
                for (ni, nj, g) in [
                    (i.wrapping_sub(1), j, 1.0),
                    (i + 1, j, 1.0),
                    (i, j.wrapping_sub(1), ay),
                    (i, j + 1, ay),
                ] {
                    if ni < nx && nj < ny {
                        let gv = g * 0.5 * (cell(i, j) + cell(ni, nj));
                        coo.add(me, idx(ni, nj), -gv);
                        diag += gv;
                    }
                }
                coo.add(me, me, diag);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn hierarchy_coarsens() {
        let a = poisson2d(16, 16, 1.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        assert!(mg.level_count() >= 2, "16×16 should build a real hierarchy");
        assert!(mg.coarsest_unknowns() <= 48);
    }

    #[test]
    fn tiny_problem_degenerates_to_direct_solve() {
        let a = poisson2d(3, 3, 1.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        assert_eq!(mg.level_count(), 1);
        // An exact preconditioner makes PCG converge immediately.
        let b = vec![1.0; 9];
        let report = solve_pcg(&a, &b, &mg, &IterativeConfig::default()).unwrap();
        assert!(report.iterations <= 1, "took {}", report.iterations);
    }

    #[test]
    fn mg_pcg_matches_plain_cg() {
        let a = poisson2d(12, 20, 1.0);
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 7) as f64) - 3.0).collect();
        let cfg = IterativeConfig::new(10_000, 1e-11);
        let plain = solve_cg(&a, &b, &cfg).unwrap();
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let pre = solve_pcg(&a, &b, &mg, &cfg).unwrap();
        for (x, y) in plain.solution.iter().zip(&pre.solution) {
            assert!((x - y).abs() < 1e-7, "{x} vs {y}");
        }
        assert!(
            pre.iterations < plain.iterations,
            "multigrid {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn anisotropy_is_handled() {
        // 100:1 anisotropy — the regime where point-smoothed full
        // coarsening stalls; strength-based aggregation must keep the
        // iteration count modest.
        let a = poisson2d(24, 24, 100.0);
        let b = vec![1.0; a.rows()];
        let cfg = IterativeConfig::new(10_000, 1e-11);
        let sa = MultigridPreconditioner::new(&a).unwrap();
        let report = solve_pcg(&a, &b, &sa, &cfg).unwrap();
        assert!(
            report.iterations <= 30,
            "anisotropic SA-MG-PCG took {} iterations",
            report.iterations
        );
    }

    #[test]
    fn vcycle_is_symmetric() {
        // ⟨M⁻¹u, v⟩ = ⟨u, M⁻¹v⟩ is required for CG.
        let a = poisson2d(10, 10, 5.0);
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let n = a.rows();
        let u: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let v: Vec<f64> = (0..n).map(|i| (i as f64 * 0.91).cos()).collect();
        let mut mu = vec![0.0; n];
        let mut mv = vec![0.0; n];
        mg.apply(&u, &mut mu);
        mg.apply(&v, &mut mv);
        let lhs = dot(&mu, &v);
        let rhs = dot(&u, &mv);
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "asymmetric V-cycle: {lhs} vs {rhs}"
        );
        // And positive: ⟨M⁻¹u, u⟩ > 0.
        assert!(dot(&mu, &u) > 0.0);
    }

    #[test]
    fn stationary_vcycle_iteration_reduces_error_monotonically() {
        // The symmetric V-cycle is a contraction in the energy norm
        // ‖e‖_A = √(eᵀ·A·e) — the norm in which multigrid convergence is
        // guaranteed (the plain 2-norm of the residual may transiently grow
        // from a rough start). Track the error against a known solution.
        let a = poisson2d(16, 24, 10.0);
        let n = a.rows();
        let x_star: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 13) % 11) as f64).collect();
        let b = a.matvec(&x_star).unwrap();
        let energy = |x: &[f64]| {
            let e = sub(&x_star, x);
            dot(&e, &a.matvec(&e).unwrap()).sqrt()
        };
        // Every cycle must contract the energy norm, and 12 cycles must
        // make a real solve.
        let mg = MultigridPreconditioner::new(&a).unwrap();
        let mut x = vec![0.0; n];
        let mut prev = energy(&x);
        for cycle in 0..12 {
            let r = sub(&b, &a.matvec(&x).unwrap());
            let mut dz = vec![0.0; n];
            mg.apply(&r, &mut dz);
            for i in 0..n {
                x[i] += dz[i];
            }
            let now = energy(&x);
            assert!(
                now < prev,
                "cycle {cycle}: energy error grew from {prev:.3e} to {now:.3e}"
            );
            prev = now;
        }
        assert!(
            norm2(&sub(&b, &a.matvec(&x).unwrap())) < 1e-3 * norm2(&b),
            "12 SA cycles should reduce ‖r‖ a lot"
        );
    }

    #[test]
    fn threaded_and_serial_vcycles_agree() {
        let a = poisson2d(20, 30, 25.0);
        let n = a.rows();
        let serial = with_threshold(&a, usize::MAX);
        let threaded = with_threshold(&a, 1);
        let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() * 3.0).collect();
        let mut z_serial = vec![0.0; n];
        let mut z_threaded = vec![0.0; n];
        serial.apply(&r, &mut z_serial);
        threaded.apply(&r, &mut z_threaded);
        for (s, t) in z_serial.iter().zip(&z_threaded) {
            assert!(
                (s - t).abs() <= 1e-12 * s.abs().max(1.0),
                "threaded V-cycle diverged from serial: {s} vs {t}"
            );
        }
    }

    #[test]
    fn uncoarsenable_matrix_rejected_instead_of_dense_factorized() {
        // A large diagonal matrix has no connections to aggregate along;
        // the setup must refuse (it would otherwise build an O(n²) dense
        // factorization of the whole thing).
        let n = 2000;
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 2.0 + (i % 5) as f64);
        }
        let err = MultigridPreconditioner::new(&coo.to_csr()).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }), "{err}");
    }

    #[test]
    fn non_square_rejected() {
        let mut coo = CooBuilder::new(3, 2);
        coo.add(0, 0, 1.0);
        let err = MultigridPreconditioner::new(&coo.to_csr()).unwrap_err();
        assert!(matches!(err, LinalgError::InvalidInput { .. }));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn threaded_and_serial_vcycles_agree_on_random_boxes(
            (dims, k, r) in box_system(),
        ) {
            // Row-chunked threading must not change the V-cycle output
            // beyond reassociation-free floating point (the chunk
            // arithmetic is identical, so the agreement is in fact exact;
            // assert 1e-12).
            let a = random_box_matrix(dims, &k);
            let n = a.rows();
            let serial = with_threshold(&a, usize::MAX);
            let threaded = with_threshold(&a, 1);
            let mut z_serial = vec![0.0; n];
            let mut z_threaded = vec![0.0; n];
            serial.apply(&r, &mut z_serial);
            threaded.apply(&r, &mut z_threaded);
            for i in 0..n {
                prop_assert!(
                    (z_serial[i] - z_threaded[i]).abs() <= 1e-12 * z_serial[i].abs().max(1.0),
                    "threaded V-cycle diverged at {i}: {} vs {}",
                    z_serial[i],
                    z_threaded[i]
                );
            }
        }
    }
}
