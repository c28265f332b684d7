//! Model B — the distributed π-segment TTSV model (paper §III).
//!
//! Each plane is split into `n_j` π-segments (eq. 21): silicon segments at
//! the bottom (the first carries the bonding-layer resistance), ILD segments
//! on top. Every segment contributes a vertical bulk resistor, a vertical
//! via-fill resistor (`R_M/n`), and a lateral liner resistor (`n·R_L`);
//! plane heat enters the ILD bulk nodes as `q_j/n_D` (eq. 20). The
//! resulting KCL system `A·T = b` (eq. 19) is symmetric positive-definite
//! and, with interleaved bulk/via numbering, block tridiagonal with 2×2
//! blocks — solved in `O(n)` by the dedicated
//! [`BlockTridiagonal`] kernel (the unit tests check it against an
//! independent generic banded-LU assembly of the same ladder).

use ttsv_linalg::{BlockTridiagonal, BlockTridiagonalLu};
use ttsv_units::{Power, TemperatureDelta, ThermalResistance};

use crate::error::CoreError;
use crate::resistances::distributed_plane_resistances;
use crate::scenario::{Scenario, ThermalModel};

/// Per-plane segment counts: silicon segments below, ILD segments above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneSegments {
    /// Segments covering the plane's silicon portion (and bond).
    pub silicon: usize,
    /// Segments covering the plane's ILD (heat enters here).
    pub ild: usize,
}

impl PlaneSegments {
    /// Total segments in the plane.
    #[must_use]
    pub fn total(&self) -> usize {
        self.silicon + self.ild
    }
}

/// How a stack is split into π-segments.
///
/// The paper's Table I uses the notation *(n₁, n)* — `n₁` segments in the
/// first plane and `n` in every other plane — with the split between the
/// silicon and ILD portions left to the implementation; we split
/// proportionally to layer thickness, keeping at least one segment per
/// nonempty layer (see README, “Where the paper is silent”).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    per_plane: Vec<PlaneSegments>,
}

impl Segmentation {
    /// The paper's *(first, others)* scheme materialized for a stack.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn paper_scheme(scenario: &Scenario, first: usize, others: usize) -> Self {
        assert!(first > 0 && others > 0, "segment counts must be positive");
        let stack = scenario.stack();
        let mut per_plane = Vec::with_capacity(stack.plane_count());
        for (j, p) in stack.planes().iter().enumerate() {
            let n = if j == 0 { first } else { others };
            let t_si = if j == 0 {
                stack.l_ext().as_meters()
            } else {
                p.t_si().as_meters()
            };
            let t_ild = p.t_ild().as_meters();
            let si = if n == 1 || t_si == 0.0 {
                0
            } else {
                let frac = t_si / (t_si + t_ild);
                ((n as f64 * frac).round() as usize).clamp(1, n - 1)
            };
            per_plane.push(PlaneSegments {
                silicon: si,
                ild: n - si,
            });
        }
        Self { per_plane }
    }

    /// Explicit per-plane counts.
    ///
    /// # Panics
    ///
    /// Panics if any plane has zero ILD segments (heat could not enter).
    #[must_use]
    pub fn explicit(per_plane: Vec<PlaneSegments>) -> Self {
        assert!(
            per_plane.iter().all(|p| p.ild > 0),
            "every plane needs at least one ILD segment"
        );
        Self { per_plane }
    }

    /// Per-plane counts.
    #[must_use]
    pub fn per_plane(&self) -> &[PlaneSegments] {
        &self.per_plane
    }

    /// Total segments across the stack (the paper's `n_A`).
    #[must_use]
    pub fn total(&self) -> usize {
        self.per_plane.iter().map(PlaneSegments::total).sum()
    }
}

/// The distributed analytical TTSV model (no fitting coefficients).
///
/// ```
/// use ttsv_core::prelude::*;
///
/// let scenario = Scenario::paper_block().build()?;
/// let dt = ModelB::paper_b100().max_delta_t(&scenario)?;
/// assert!(dt.as_kelvin() > 0.0);
/// # Ok::<(), CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ModelB {
    first_plane_segments: usize,
    upper_plane_segments: usize,
}

impl ModelB {
    /// Model B with the paper's *(first, others)* segment counts.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn with_segments(first: usize, others: usize) -> Self {
        assert!(first > 0 && others > 0, "segment counts must be positive");
        Self {
            first_plane_segments: first,
            upper_plane_segments: others,
        }
    }

    /// Table I's "B (1)": one segment per plane.
    #[must_use]
    pub fn paper_b1() -> Self {
        Self::with_segments(1, 1)
    }

    /// Table I's "B (20)": (2, 20).
    #[must_use]
    pub fn paper_b20() -> Self {
        Self::with_segments(2, 20)
    }

    /// Table I's "B (100)": (10, 100) — the configuration plotted in the
    /// figures.
    #[must_use]
    pub fn paper_b100() -> Self {
        Self::with_segments(10, 100)
    }

    /// Table I's "B (500)": (50, 500).
    #[must_use]
    pub fn paper_b500() -> Self {
        Self::with_segments(50, 500)
    }

    /// The case study's "B (1000)" (§IV-E).
    #[must_use]
    pub fn paper_b1000() -> Self {
        Self::with_segments(50, 1000)
    }

    /// Segments per upper plane (used in display names, e.g. "Model B
    /// (100)").
    #[must_use]
    pub fn upper_plane_segments(&self) -> usize {
        self.upper_plane_segments
    }

    /// Solves the distributed ladder.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`CoreError`].
    pub fn solve(&self, scenario: &Scenario) -> Result<ModelBSolution, CoreError> {
        let segmentation = Segmentation::paper_scheme(
            scenario,
            self.first_plane_segments,
            self.upper_plane_segments,
        );
        self.solve_segmented(scenario, &segmentation)
    }

    /// Factorizes the ladder matrix for this scenario's *geometry*: the
    /// KCL matrix (eq. 19) depends on the stack, the TSV, and the segment
    /// scheme but not on the plane powers, so the returned
    /// [`ModelBFactorization`] solves any power vector on the same
    /// geometry with one `O(n)` back-substitution, bit-for-bit identical
    /// to [`ModelB::solve`].
    ///
    /// # Errors
    ///
    /// Propagates segmentation/solver failures as [`CoreError`].
    pub fn factorize(&self, scenario: &Scenario) -> Result<ModelBFactorization, CoreError> {
        let segmentation = Segmentation::paper_scheme(
            scenario,
            self.first_plane_segments,
            self.upper_plane_segments,
        );
        let segments = build_segments(scenario, &segmentation)?;
        let rs = substrate_resistance(scenario);
        factorize_block_tridiag(&segmentation, &segments, rs)
    }

    /// Solves with an explicit segmentation.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`CoreError`].
    pub fn solve_segmented(
        &self,
        scenario: &Scenario,
        segmentation: &Segmentation,
    ) -> Result<ModelBSolution, CoreError> {
        let segments = build_segments(scenario, segmentation)?;
        let rs = substrate_resistance(scenario);
        solve_block_tridiag(scenario, segmentation, &segments, rs)
    }
}

impl ThermalModel for ModelB {
    fn name(&self) -> String {
        format!("Model B ({})", self.upper_plane_segments)
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        Ok(self.solve(scenario)?.max_delta_t())
    }

    fn cache_tag(&self) -> String {
        // The display name omits the first-plane segment count, which
        // changes the output bits.
        format!(
            "Model B[{},{}]",
            self.first_plane_segments, self.upper_plane_segments
        )
    }
}

impl crate::scenario::PowerSeparableModel for ModelB {
    type Factorization = ModelBFactorization;

    fn factorize_geometry(&self, scenario: &Scenario) -> Result<ModelBFactorization, CoreError> {
        self.factorize(scenario)
    }

    fn solve_with_powers(
        &self,
        factorization: &ModelBFactorization,
        plane_powers: &[Power],
    ) -> Result<TemperatureDelta, CoreError> {
        factorization.max_delta_t(plane_powers)
    }

    fn solve_with_powers_batch(
        &self,
        factorization: &ModelBFactorization,
        batch: &[Vec<Power>],
    ) -> Result<Vec<TemperatureDelta>, CoreError> {
        factorization.max_delta_t_batch(batch)
    }
}

/// One π-segment: resistances in K/W, heat in W. Model A builds one per
/// plane (a lumped ladder), so the fields are crate-visible.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    pub(crate) r_bulk: f64,
    pub(crate) r_fill: f64,
    pub(crate) r_lat: f64,
    /// Read only by the banded test oracle; the production path takes the
    /// heat from the factorization's independent right-hand-side recipe.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) heat: f64,
}

/// Unfitted lumped substrate resistance `R_s` (eq. 16 with `k₁ = 1`).
fn substrate_resistance(scenario: &Scenario) -> f64 {
    let stack = scenario.stack();
    (stack.planes()[0].t_si() - stack.l_ext()).as_meters()
        / (stack.k_si().as_watts_per_meter_kelvin() * stack.footprint().as_square_meters())
}

/// Materializes the per-segment resistances (eq. 21) and heat inputs
/// (eq. 20), bottom → top across all planes.
fn build_segments(
    scenario: &Scenario,
    segmentation: &Segmentation,
) -> Result<Vec<Segment>, CoreError> {
    let stack = scenario.stack();
    if segmentation.per_plane().len() != stack.plane_count() {
        return Err(CoreError::InvalidScenario {
            reason: format!(
                "segmentation covers {} planes, stack has {}",
                segmentation.per_plane().len(),
                stack.plane_count()
            ),
        });
    }
    let mut segments = Vec::with_capacity(segmentation.total());
    for (j, seg) in segmentation.per_plane().iter().enumerate() {
        let d = distributed_plane_resistances(stack, scenario.tsv(), j);
        let q = scenario.plane_powers()[j].as_watts();
        let n = seg.total();
        if n == 0 {
            return Err(CoreError::InvalidScenario {
                reason: format!("plane {j} has zero segments"),
            });
        }
        let r_fill = d.fill.as_kelvin_per_watt() / n as f64;
        let r_lat = d.liner_lateral.as_kelvin_per_watt() * n as f64;

        if n == 1 {
            // Lumped plane: the single segment carries the whole stack.
            segments.push(Segment {
                r_bulk: (d.bond + d.silicon + d.ild).as_kelvin_per_watt(),
                r_fill,
                r_lat,
                heat: q,
            });
            continue;
        }

        // Leftover vertical resistance that has no dedicated segments
        // (bond always; silicon when seg.silicon == 0).
        let mut leftover = d.bond;
        if seg.silicon == 0 {
            leftover += d.silicon;
        }
        for i in 0..seg.silicon {
            let mut r_bulk = d.silicon.as_kelvin_per_watt() / seg.silicon as f64;
            if i == 0 {
                r_bulk += leftover.as_kelvin_per_watt();
                leftover = ThermalResistance::ZERO;
            }
            segments.push(Segment {
                r_bulk,
                r_fill,
                r_lat,
                heat: 0.0,
            });
        }
        for i in 0..seg.ild {
            let mut r_bulk = d.ild.as_kelvin_per_watt() / seg.ild as f64;
            if i == 0 && leftover != ThermalResistance::ZERO {
                r_bulk += leftover.as_kelvin_per_watt();
                leftover = ThermalResistance::ZERO;
            }
            segments.push(Segment {
                r_bulk,
                r_fill,
                r_lat,
                heat: q / seg.ild as f64,
            });
        }
    }
    Ok(segments)
}

/// Dedicated `O(n)` path: the ladder's natural 2×2 block-tridiagonal
/// structure, solved by block Thomas elimination.
///
/// Unknowns are padded to an even count — block 0 is `(T₀, dummy)` with a
/// decoupled unit-diagonal dummy, block `s + 1` is `(B_s, V_s)` — so T₀'s
/// coupling to both first-segment nodes lands in the single off-diagonal
/// block between blocks 0 and 1. Model A's solve runs through here too,
/// with one lumped segment per plane.
pub(crate) fn solve_block_tridiag(
    scenario: &Scenario,
    segmentation: &Segmentation,
    segments: &[Segment],
    rs: f64,
) -> Result<ModelBSolution, CoreError> {
    let fact = factorize_block_tridiag(segmentation, segments, rs)?;
    fact.solve_rhs(scenario.plane_powers())
}

/// Assembles and factorizes the ladder matrix (geometry only — the heat
/// inputs live entirely in the right-hand side).
fn factorize_block_tridiag(
    segmentation: &Segmentation,
    segments: &[Segment],
    rs: f64,
) -> Result<ModelBFactorization, CoreError> {
    let n_seg = segments.len();
    let nb = n_seg + 1;

    // Per-segment conductances, computed once (the assembly below reads
    // each one twice: once for its own block, once as the coupling into
    // the block above).
    let gb: Vec<f64> = segments.iter().map(|s| 1.0 / s.r_bulk).collect();
    let gf: Vec<f64> = segments.iter().map(|s| 1.0 / s.r_fill).collect();

    // Assemble the blocks directly — the ladder stencil is known, so no
    // per-entry indexing: D[0] holds T₀ (grounded through Rs and coupled
    // to both first-segment nodes) plus the decoupled dummy; D[s+1] holds
    // (B_s, V_s) with the lateral liner rung on the off-diagonal; the
    // inter-block coupling blocks are diagonal (bulk→bulk, via→via),
    // except the first, where T₀ reaches both chains.
    let mut diag = Vec::with_capacity(nb);
    let mut lower = Vec::with_capacity(nb - 1);
    let mut upper = Vec::with_capacity(nb - 1);

    diag.push([1.0 / rs + gb[0] + gf[0], 0.0, 0.0, 1.0]);
    upper.push([-gb[0], -gf[0], 0.0, 0.0]);
    lower.push([-gb[0], 0.0, -gf[0], 0.0]);
    for (s, seg) in segments.iter().enumerate() {
        let (up_b, up_f) = if s + 1 < n_seg {
            (gb[s + 1], gf[s + 1])
        } else {
            (0.0, 0.0)
        };
        let lat = 1.0 / seg.r_lat;
        diag.push([gb[s] + lat + up_b, -lat, -lat, gf[s] + lat + up_f]);
        if s + 1 < n_seg {
            upper.push([-up_b, 0.0, 0.0, -up_f]);
            lower.push([-up_b, 0.0, 0.0, -up_f]);
        }
    }

    let m = BlockTridiagonal::from_blocks(diag, lower, upper);
    let lu = m.factorize()?;

    // The RHS recipe: which segments receive heat, from which plane, and
    // by what divisor — the heat itself stays out of the factorization.
    let mut heat_slots = Vec::new();
    let mut s = 0;
    for (j, seg) in segmentation.per_plane().iter().enumerate() {
        let n = seg.total();
        if n == 1 {
            // Lumped plane: the single segment carries the whole plane
            // heat (`q / 1.0` is exactly `q`).
            heat_slots.push(HeatSlot {
                segment: s,
                plane: j,
                divisor: 1.0,
            });
            s += 1;
            continue;
        }
        s += seg.silicon;
        for _ in 0..seg.ild {
            heat_slots.push(HeatSlot {
                segment: s,
                plane: j,
                divisor: seg.ild as f64,
            });
            s += 1;
        }
    }
    debug_assert_eq!(s, n_seg);

    Ok(ModelBFactorization {
        lu,
        n_seg,
        n_planes: segmentation.per_plane().len(),
        heat_slots,
        plane_top_segment: plane_top_segments(segmentation),
    })
}

/// Index of each plane's topmost segment — shared by the factorization
/// and the banded test oracle so the two solve paths can never disagree
/// on the plane layout.
fn plane_top_segments(segmentation: &Segmentation) -> Vec<usize> {
    let mut tops = Vec::with_capacity(segmentation.per_plane().len());
    let mut acc = 0;
    for p in segmentation.per_plane() {
        acc += p.total();
        tops.push(acc - 1);
    }
    tops
}

/// One heated segment of the ladder RHS: segment `segment` receives
/// `plane_powers[plane] / divisor` watts.
#[derive(Debug, Clone, Copy)]
struct HeatSlot {
    segment: usize,
    plane: usize,
    divisor: f64,
}

/// A factorized Model B ladder: the block-LU factors of the KCL matrix
/// plus the RHS recipe. The matrix depends only on the scenario's
/// *geometry* (stack, TSV, via density) — plane powers enter the
/// right-hand side alone — so scenarios that differ only in power share
/// one factorization and each extra solve is a single `O(n)`
/// back-substitution via [`ModelBFactorization::solve_rhs`].
///
/// Produced by [`ModelB::factorize`]; [`ModelBFactorization::solve_rhs`]
/// with the originating scenario's powers is bit-for-bit identical to
/// [`ModelB::solve`] on the default block-tridiagonal path (the property
/// suites assert it).
#[derive(Debug, Clone)]
pub struct ModelBFactorization {
    lu: BlockTridiagonalLu,
    n_seg: usize,
    n_planes: usize,
    heat_slots: Vec<HeatSlot>,
    plane_top_segment: Vec<usize>,
}

impl ModelBFactorization {
    /// Number of π-segments in the factored ladder.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.n_seg
    }

    /// Number of planes the RHS expects powers for.
    #[must_use]
    pub fn plane_count(&self) -> usize {
        self.n_planes
    }

    /// Solves the factored ladder for one per-plane power vector — a
    /// single back-substitution, no re-assembly, no re-factorization.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] when the power count does
    /// not match the factored plane count, or a negative/non-finite power
    /// is supplied; propagates solver failures.
    pub fn solve_rhs(&self, plane_powers: &[Power]) -> Result<ModelBSolution, CoreError> {
        let mut x = self.assemble_rhs(plane_powers)?;
        self.lu.solve_in_place(&mut x)?;

        // Strip the dummy back out into the `[T0, B₁, V₁, …]` layout.
        let mut t = Vec::with_capacity(1 + 2 * self.n_seg);
        t.push(x[0]);
        for s in 0..self.n_seg {
            t.push(x[2 * s + 2]);
            t.push(x[2 * s + 3]);
        }
        Ok(ModelBSolution::from_parts(
            &t,
            self.n_seg,
            self.plane_top_segment.clone(),
        ))
    }

    /// Validates a power vector and assembles the padded ladder RHS.
    fn assemble_rhs(&self, plane_powers: &[Power]) -> Result<Vec<f64>, CoreError> {
        self.validate_powers(plane_powers)?;
        let mut x = vec![0.0; 2 * (self.n_seg + 1)];
        for slot in &self.heat_slots {
            x[2 * (slot.segment + 1)] = plane_powers[slot.plane].as_watts() / slot.divisor;
        }
        Ok(x)
    }

    /// Maximum node temperature of a solved (padded) ladder vector —
    /// `max` is order-independent over real temperatures, so this matches
    /// [`ModelBSolution::max_delta_t`] exactly without materializing the
    /// solution.
    fn max_of_solution(&self, x: &[f64]) -> TemperatureDelta {
        let mut max = x[0];
        for s in 0..self.n_seg {
            max = max.max(x[2 * s + 2]);
            max = max.max(x[2 * s + 3]);
        }
        TemperatureDelta::from_kelvin(max)
    }

    /// [`ModelBFactorization::solve_rhs`] reduced to the hotspot metric —
    /// no solution object is built, just the back-substitution and a max
    /// scan.
    ///
    /// # Errors
    ///
    /// See [`ModelBFactorization::solve_rhs`].
    pub fn max_delta_t(&self, plane_powers: &[Power]) -> Result<TemperatureDelta, CoreError> {
        let mut x = self.assemble_rhs(plane_powers)?;
        self.lu.solve_in_place(&mut x)?;
        Ok(self.max_of_solution(&x))
    }

    /// Batched hotspot metric: four right-hand sides share each pass over
    /// the factors
    /// ([`BlockTridiagonalLu::solve_interleaved_x4`]), which is what makes a
    /// thousand same-geometry tiles nearly free. Per-vector results are
    /// bit-identical to [`ModelBFactorization::max_delta_t`].
    ///
    /// # Errors
    ///
    /// See [`ModelBFactorization::solve_rhs`].
    pub fn max_delta_t_batch(
        &self,
        batch: &[Vec<Power>],
    ) -> Result<Vec<TemperatureDelta>, CoreError> {
        let mut out = Vec::with_capacity(batch.len());
        let n = 2 * (self.n_seg + 1);
        // Lane-interleaved buffer (unknown i of lane l at 4·i + l),
        // reused across quads: assembly, solve, and max scan all run in
        // this layout, so nothing is ever transposed.
        let mut z = vec![0.0; 4 * n];
        let mut quads = batch.chunks_exact(4);
        for quad in &mut quads {
            z.fill(0.0);
            for (l, powers) in quad.iter().enumerate() {
                self.validate_powers(powers)?;
                for slot in &self.heat_slots {
                    z[4 * (2 * (slot.segment + 1)) + l] =
                        powers[slot.plane].as_watts() / slot.divisor;
                }
            }
            self.lu.solve_interleaved_x4(&mut z)?;
            for l in 0..4 {
                // Max over T0 and every bulk/via node of lane `l`,
                // skipping the dummy unknown. `max` is exact (no
                // rounding), so accumulation order cannot change the
                // result.
                let mut max = z[l];
                for s in 0..self.n_seg {
                    max = max.max(z[4 * (2 * s + 2) + l]);
                    max = max.max(z[4 * (2 * s + 3) + l]);
                }
                out.push(TemperatureDelta::from_kelvin(max));
            }
        }
        for powers in quads.remainder() {
            out.push(self.max_delta_t(powers)?);
        }
        Ok(out)
    }

    /// The power-vector validation shared by every solve entry point.
    fn validate_powers(&self, plane_powers: &[Power]) -> Result<(), CoreError> {
        if plane_powers.len() != self.n_planes {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "factorization covers {} planes, got {} powers",
                    self.n_planes,
                    plane_powers.len()
                ),
            });
        }
        if let Some(p) = plane_powers
            .iter()
            .find(|p| !p.as_watts().is_finite() || p.as_watts() < 0.0)
        {
            return Err(CoreError::InvalidScenario {
                reason: format!("plane power must be finite and non-negative, got {p}"),
            });
        }
        Ok(())
    }
}

/// A solved distributed ladder.
#[derive(Debug, Clone)]
pub struct ModelBSolution {
    /// Temperature at the top of the lumped substrate.
    t0: TemperatureDelta,
    /// Bulk-node temperature per segment, bottom → top.
    bulk: Vec<TemperatureDelta>,
    /// Via-node temperature per segment, bottom → top.
    via: Vec<TemperatureDelta>,
    /// Index of each plane's topmost segment.
    plane_top_segment: Vec<usize>,
}

impl ModelBSolution {
    fn from_parts(t: &[f64], n_seg: usize, plane_top_segment: Vec<usize>) -> Self {
        let t0 = TemperatureDelta::from_kelvin(t[0]);
        let mut bulk = Vec::with_capacity(n_seg);
        let mut via = Vec::with_capacity(n_seg);
        for s in 0..n_seg {
            bulk.push(TemperatureDelta::from_kelvin(t[1 + 2 * s]));
            via.push(TemperatureDelta::from_kelvin(t[2 + 2 * s]));
        }
        Self {
            t0,
            bulk,
            via,
            plane_top_segment,
        }
    }

    /// Temperature at the top of the lumped first substrate.
    #[must_use]
    pub fn t0(&self) -> TemperatureDelta {
        self.t0
    }

    /// Bulk-node temperatures, bottom → top (one per segment).
    #[must_use]
    pub fn bulk_profile(&self) -> &[TemperatureDelta] {
        &self.bulk
    }

    /// Via-node temperatures, bottom → top (one per segment).
    #[must_use]
    pub fn via_profile(&self) -> &[TemperatureDelta] {
        &self.via
    }

    /// Bulk temperature at the top of each plane.
    #[must_use]
    pub fn plane_top_temperatures(&self) -> Vec<TemperatureDelta> {
        self.plane_top_segment
            .iter()
            .map(|&s| self.bulk[s])
            .collect()
    }

    /// The maximum temperature rise (the paper's `Max ΔT`).
    #[must_use]
    pub fn max_delta_t(&self) -> TemperatureDelta {
        self.bulk
            .iter()
            .chain(self.via.iter())
            .copied()
            .fold(self.t0, TemperatureDelta::max)
    }
}

/// Test oracle for the block-tridiagonal kernel: an independent generic
/// banded assembly, unknowns `[T0, B₁, V₁, B₂, V₂, ...]`, bandwidth 2.
#[cfg(test)]
fn solve_banded(
    segmentation: &Segmentation,
    segments: &[Segment],
    rs: f64,
) -> Result<ModelBSolution, CoreError> {
    let n_seg = segments.len();
    let n = 1 + 2 * n_seg;
    let mut m = ttsv_linalg::BandedMatrix::zeros(n, 2, 2);
    let mut rhs = vec![0.0; n];

    let bulk_node = |s: usize| 1 + 2 * s;
    let via_node = |s: usize| 2 + 2 * s;

    // T0 → ground through Rs.
    m.add(0, 0, 1.0 / rs);

    let couple = |m: &mut ttsv_linalg::BandedMatrix, i: usize, j: usize, g: f64| {
        m.add(i, i, g);
        m.add(j, j, g);
        m.add(i, j, -g);
        m.add(j, i, -g);
    };

    for (s, seg) in segments.iter().enumerate() {
        let (below_bulk, below_via) = if s == 0 {
            (0, 0)
        } else {
            (bulk_node(s - 1), via_node(s - 1))
        };
        couple(&mut m, bulk_node(s), below_bulk, 1.0 / seg.r_bulk);
        couple(&mut m, via_node(s), below_via, 1.0 / seg.r_fill);
        couple(&mut m, bulk_node(s), via_node(s), 1.0 / seg.r_lat);
        rhs[bulk_node(s)] += seg.heat;
    }

    let t = m.solve(&rhs)?;
    Ok(ModelBSolution::from_parts(
        &t,
        n_seg,
        plane_top_segments(segmentation),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitting::FittingCoefficients;
    use crate::geometry::TtsvConfig;
    use crate::model_a::ModelA;
    use ttsv_units::Length;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn scenario() -> Scenario {
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(5.0), um(0.5)))
            .with_ild_thickness(um(7.0))
            .build()
            .unwrap()
    }

    #[test]
    fn segmentation_splits_proportionally() {
        let s = scenario();
        let seg = Segmentation::paper_scheme(&s, 10, 100);
        // Plane 0: l_ext = 1 µm vs tD = 7 µm → si ≈ 1, ild ≈ 9.
        assert_eq!(seg.per_plane()[0].total(), 10);
        assert!(seg.per_plane()[0].silicon >= 1);
        // Upper planes: tSi = 45 vs tD = 7 → si ≈ 87 of 100.
        assert_eq!(seg.per_plane()[1].total(), 100);
        assert!(seg.per_plane()[1].silicon > seg.per_plane()[1].ild);
        assert_eq!(seg.total(), 210);
    }

    #[test]
    fn single_segment_planes_are_lumped() {
        let s = scenario();
        let seg = Segmentation::paper_scheme(&s, 1, 1);
        for p in seg.per_plane() {
            assert_eq!(p.total(), 1);
            assert_eq!(p.silicon, 0);
        }
        // And it still solves.
        let sol = ModelB::paper_b1().solve(&s).unwrap();
        assert!(sol.max_delta_t().as_kelvin() > 0.0);
    }

    #[test]
    fn t0_equals_rs_times_total_power() {
        // All heat exits through Rs, so T0 = Rs·Σq exactly (eq. 6).
        let s = scenario();
        let sol = ModelB::paper_b100().solve(&s).unwrap();
        let rs = substrate_resistance(&s);
        let want = rs * s.total_power().as_watts();
        assert!(
            (sol.t0().as_kelvin() - want).abs() < 1e-9 * want,
            "{} vs {want}",
            sol.t0()
        );
    }

    #[test]
    fn block_kernel_matches_banded_oracle() {
        // The production block-tridiagonal kernel against an independent
        // generic banded-LU assembly of the same ladder, whole profiles,
        // across Table I's segment range and a few via radii. Both are
        // backward-stable direct eliminations, so they agree to rounding
        // amplified by the ladder's conditioning: 1e-10 relative up to
        // B(100) (≈ 200 segments), while B(1000)'s 2050 segments measure
        // up to 2e-10 and get one decade more.
        for radius in [2.0, 5.0, 10.0] {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(radius), um(0.5)))
                .with_ild_thickness(um(7.0))
                .build()
                .unwrap();
            for (model, tol) in [
                (ModelB::paper_b1(), 1e-10),
                (ModelB::paper_b20(), 1e-10),
                (ModelB::paper_b100(), 1e-10),
                (ModelB::paper_b1000(), 1e-9),
            ] {
                let segmentation = Segmentation::paper_scheme(
                    &s,
                    model.first_plane_segments,
                    model.upper_plane_segments,
                );
                let block = model.solve_segmented(&s, &segmentation).unwrap();
                let segments = build_segments(&s, &segmentation).unwrap();
                let banded =
                    solve_banded(&segmentation, &segments, substrate_resistance(&s)).unwrap();
                let reference = block.max_delta_t().as_kelvin();
                let banded_dt = banded.max_delta_t().as_kelvin();
                let label = format!("{} at r = {radius} µm", model.name());
                assert!(
                    (reference - banded_dt).abs() < tol * reference,
                    "{label}: block {reference} vs banded {banded_dt}"
                );
                assert!(
                    (block.t0().as_kelvin() - banded.t0().as_kelvin()).abs() < tol * reference,
                    "{label}: T0"
                );
                for (a, b) in block.bulk_profile().iter().zip(banded.bulk_profile()) {
                    assert!(
                        (a.as_kelvin() - b.as_kelvin()).abs() < tol * reference,
                        "{label}: bulk profile"
                    );
                }
                for (a, b) in block.via_profile().iter().zip(banded.via_profile()) {
                    assert!(
                        (a.as_kelvin() - b.as_kelvin()).abs() < tol * reference,
                        "{label}: via profile"
                    );
                }
            }
        }
    }

    #[test]
    fn factorize_then_solve_rhs_is_bitwise_identical_to_solve() {
        let s = scenario();
        let model = ModelB::paper_b100();
        let direct = model.solve(&s).unwrap();
        let fact = model.factorize(&s).unwrap();
        let via_fact = fact.solve_rhs(s.plane_powers()).unwrap();
        assert_eq!(
            direct.t0().as_kelvin().to_bits(),
            via_fact.t0().as_kelvin().to_bits()
        );
        for (a, b) in direct.bulk_profile().iter().zip(via_fact.bulk_profile()) {
            assert_eq!(a.as_kelvin().to_bits(), b.as_kelvin().to_bits());
        }
        for (a, b) in direct.via_profile().iter().zip(via_fact.via_profile()) {
            assert_eq!(a.as_kelvin().to_bits(), b.as_kelvin().to_bits());
        }
        assert_eq!(fact.plane_count(), 3);
        assert_eq!(fact.segment_count(), 210);
    }

    #[test]
    fn one_factorization_serves_many_power_vectors() {
        // Scale every plane power: the matrix is power-independent, so the
        // shared factorization must reproduce fresh solves exactly.
        let s = scenario();
        let model = ModelB::paper_b20();
        let fact = model.factorize(&s).unwrap();
        for scale in [0.5, 1.0, 2.25, 7.0] {
            let powers: Vec<Power> = s
                .plane_powers()
                .iter()
                .map(|p| Power::from_watts(p.as_watts() * scale))
                .collect();
            let stack = s.stack().clone();
            let scaled = Scenario::new(
                stack,
                s.tsv().clone(),
                &crate::geometry::HeatLoad::PerPlane(powers.clone()),
            )
            .unwrap();
            let direct = model.solve(&scaled).unwrap().max_delta_t();
            let shared = fact.max_delta_t(&powers).unwrap();
            assert_eq!(
                direct.as_kelvin().to_bits(),
                shared.as_kelvin().to_bits(),
                "scale {scale}: {direct} vs {shared}"
            );
        }
    }

    #[test]
    fn factorization_rejects_wrong_power_count_and_bad_powers() {
        let s = scenario();
        let fact = ModelB::paper_b20().factorize(&s).unwrap();
        assert!(matches!(
            fact.solve_rhs(&[Power::from_watts(1.0)]),
            Err(CoreError::InvalidScenario { .. })
        ));
        let bad = vec![
            Power::from_watts(1.0),
            Power::from_watts(-1.0),
            Power::from_watts(1.0),
        ];
        assert!(matches!(
            fact.solve_rhs(&bad),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn refinement_converges() {
        let s = scenario();
        let d20 = ModelB::paper_b20().max_delta_t(&s).unwrap().as_kelvin();
        let d100 = ModelB::paper_b100().max_delta_t(&s).unwrap().as_kelvin();
        let d500 = ModelB::paper_b500().max_delta_t(&s).unwrap().as_kelvin();
        // Cauchy-style: successive differences shrink.
        assert!(
            (d500 - d100).abs() < (d100 - d20).abs(),
            "{d20}, {d100}, {d500}"
        );
        // And the fine solutions are within 2% of each other.
        assert!((d500 - d100).abs() < 0.02 * d500);
    }

    #[test]
    fn profile_is_monotone_up_the_stack() {
        let s = scenario();
        let sol = ModelB::paper_b100().solve(&s).unwrap();
        // Bulk temperatures must increase monotonically from T0 upward
        // (all heat flows down).
        let profile = sol.bulk_profile();
        assert!(profile[0] >= sol.t0());
        for w in profile.windows(2) {
            assert!(w[1] >= w[0], "bulk profile must be monotone");
        }
        assert_eq!(sol.plane_top_temperatures().len(), 3);
    }

    #[test]
    fn agrees_with_model_a_unity_within_reason() {
        // Model B without fitting ≈ Model A without fitting: same physics,
        // different discretization. Distributing the heat through the ILD
        // and the liner coupling along the via height makes B systematically
        // cooler than the lumped A (that is exactly the discrepancy the
        // paper's k₁/k₂ absorb), but they must stay in the same ballpark.
        let s = scenario();
        let a = ModelA::with_coefficients(FittingCoefficients::unity())
            .max_delta_t(&s)
            .unwrap()
            .as_kelvin();
        let b = ModelB::paper_b100().max_delta_t(&s).unwrap().as_kelvin();
        assert!(
            b < a,
            "distributed B ({b}) should run cooler than lumped A ({a})"
        );
        assert!(
            (a - b).abs() < 0.35 * a,
            "Model A (unity) {a} vs Model B {b}"
        );
    }

    #[test]
    fn delta_t_trends_match_model_a() {
        // Radius down, liner up, substrate non-monotonic.
        let model = ModelB::paper_b100();
        let dt_r = |r: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(r), um(0.5)))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        assert!(dt_r(15.0) < dt_r(8.0));
        assert!(dt_r(8.0) < dt_r(3.0));

        let dt_tsi = |t: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
                .with_ild_thickness(um(7.0))
                .with_upper_si_thickness(um(t))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let (a5, a20, a80) = (dt_tsi(5.0), dt_tsi(20.0), dt_tsi(80.0));
        assert!(a20 < a5, "non-monotonic dip: {a5} → {a20}");
        assert!(a80 > a20, "non-monotonic rise: {a20} → {a80}");
    }

    #[test]
    fn explicit_segmentation_requires_ild_segments() {
        let s = scenario();
        let seg = Segmentation::explicit(vec![
            PlaneSegments { silicon: 1, ild: 2 },
            PlaneSegments { silicon: 5, ild: 2 },
            PlaneSegments { silicon: 5, ild: 2 },
        ]);
        let sol = ModelB::paper_b100().solve_segmented(&s, &seg).unwrap();
        assert!(sol.max_delta_t().as_kelvin() > 0.0);
    }

    #[test]
    #[should_panic(expected = "ILD segment")]
    fn zero_ild_segments_rejected() {
        let _ = Segmentation::explicit(vec![PlaneSegments { silicon: 1, ild: 0 }]);
    }

    #[test]
    fn segmentation_mismatch_is_an_error() {
        let s = scenario();
        let seg = Segmentation::explicit(vec![PlaneSegments { silicon: 1, ild: 1 }]);
        assert!(matches!(
            ModelB::paper_b100().solve_segmented(&s, &seg),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn model_name_includes_segment_count() {
        assert_eq!(ModelB::paper_b100().name(), "Model B (100)");
        assert_eq!(ModelB::paper_b1().name(), "Model B (1)");
    }
}
