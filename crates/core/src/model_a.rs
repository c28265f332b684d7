//! Model A — the compact per-plane resistive network (paper §II).
//!
//! Each plane contributes a bulk node and a via node at its top interface,
//! connected by three resistances (Fig. 2); the top plane has a single
//! merged node whose via branch is the series `R_{fill} + R_{lat}`
//! (eq. 1). Heat `q_j` enters at each plane's bulk node, and the whole
//! stack drains through the lumped substrate resistance `R_s` (eq. 16),
//! giving `T₀ = R_s·Σq` (eq. 6).
//!
//! # Solved on Model B's ladder
//!
//! This network is Model B's π-ladder ([`crate::model_b`]) with one
//! lumped segment per plane: the segment's bulk, fill and lateral
//! resistances are eqs. 7–15 (with the fitting coefficients), and the
//! ladder drains through the fitted `R_s`. So [`ModelA::solve`] runs the
//! ladder's block-tridiagonal factorization and back-substitution, with
//! no assembly of its own.
//!
//! The ladder keeps a via node on the top plane, which Fig. 2 merges
//! away. That node carries no heat source, so KCL makes its temperature
//! the conductance-weighted mean of its two neighbours: the top bulk
//! node (through `R_lat`) and the via node below (through `R_fill`).
//! Eliminating it therefore leaves exactly eq. 1's series branch
//! `R_fill + R_lat` and changes no other temperature. Being a mean, its
//! temperature lies between its neighbours', so it never sets the
//! maximum; the solution reports it as `None` and leaves it out of
//! `Max ΔT`.

use ttsv_units::{Power, TemperatureDelta};

use crate::error::CoreError;
use crate::fitting::FittingCoefficients;
use crate::model_b::{solve_block_tridiag, PlaneSegments, Segment, Segmentation};
use crate::resistances::{model_a_resistances, ModelAResistances};
use crate::scenario::{Scenario, ThermalModel};

/// The compact analytical TTSV model with fitting coefficients.
///
/// ```
/// use ttsv_core::prelude::*;
///
/// let scenario = Scenario::paper_block().build()?;
/// let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
/// let solution = model.solve(&scenario)?;
/// assert!(solution.max_delta_t() > solution.t0()); // heat flows upward
/// # Ok::<(), CoreError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct ModelA {
    fit: FittingCoefficients,
}

impl ModelA {
    /// Model A with unity coefficients (no FEM correction).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Model A with explicit fitting coefficients.
    #[must_use]
    pub fn with_coefficients(fit: FittingCoefficients) -> Self {
        Self { fit }
    }

    /// The coefficients in use.
    #[must_use]
    pub fn coefficients(&self) -> &FittingCoefficients {
        &self.fit
    }

    /// Solves the compact network for a scenario, as Model B's ladder
    /// with one lumped segment per plane (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Linalg`] if the ladder factorization meets a
    /// singular pivot, which cannot happen for a validated scenario (its
    /// resistances are finite and positive).
    pub fn solve(&self, scenario: &Scenario) -> Result<ModelASolution, CoreError> {
        let resistances = model_a_resistances(scenario.stack(), scenario.tsv(), &self.fit);
        let n = scenario.stack().plane_count();

        let segments: Vec<Segment> = resistances
            .planes
            .iter()
            .zip(scenario.plane_powers())
            .map(|(r, q)| Segment {
                r_bulk: r.bulk.as_kelvin_per_watt(),
                r_fill: r.fill.as_kelvin_per_watt(),
                r_lat: r.liner_lateral.as_kelvin_per_watt(),
                heat: q.as_watts(),
            })
            .collect();
        let lumped = Segmentation::explicit(vec![PlaneSegments { silicon: 0, ild: 1 }; n]);
        let ladder = solve_block_tridiag(
            scenario,
            &lumped,
            &segments,
            resistances.substrate.as_kelvin_per_watt(),
        )?;

        let t0 = ladder.t0();
        let bulk = ladder.bulk_profile().to_vec();
        // The top plane's via node is the one Fig. 2 merges away.
        let via: Vec<Option<TemperatureDelta>> = ladder
            .via_profile()
            .iter()
            .enumerate()
            .map(|(j, &t)| (j + 1 < n).then_some(t))
            .collect();
        let max = bulk
            .iter()
            .chain(via.iter().flatten())
            .chain(std::iter::once(&t0))
            .copied()
            .fold(TemperatureDelta::ZERO, TemperatureDelta::max);

        Ok(ModelASolution {
            resistances,
            t0,
            bulk,
            via,
            max,
        })
    }

    /// Solves the three-plane system by direct transcription of the paper's
    /// eqs. (1)–(6) into a 5×5 linear system — an independent cross-check of
    /// the ladder solve used by [`ModelA::solve`].
    ///
    /// # Errors
    ///
    /// * [`CoreError::InvalidScenario`] if the stack does not have exactly
    ///   three planes.
    /// * [`CoreError::Linalg`] if the 5×5 solve fails.
    pub fn solve_three_plane_direct(
        &self,
        scenario: &Scenario,
    ) -> Result<ModelASolution, CoreError> {
        if scenario.stack().plane_count() != 3 {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "solve_three_plane_direct needs exactly 3 planes, got {}",
                    scenario.stack().plane_count()
                ),
            });
        }
        let res = model_a_resistances(scenario.stack(), scenario.tsv(), &self.fit);
        let [q1, q2, q3] = [
            scenario.plane_powers()[0].as_watts(),
            scenario.plane_powers()[1].as_watts(),
            scenario.plane_powers()[2].as_watts(),
        ];
        let (r1, r2, r3) = (
            res.planes[0].bulk.as_kelvin_per_watt(),
            res.planes[0].fill.as_kelvin_per_watt(),
            res.planes[0].liner_lateral.as_kelvin_per_watt(),
        );
        let (r4, r5, r6) = (
            res.planes[1].bulk.as_kelvin_per_watt(),
            res.planes[1].fill.as_kelvin_per_watt(),
            res.planes[1].liner_lateral.as_kelvin_per_watt(),
        );
        let (r7, r8, r9) = (
            res.planes[2].bulk.as_kelvin_per_watt(),
            res.planes[2].fill.as_kelvin_per_watt(),
            res.planes[2].liner_lateral.as_kelvin_per_watt(),
        );
        let rs = res.substrate.as_kelvin_per_watt();

        // Eq. (6): T0 = Rs · Σq.
        let t0 = rs * (q1 + q2 + q3);

        // Unknowns x = [T1, T2, T3, T4, T5]; transcribe eqs. (1)–(5).
        let mut a = [[0.0f64; 5]; 5];
        let mut b = [0.0f64; 5];
        // (1)  q3 = (T5 − T3)/R7 + (T5 − T4)/(R8 + R9)
        a[0][4] = 1.0 / r7 + 1.0 / (r8 + r9);
        a[0][2] = -1.0 / r7;
        a[0][3] = -1.0 / (r8 + r9);
        b[0] = q3;
        // (2)  q2 + (T5 − T3)/R7 = (T3 − T4)/R6 + (T3 − T1)/R4
        a[1][2] = 1.0 / r7 + 1.0 / r6 + 1.0 / r4;
        a[1][4] = -1.0 / r7;
        a[1][3] = -1.0 / r6;
        a[1][0] = -1.0 / r4;
        b[1] = q2;
        // (3)  (T3 − T4)/R6 + (T5 − T4)/(R8 + R9) = (T4 − T2)/R5
        a[2][3] = 1.0 / r6 + 1.0 / (r8 + r9) + 1.0 / r5;
        a[2][2] = -1.0 / r6;
        a[2][4] = -1.0 / (r8 + r9);
        a[2][1] = -1.0 / r5;
        b[2] = 0.0;
        // (4)  q1 + (T3 − T1)/R4 = (T1 − T2)/R3 + (T1 − T0)/R1
        a[3][0] = 1.0 / r4 + 1.0 / r3 + 1.0 / r1;
        a[3][2] = -1.0 / r4;
        a[3][1] = -1.0 / r3;
        b[3] = q1 + t0 / r1;
        // (5)  (T1 − T2)/R3 + (T4 − T2)/R5 = (T2 − T0)/R2
        a[4][1] = 1.0 / r3 + 1.0 / r5 + 1.0 / r2;
        a[4][0] = -1.0 / r3;
        a[4][3] = -1.0 / r5;
        b[4] = t0 / r2;

        let rows: Vec<&[f64]> = a.iter().map(|r| r.as_slice()).collect();
        let x = ttsv_linalg::DenseMatrix::from_rows(&rows).solve(&b)?;

        let t = TemperatureDelta::from_kelvin;
        let bulk = vec![t(x[0]), t(x[2]), t(x[4])];
        let via = vec![Some(t(x[1])), Some(t(x[3])), None];
        let max = x.iter().fold(t0, |m, &v| m.max(v));
        Ok(ModelASolution {
            resistances: res,
            t0: t(t0),
            bulk,
            via,
            max: t(max),
        })
    }
}

impl ThermalModel for ModelA {
    fn name(&self) -> String {
        "Model A".to_string()
    }

    fn max_delta_t(&self, scenario: &Scenario) -> Result<TemperatureDelta, CoreError> {
        Ok(self.solve(scenario)?.max_delta_t())
    }

    fn cache_tag(&self) -> String {
        // The display name omits the fitting coefficients, which change
        // the results — fold their exact bits into the cache identity.
        format!(
            "Model A[k1={:016x},k2={:016x}]",
            self.fit.k1().to_bits(),
            self.fit.k2().to_bits()
        )
    }
}

/// Model A node temperatures and the resistances that produced them.
#[derive(Debug, Clone)]
pub struct ModelASolution {
    resistances: ModelAResistances,
    t0: TemperatureDelta,
    bulk: Vec<TemperatureDelta>,
    via: Vec<Option<TemperatureDelta>>,
    max: TemperatureDelta,
}

impl ModelASolution {
    /// Temperature at the top of the lumped first substrate (paper's `T₀`).
    #[must_use]
    pub fn t0(&self) -> TemperatureDelta {
        self.t0
    }

    /// Bulk-node temperature of each plane (top plane: the merged node,
    /// paper's `T₅`).
    #[must_use]
    pub fn bulk_temperatures(&self) -> &[TemperatureDelta] {
        &self.bulk
    }

    /// Via-node temperature of each plane (`None` for the top plane, whose
    /// via node is merged).
    #[must_use]
    pub fn via_temperatures(&self) -> &[Option<TemperatureDelta>] {
        &self.via
    }

    /// The maximum temperature rise (the paper's `Max ΔT`).
    #[must_use]
    pub fn max_delta_t(&self) -> TemperatureDelta {
        self.max
    }

    /// The resistances used for the solve (eqs. 7–16).
    #[must_use]
    pub fn resistances(&self) -> &ModelAResistances {
        &self.resistances
    }

    /// Heat flowing down the via stack out of plane 1's via into the
    /// substrate: `(T₂ − T₀)/R₂` — a measure of how much the TTSV helps.
    #[must_use]
    pub fn via_heat(&self) -> Power {
        match self.via.first().copied().flatten() {
            Some(t2) => (t2 - self.t0) / self.resistances.planes[0].fill,
            None => Power::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::full_chip::CaseStudy;
    use crate::geometry::TtsvConfig;
    use ttsv_linalg::DenseMatrix;
    use ttsv_units::Length;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn fig5_scenario(r_um: f64, tl_um: f64) -> Scenario {
        Scenario::paper_block()
            .with_tsv(TtsvConfig::new(um(r_um), um(tl_um)))
            .with_ild_thickness(um(7.0))
            .build()
            .unwrap()
    }

    #[test]
    fn network_and_direct_transcription_agree() {
        // `ModelA::solve` (the ladder) against the 3-plane oracle.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        for (r, tl) in [(5.0, 0.5), (5.0, 3.0), (10.0, 1.0), (2.0, 0.5)] {
            let s = fig5_scenario(r, tl);
            let ladder = model.solve(&s).unwrap();
            let direct = model.solve_three_plane_direct(&s).unwrap();
            assert!(
                (ladder.max_delta_t().as_kelvin() - direct.max_delta_t().as_kelvin()).abs()
                    < 1e-9 * ladder.max_delta_t().as_kelvin(),
                "r={r} tl={tl}: ladder {} vs direct {}",
                ladder.max_delta_t(),
                direct.max_delta_t()
            );
            for j in 0..3 {
                let a = ladder.bulk_temperatures()[j].as_kelvin();
                let b = direct.bulk_temperatures()[j].as_kelvin();
                assert!((a - b).abs() < 1e-9 * a.max(1.0), "plane {j}: {a} vs {b}");
            }
        }
    }

    /// Fig. 2 assembled literally for any plane count: unknowns
    /// `[T₀, B₁, V₁, …, B_{n−1}, V_{n−1}, T_top]`, where the top plane is
    /// one merged node whose via branch is `R_fill + R_lat` (eq. 1). Returns
    /// the dense nodal matrix and the heat vector (W), both in that order.
    fn fig2_nodal_system(res: &ModelAResistances, q: &[Power]) -> (DenseMatrix, Vec<f64>) {
        let n = res.planes.len();
        let size = 2 * n;
        let bulk = |j: usize| if j + 1 == n { size - 1 } else { 1 + 2 * j };
        let via = |j: usize| 2 + 2 * j;
        let mut g = vec![vec![0.0; size]; size];
        let mut stamp = |a: usize, b: Option<usize>, r: f64| {
            g[a][a] += 1.0 / r;
            if let Some(b) = b {
                g[b][b] += 1.0 / r;
                g[a][b] -= 1.0 / r;
                g[b][a] -= 1.0 / r;
            }
        };
        stamp(0, None, res.substrate.as_kelvin_per_watt());
        for (j, r) in res.planes.iter().enumerate() {
            let (below_bulk, below_via) = if j == 0 {
                (0, 0)
            } else {
                (bulk(j - 1), via(j - 1))
            };
            stamp(bulk(j), Some(below_bulk), r.bulk.as_kelvin_per_watt());
            if j + 1 == n {
                stamp(
                    bulk(j),
                    Some(below_via),
                    (r.fill + r.liner_lateral).as_kelvin_per_watt(),
                );
            } else {
                stamp(via(j), Some(below_via), r.fill.as_kelvin_per_watt());
                stamp(bulk(j), Some(via(j)), r.liner_lateral.as_kelvin_per_watt());
            }
        }
        let mut heat = vec![0.0; size];
        for (j, p) in q.iter().enumerate() {
            heat[bulk(j)] = p.as_watts();
        }
        let rows: Vec<&[f64]> = g.iter().map(Vec::as_slice).collect();
        (DenseMatrix::from_rows(&rows), heat)
    }

    #[test]
    fn ladder_matches_the_literal_fig2_network_for_any_plane_count() {
        let fits = [
            FittingCoefficients::unity(),
            FittingCoefficients::paper_block(),
            CaseStudy::paper_fitting(),
        ];
        for planes in 2..=6 {
            for r_um in [2.0, 8.0, 20.0] {
                let s = Scenario::paper_block()
                    .with_planes(planes)
                    .with_tsv(TtsvConfig::new(um(r_um), um(0.5)))
                    .build()
                    .unwrap();
                for fit in fits {
                    let sol = ModelA::with_coefficients(fit).solve(&s).unwrap();
                    let (g, heat) = fig2_nodal_system(sol.resistances(), s.plane_powers());
                    let x = g.solve(&heat).unwrap();

                    // The ladder's answer in the same node order.
                    let mut t = vec![sol.t0().as_kelvin()];
                    for j in 0..planes - 1 {
                        t.push(sol.bulk_temperatures()[j].as_kelvin());
                        t.push(sol.via_temperatures()[j].unwrap().as_kelvin());
                    }
                    t.push(sol.bulk_temperatures()[planes - 1].as_kelvin());
                    assert_eq!(sol.via_temperatures()[planes - 1], None);

                    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
                    let what = format!("{planes} planes, r = {r_um} µm, {fit:?}");
                    for (node, (&a, &b)) in t.iter().zip(&x).enumerate() {
                        assert!(close(a, b), "{what}: node {node}: ladder {a} vs Fig. 2 {b}");
                    }
                    let oracle_max = x.iter().fold(0.0f64, |m, &v| m.max(v));
                    assert!(
                        close(sol.max_delta_t().as_kelvin(), oracle_max),
                        "{what}: max ΔT {} vs Fig. 2 {oracle_max}",
                        sol.max_delta_t()
                    );

                    // KCL holds at every node of Fig. 2 for the ladder's
                    // temperatures: the net heat imbalance is ~0 W.
                    let kcl = g
                        .matvec(&t)
                        .unwrap()
                        .iter()
                        .zip(&heat)
                        .fold(0.0f64, |m, (flow, q)| m.max((flow - q).abs()));
                    assert!(kcl <= 1e-12, "{what}: KCL residual {kcl} W");
                }
            }
        }
    }

    #[test]
    fn t0_equals_rs_times_total_power() {
        // Eq. (6) must hold in the ladder solution too.
        let model = ModelA::new();
        let s = fig5_scenario(5.0, 0.5);
        let sol = model.solve(&s).unwrap();
        let rs = sol.resistances().substrate;
        let want = (s.total_power() * rs).as_kelvin();
        assert!((sol.t0().as_kelvin() - want).abs() < 1e-9 * want);
    }

    #[test]
    fn top_plane_is_the_hottest() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let sol = model.solve(&fig5_scenario(5.0, 0.5)).unwrap();
        assert_eq!(sol.max_delta_t(), *sol.bulk_temperatures().last().unwrap());
        // Temperatures increase monotonically up the stack.
        for w in sol.bulk_temperatures().windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn delta_t_decreases_with_radius() {
        // The paper's Fig. 4 headline trend.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let mut prev = f64::INFINITY;
        for r in [2.0, 5.0, 10.0, 15.0, 20.0] {
            let dt = model
                .max_delta_t(&fig5_scenario(r, 0.5))
                .unwrap()
                .as_kelvin();
            assert!(dt < prev, "ΔT should fall with r: {prev} → {dt} at r={r}");
            prev = dt;
        }
    }

    #[test]
    fn delta_t_increases_with_liner_thickness() {
        // The paper's Fig. 5 trend (thicker liner blocks the lateral path).
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let mut prev = 0.0;
        for tl in [0.5, 1.0, 2.0, 3.0] {
            let dt = model
                .max_delta_t(&fig5_scenario(5.0, tl))
                .unwrap()
                .as_kelvin();
            assert!(
                dt > prev,
                "ΔT should rise with tL: {prev} → {dt} at tL={tl}"
            );
            prev = dt;
        }
    }

    #[test]
    fn delta_t_non_monotonic_in_substrate_thickness() {
        // The paper's Fig. 6 headline: thinning silicon is not always good.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let dt = |t_si: f64| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::new(um(8.0), um(1.0)))
                .with_ild_thickness(um(7.0))
                .with_upper_si_thickness(um(t_si))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let at5 = dt(5.0);
        let at20 = dt(20.0);
        let at80 = dt(80.0);
        assert!(
            at20 < at5,
            "ΔT(20µm) = {at20} should be below ΔT(5µm) = {at5}"
        );
        assert!(
            at80 > at20,
            "ΔT(80µm) = {at80} should be above ΔT(20µm) = {at20}"
        );
    }

    #[test]
    fn dividing_the_via_reduces_delta_t_with_saturation() {
        // The paper's Fig. 7: more, thinner vias (same metal) cool better,
        // with diminishing returns.
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let dt = |n: usize| {
            let s = Scenario::paper_block()
                .with_tsv(TtsvConfig::divided(um(10.0), um(1.0), n))
                .with_upper_si_thickness(um(20.0))
                .build()
                .unwrap();
            model.max_delta_t(&s).unwrap().as_kelvin()
        };
        let d1 = dt(1);
        let d4 = dt(4);
        let d16 = dt(16);
        assert!(d4 < d1, "division must reduce ΔT: {d1} → {d4}");
        assert!(d16 < d4);
        // Saturation: the second division helps less than the first.
        assert!(
            (d4 - d16) < (d1 - d4),
            "gains should saturate: {d1}, {d4}, {d16}"
        );
    }

    #[test]
    fn via_heat_is_positive_and_bounded() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let s = fig5_scenario(10.0, 0.5);
        let sol = model.solve(&s).unwrap();
        let via_q = sol.via_heat().as_watts();
        assert!(via_q > 0.0, "some heat must use the via");
        assert!(
            via_q < s.total_power().as_watts(),
            "via cannot carry more than the total"
        );
    }

    #[test]
    fn four_plane_extension_works() {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_block());
        let s = Scenario::paper_block().with_planes(4).build().unwrap();
        let sol = model.solve(&s).unwrap();
        assert_eq!(sol.bulk_temperatures().len(), 4);
        // Four planes are hotter than three (more heat, longer path).
        let s3 = Scenario::paper_block().build().unwrap();
        assert!(model.max_delta_t(&s).unwrap() > model.max_delta_t(&s3).unwrap());
    }

    #[test]
    fn direct_solver_rejects_non_three_plane() {
        let model = ModelA::new();
        let s = Scenario::paper_block().with_planes(4).build().unwrap();
        assert!(matches!(
            model.solve_three_plane_direct(&s),
            Err(CoreError::InvalidScenario { .. })
        ));
    }

    #[test]
    fn thermal_model_trait_is_implemented() {
        let model: &dyn ThermalModel = &ModelA::new();
        assert_eq!(model.name(), "Model A");
        let s = fig5_scenario(5.0, 0.5);
        assert!(model.max_delta_t(&s).unwrap().as_kelvin() > 0.0);
    }
}
