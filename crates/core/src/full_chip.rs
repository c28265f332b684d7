//! The 3-D DRAM-µP full-chip case study (paper §IV-E).
//!
//! A 10 mm × 10 mm three-plane stack — processor on the heat sink, two DRAM
//! planes above — dissipating 70 W + 7 W + 7 W, cooled by TTSVs uniformly
//! distributed at 0.5 % area density. With uniform power and uniform via
//! density the chip tiles into identical unit cells (one via plus its share
//! of area, adiabatic side walls), so the analysis reduces to a single
//! [`Scenario`] whose footprint is the per-via cell (README, “Where the
//! paper is silent”).

use serde::{Deserialize, Serialize};
use ttsv_units::{Area, Length, Power};

use crate::error::CoreError;
use crate::fitting::FittingCoefficients;
use crate::geometry::{HeatLoad, Plane, Stack, TtsvConfig};
use crate::scenario::Scenario;

/// The DRAM-µP case-study description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Full-chip footprint (paper: 10 mm × 10 mm).
    pub footprint: Area,
    /// Total power per plane, bottom → top (paper: 70 W µP, 7 W + 7 W DRAM).
    pub plane_powers: Vec<Power>,
    /// Substrate thickness of every plane (paper: 300 µm).
    pub t_si: Length,
    /// ILD thickness (paper: 20 µm).
    pub t_ild: Length,
    /// Bonding-layer thickness (paper: 10 µm).
    pub t_bond: Length,
    /// TSV extension into the first substrate.
    pub l_ext: Length,
    /// Per-via TTSV geometry (paper: r = 30 µm, t_L = 1 µm).
    pub tsv: TtsvConfig,
    /// TTSV area density (paper: 0.5 % ⇒ 0.005).
    pub density: f64,
}

impl CaseStudy {
    /// The paper's §IV-E parameters.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            footprint: Area::square(Length::from_millimeters(10.0)),
            plane_powers: vec![
                Power::from_watts(70.0),
                Power::from_watts(7.0),
                Power::from_watts(7.0),
            ],
            t_si: Length::from_micrometers(300.0),
            t_ild: Length::from_micrometers(20.0),
            t_bond: Length::from_micrometers(10.0),
            l_ext: Length::from_micrometers(1.0),
            tsv: TtsvConfig::new(
                Length::from_micrometers(30.0),
                Length::from_micrometers(1.0),
            ),
            density: 0.005,
        }
    }

    /// The fitting coefficients the paper used for this system
    /// (`k₁ = 1.6`, `k₂ = 0.8`, `c₁,₂ = 3.5`).
    #[must_use]
    pub fn paper_fitting() -> FittingCoefficients {
        FittingCoefficients::paper_case_study()
    }

    /// Checks the case-study parameters for physical consistency: the via
    /// density must lie in `(0, 1)`, and the plane powers must be a
    /// non-empty list of finite, non-negative values.
    ///
    /// [`CaseStudy::unit_cell_scenario`] (and the `ttsv-chip` floorplan
    /// constructors, which borrow this geometry) call this first, so a bad
    /// density surfaces as a typed [`CoreError`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] naming the offending value.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.density > 0.0 && self.density < 1.0) {
            return Err(CoreError::InvalidFloorplan {
                reason: format!("via density must be in (0, 1), got {}", self.density),
            });
        }
        if self.plane_powers.is_empty() {
            return Err(CoreError::InvalidFloorplan {
                reason: "a case study needs at least one plane power".into(),
            });
        }
        if let Some(p) = self
            .plane_powers
            .iter()
            .find(|p| !p.is_finite() || p.as_watts() < 0.0)
        {
            return Err(CoreError::InvalidFloorplan {
                reason: format!("plane powers must be finite and non-negative, got {p}"),
            });
        }
        Ok(())
    }

    /// Footprint area served by one via: `A_cell = π r² / density`.
    ///
    /// # Panics
    ///
    /// Panics if the density is not in `(0, 1)`; use [`CaseStudy::validate`]
    /// first for a typed error.
    #[must_use]
    pub fn cell_area(&self) -> Area {
        assert!(
            self.density > 0.0 && self.density < 1.0,
            "via density must be in (0, 1), got {}",
            self.density
        );
        Area::from_square_meters(
            self.tsv.fill_area().as_square_meters() / self.tsv.count() as f64 / self.density,
        )
    }

    /// Number of TTSVs on the chip (fractional; the paper's uniform-density
    /// idealization).
    #[must_use]
    pub fn via_count(&self) -> f64 {
        self.footprint.as_square_meters() / self.cell_area().as_square_meters()
    }

    /// Reduces the chip to the per-via unit cell: cell footprint, per-plane
    /// powers scaled by the area ratio.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidFloorplan`] for parameters
    /// [`CaseStudy::validate`] rejects, and propagates scenario validation
    /// failures (e.g. a density so high the via no longer fits its own
    /// cell).
    pub fn unit_cell_scenario(&self) -> Result<Scenario, CoreError> {
        self.validate()?;
        let cell = self.cell_area();
        let ratio = cell.as_square_meters() / self.footprint.as_square_meters();
        let side = Length::from_meters(cell.as_square_meters().sqrt());

        let mut builder = Stack::builder(Area::square(side))
            .l_ext(self.l_ext)
            .plane(Plane::new(self.t_si, self.t_ild));
        for _ in 1..self.plane_powers.len() {
            builder = builder.plane(Plane::new(self.t_si, self.t_ild).with_bond_below(self.t_bond));
        }
        let stack = builder.build()?;

        let cell_powers: Vec<Power> = self.plane_powers.iter().map(|p| *p * ratio).collect();
        Scenario::new(stack, self.tsv.clone(), &HeatLoad::PerPlane(cell_powers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model_a::ModelA;
    use crate::model_b::ModelB;
    use crate::one_d::OneDModel;
    use crate::scenario::ThermalModel;

    #[test]
    fn paper_parameters_are_consistent() {
        let cs = CaseStudy::paper();
        // ~177 vias at 0.5% density with r = 30 µm on 100 mm².
        let n = cs.via_count();
        assert!((n - 176.8).abs() < 1.0, "via count {n}");
        // Cell side ≈ 752 µm.
        let side = cs.cell_area().as_square_meters().sqrt() * 1e6;
        assert!((side - 752.0).abs() < 2.0, "cell side {side} µm");
    }

    #[test]
    fn unit_cell_power_sums_to_chip_power() {
        let cs = CaseStudy::paper();
        let s = cs.unit_cell_scenario().unwrap();
        let per_cell = s.total_power().as_watts();
        let chip_total = per_cell * cs.via_count();
        assert!((chip_total - 84.0).abs() < 1e-6, "chip total {chip_total}");
    }

    #[test]
    fn model_ordering_matches_the_paper() {
        // Paper §IV-E: 1-D (20 °C) ≫ Model B (13.9) ≳ Model A (12.8) ≳ FEM (12).
        let cs = CaseStudy::paper();
        let s = cs.unit_cell_scenario().unwrap();
        let a = ModelA::with_coefficients(CaseStudy::paper_fitting())
            .max_delta_t(&s)
            .unwrap()
            .as_kelvin();
        let b = ModelB::paper_b1000().max_delta_t(&s).unwrap().as_kelvin();
        let one_d = OneDModel::new().max_delta_t(&s).unwrap().as_kelvin();
        assert!(
            one_d > 1.2 * a,
            "1-D ({one_d}) must substantially overestimate Model A ({a})"
        );
        assert!(
            one_d > 1.2 * b,
            "1-D ({one_d}) must overestimate Model B ({b})"
        );
        // The analytic models should land in the same ballpark as each other.
        assert!(
            (a - b).abs() < 0.35 * a.max(b),
            "Model A ({a}) and Model B ({b}) should roughly agree"
        );
    }

    #[test]
    fn temperatures_are_in_a_plausible_band() {
        // The paper reports 12–20 °C for this system; our substrate and
        // material choices differ slightly, so assert a generous band.
        let cs = CaseStudy::paper();
        let s = cs.unit_cell_scenario().unwrap();
        let b = ModelB::paper_b1000().max_delta_t(&s).unwrap().as_kelvin();
        assert!(b > 3.0 && b < 60.0, "Model B gave {b} °C");
    }

    #[test]
    #[should_panic(expected = "density must be in (0, 1)")]
    fn bad_density_still_panics_in_cell_area() {
        let mut cs = CaseStudy::paper();
        cs.density = 0.0;
        let _ = cs.cell_area();
    }

    #[test]
    fn zero_density_rejected_with_typed_error() {
        let mut cs = CaseStudy::paper();
        cs.density = 0.0;
        let err = cs.unit_cell_scenario().unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
        assert!(err.to_string().contains("density"));
    }

    #[test]
    fn overfull_density_rejected_with_typed_error() {
        let mut cs = CaseStudy::paper();
        cs.density = 1.2;
        let err = cs.unit_cell_scenario().unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
        assert!(err.to_string().contains("(0, 1)"));
    }

    #[test]
    fn nan_density_rejected_with_typed_error() {
        let mut cs = CaseStudy::paper();
        cs.density = f64::NAN;
        assert!(matches!(
            cs.validate().unwrap_err(),
            CoreError::InvalidFloorplan { .. }
        ));
    }

    #[test]
    fn negative_plane_power_rejected_with_typed_error() {
        let mut cs = CaseStudy::paper();
        cs.plane_powers[1] = Power::from_watts(-7.0);
        let err = cs.unit_cell_scenario().unwrap_err();
        assert!(matches!(err, CoreError::InvalidFloorplan { .. }), "{err}");
        assert!(err.to_string().contains("non-negative"));
    }

    #[test]
    fn empty_plane_powers_rejected_with_typed_error() {
        let mut cs = CaseStudy::paper();
        cs.plane_powers.clear();
        let err = cs.validate().unwrap_err();
        assert!(err.to_string().contains("at least one plane"));
    }
}
