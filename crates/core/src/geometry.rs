//! Geometry and heat-load descriptions of a 3-D IC stack with TTSVs.
//!
//! Mirrors Fig. 1 of the paper: `N ≥ 2` planes bonded face-to-back, each
//! plane consisting of (bottom → top) an optional bonding layer, a silicon
//! substrate, and an ILD/BEOL layer. The first plane sits on the heat sink
//! with a thick substrate into which the TTSV extends by `l_ext`.

use serde::{Deserialize, Serialize};
use ttsv_materials::Material;
use ttsv_units::{Area, Length, Power, PowerDensity, ThermalConductivity};

use crate::error::CoreError;

/// One plane of the 3-D stack: silicon substrate + ILD, with an optional
/// bonding layer *below* the silicon (zero-thickness for the first plane).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plane {
    t_si: Length,
    t_ild: Length,
    t_bond_below: Length,
}

impl Plane {
    /// Creates a plane with the given substrate and ILD thickness and no
    /// bonding layer (appropriate for the first plane).
    ///
    /// # Panics
    ///
    /// Panics if either thickness is not strictly positive.
    #[must_use]
    pub fn new(t_si: Length, t_ild: Length) -> Self {
        assert!(
            t_si.as_meters() > 0.0,
            "substrate thickness must be positive, got {t_si}"
        );
        assert!(
            t_ild.as_meters() > 0.0,
            "ILD thickness must be positive, got {t_ild}"
        );
        Self {
            t_si,
            t_ild,
            t_bond_below: Length::ZERO,
        }
    }

    /// Returns a copy with a bonding layer of thickness `t_bond` below the
    /// substrate (used for every plane except the first).
    ///
    /// # Panics
    ///
    /// Panics if the thickness is negative.
    #[must_use]
    pub fn with_bond_below(mut self, t_bond: Length) -> Self {
        assert!(
            t_bond.as_meters() >= 0.0,
            "bond thickness cannot be negative, got {t_bond}"
        );
        self.t_bond_below = t_bond;
        self
    }

    /// Substrate (silicon) thickness `t_Si`.
    #[must_use]
    pub fn t_si(&self) -> Length {
        self.t_si
    }

    /// ILD/BEOL thickness `t_D`.
    #[must_use]
    pub fn t_ild(&self) -> Length {
        self.t_ild
    }

    /// Thickness of the bonding layer below this plane's substrate `t_b`.
    #[must_use]
    pub fn t_bond_below(&self) -> Length {
        self.t_bond_below
    }

    /// Total height of the plane unit (bond + substrate + ILD).
    #[must_use]
    pub fn height(&self) -> Length {
        self.t_bond_below + self.t_si + self.t_ild
    }
}

/// The full 3-D stack: footprint, planes (bottom → top), TSV extension into
/// the first substrate, and the layer materials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Stack {
    footprint: Area,
    planes: Vec<Plane>,
    l_ext: Length,
    silicon: Material,
    ild: Material,
    bond: Material,
}

/// Builder for [`Stack`]; see [`Stack::builder`].
#[derive(Debug, Clone)]
pub struct StackBuilder {
    footprint: Area,
    planes: Vec<Plane>,
    l_ext: Length,
    silicon: Material,
    ild: Material,
    bond: Material,
}

impl Stack {
    /// Starts building a stack over the given footprint area `A₀` with the
    /// paper's default materials (Si substrate, SiO₂ ILD, polyimide bond)
    /// and `l_ext = 1 µm`.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is not strictly positive.
    #[must_use]
    pub fn builder(footprint: Area) -> StackBuilder {
        assert!(
            footprint.as_square_meters() > 0.0,
            "footprint must be positive, got {footprint}"
        );
        StackBuilder {
            footprint,
            planes: Vec::new(),
            l_ext: Length::from_micrometers(1.0),
            silicon: Material::silicon(),
            ild: Material::silicon_dioxide(),
            bond: Material::polyimide(),
        }
    }

    /// Footprint area `A₀`.
    #[must_use]
    pub fn footprint(&self) -> Area {
        self.footprint
    }

    /// The planes, bottom (heat-sink side) first.
    #[must_use]
    pub fn planes(&self) -> &[Plane] {
        &self.planes
    }

    /// Number of planes `N`.
    #[must_use]
    pub fn plane_count(&self) -> usize {
        self.planes.len()
    }

    /// TSV extension into the first plane's substrate, `l_ext`.
    #[must_use]
    pub fn l_ext(&self) -> Length {
        self.l_ext
    }

    /// Substrate material (conductivity `k_Si`).
    #[must_use]
    pub fn silicon(&self) -> &Material {
        &self.silicon
    }

    /// ILD material (conductivity `k_D`).
    #[must_use]
    pub fn ild(&self) -> &Material {
        &self.ild
    }

    /// Bonding material (conductivity `k_b`).
    #[must_use]
    pub fn bond(&self) -> &Material {
        &self.bond
    }

    /// Conductivity shorthand for the substrate.
    #[must_use]
    pub fn k_si(&self) -> ThermalConductivity {
        self.silicon.conductivity()
    }

    /// Conductivity shorthand for the ILD.
    #[must_use]
    pub fn k_ild(&self) -> ThermalConductivity {
        self.ild.conductivity()
    }

    /// Conductivity shorthand for the bond.
    #[must_use]
    pub fn k_bond(&self) -> ThermalConductivity {
        self.bond.conductivity()
    }

    /// Total stack height (all planes).
    #[must_use]
    pub fn height(&self) -> Length {
        self.planes.iter().map(Plane::height).sum()
    }
}

impl StackBuilder {
    /// Overrides the substrate material.
    #[must_use]
    pub fn silicon(mut self, material: Material) -> Self {
        self.silicon = material;
        self
    }

    /// Overrides the ILD material.
    #[must_use]
    pub fn ild(mut self, material: Material) -> Self {
        self.ild = material;
        self
    }

    /// Overrides the bonding material.
    #[must_use]
    pub fn bond(mut self, material: Material) -> Self {
        self.bond = material;
        self
    }

    /// Sets the TSV extension into the first substrate.
    #[must_use]
    pub fn l_ext(mut self, l_ext: Length) -> Self {
        self.l_ext = l_ext;
        self
    }

    /// Appends a plane (bottom → top order).
    #[must_use]
    pub fn plane(mut self, plane: Plane) -> Self {
        self.planes.push(plane);
        self
    }

    /// Validates and builds the stack.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] when:
    /// * fewer than two planes were added (not a 3-D stack),
    /// * the first plane has a bonding layer below it,
    /// * a plane after the first has no bonding layer,
    /// * `l_ext` is negative or not smaller than the first substrate.
    pub fn build(self) -> Result<Stack, CoreError> {
        if self.planes.len() < 2 {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "a 3-D stack needs at least 2 planes, got {}",
                    self.planes.len()
                ),
            });
        }
        if self.planes[0].t_bond_below != Length::ZERO {
            return Err(CoreError::InvalidScenario {
                reason: "the first plane sits on the heat sink and cannot have a bonding layer"
                    .into(),
            });
        }
        for (j, p) in self.planes.iter().enumerate().skip(1) {
            if p.t_bond_below.as_meters() <= 0.0 {
                return Err(CoreError::InvalidScenario {
                    reason: format!("plane {} (0-based) needs a bonding layer below it", j),
                });
            }
        }
        if self.l_ext.as_meters() < 0.0 {
            return Err(CoreError::InvalidScenario {
                reason: format!("l_ext cannot be negative, got {}", self.l_ext),
            });
        }
        if self.l_ext >= self.planes[0].t_si {
            return Err(CoreError::InvalidScenario {
                reason: format!(
                    "l_ext ({}) must be smaller than the first substrate ({})",
                    self.l_ext, self.planes[0].t_si
                ),
            });
        }
        Ok(Stack {
            footprint: self.footprint,
            planes: self.planes,
            l_ext: self.l_ext,
            silicon: self.silicon,
            ild: self.ild,
            bond: self.bond,
        })
    }
}

/// The TTSV configuration: per-via radius, liner thickness, via count
/// (clusters), and materials.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TtsvConfig {
    radius: Length,
    liner_thickness: Length,
    count: usize,
    fill: Material,
    liner: Material,
}

impl TtsvConfig {
    /// A single copper TTSV with an SiO₂ liner.
    ///
    /// # Panics
    ///
    /// Panics if radius or liner thickness is not strictly positive.
    #[must_use]
    pub fn new(radius: Length, liner_thickness: Length) -> Self {
        assert!(
            radius.as_meters() > 0.0,
            "TSV radius must be positive, got {radius}"
        );
        assert!(
            liner_thickness.as_meters() > 0.0,
            "liner thickness must be positive, got {liner_thickness}"
        );
        Self {
            radius,
            liner_thickness,
            count: 1,
            fill: Material::copper(),
            liner: Material::silicon_dioxide(),
        }
    }

    /// Divides a via of radius `r₀` into `n` vias of radius `r₀/√n`
    /// (paper §IV-D): total metal area is preserved, total liner lateral
    /// surface grows by `√n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the dimensions are not positive.
    #[must_use]
    pub fn divided(r0: Length, liner_thickness: Length, n: usize) -> Self {
        assert!(n > 0, "cannot divide a TSV into zero vias");
        let mut cfg = Self::new(r0 / (n as f64).sqrt(), liner_thickness);
        cfg.count = n;
        cfg
    }

    /// Overrides the via count without changing the per-via radius.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    #[must_use]
    pub fn with_count(mut self, count: usize) -> Self {
        assert!(count > 0, "TSV count must be at least 1");
        self.count = count;
        self
    }

    /// Overrides the fill material (default copper).
    #[must_use]
    pub fn with_fill(mut self, fill: Material) -> Self {
        self.fill = fill;
        self
    }

    /// Overrides the liner material (default SiO₂).
    #[must_use]
    pub fn with_liner(mut self, liner: Material) -> Self {
        self.liner = liner;
        self
    }

    /// Per-via radius `r`.
    #[must_use]
    pub fn radius(&self) -> Length {
        self.radius
    }

    /// Liner thickness `t_L`.
    #[must_use]
    pub fn liner_thickness(&self) -> Length {
        self.liner_thickness
    }

    /// Number of vias in the cluster.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Fill material.
    #[must_use]
    pub fn fill(&self) -> &Material {
        &self.fill
    }

    /// Liner material.
    #[must_use]
    pub fn liner(&self) -> &Material {
        &self.liner
    }

    /// Conductivity shorthand for the fill, `k_f`.
    #[must_use]
    pub fn k_fill(&self) -> ThermalConductivity {
        self.fill.conductivity()
    }

    /// Conductivity shorthand for the liner, `k_L`.
    #[must_use]
    pub fn k_liner(&self) -> ThermalConductivity {
        self.liner.conductivity()
    }

    /// Total metal cross-section, `n·π r²`.
    #[must_use]
    pub fn fill_area(&self) -> Area {
        Area::circle(self.radius) * self.count as f64
    }

    /// Total liner cross-section (annulus), `n·π((r+t_L)² − r²)`.
    #[must_use]
    pub fn liner_area(&self) -> Area {
        Area::annulus(self.radius, self.radius + self.liner_thickness) * self.count as f64
    }

    /// Total footprint occupied by the vias including liners,
    /// `n·π(r+t_L)²` — the area subtracted from the bulk in eq. (7).
    #[must_use]
    pub fn occupied_area(&self) -> Area {
        Area::circle(self.radius + self.liner_thickness) * self.count as f64
    }
}

/// Where the heat comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HeatLoad {
    /// The paper's §IV setup: devices dissipate `device` (W/m³) in a thin
    /// active layer of thickness `device_thickness` on top of each
    /// substrate, and interconnect Joule heat dissipates `ild` (W/m³)
    /// throughout each ILD layer.
    Density {
        /// Device (active-layer) volumetric power density.
        device: PowerDensity,
        /// Active-layer thickness (the paper leaves this implicit; see
        /// README, “Where the paper is silent”).
        device_thickness: Length,
        /// ILD volumetric power density.
        ild: PowerDensity,
    },
    /// Explicit per-plane total powers, bottom → top (the case-study form).
    PerPlane(Vec<Power>),
}

impl HeatLoad {
    /// The paper's §IV defaults: 700 W/mm³ device density over a 1 µm active
    /// layer, 70 W/mm³ ILD density.
    #[must_use]
    pub fn paper_default() -> Self {
        HeatLoad::Density {
            device: PowerDensity::from_watts_per_cubic_millimeter(700.0),
            device_thickness: Length::from_micrometers(1.0),
            ild: PowerDensity::from_watts_per_cubic_millimeter(70.0),
        }
    }

    /// Total heat entering each plane, bottom → top.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidScenario`] for a [`HeatLoad::PerPlane`]
    /// whose length does not match the stack.
    pub fn plane_powers(&self, stack: &Stack) -> Result<Vec<Power>, CoreError> {
        match self {
            HeatLoad::Density {
                device,
                device_thickness,
                ild,
            } => Ok(stack
                .planes()
                .iter()
                .map(|p| {
                    let device_volume = stack.footprint() * *device_thickness;
                    let ild_volume = stack.footprint() * p.t_ild();
                    *device * device_volume + *ild * ild_volume
                })
                .collect()),
            HeatLoad::PerPlane(powers) => {
                if powers.len() != stack.plane_count() {
                    return Err(CoreError::InvalidScenario {
                        reason: format!(
                            "{} per-plane powers given for a {}-plane stack",
                            powers.len(),
                            stack.plane_count()
                        ),
                    });
                }
                Ok(powers.clone())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(v: f64) -> Length {
        Length::from_micrometers(v)
    }

    fn paper_stack() -> Stack {
        Stack::builder(Area::square(um(100.0)))
            .plane(Plane::new(um(500.0), um(4.0)))
            .plane(Plane::new(um(45.0), um(4.0)).with_bond_below(um(1.0)))
            .plane(Plane::new(um(45.0), um(4.0)).with_bond_below(um(1.0)))
            .build()
            .unwrap()
    }

    #[test]
    fn paper_stack_builds_with_defaults() {
        let s = paper_stack();
        assert_eq!(s.plane_count(), 3);
        assert_eq!(s.l_ext(), um(1.0));
        assert_eq!(s.k_si().as_watts_per_meter_kelvin(), 150.0);
        assert_eq!(s.k_ild().as_watts_per_meter_kelvin(), 1.4);
        assert_eq!(s.k_bond().as_watts_per_meter_kelvin(), 0.15);
        assert!((s.height().as_micrometers() - (504.0 + 50.0 + 50.0)).abs() < 1e-9);
    }

    #[test]
    fn single_plane_stack_rejected() {
        let err = Stack::builder(Area::square(um(100.0)))
            .plane(Plane::new(um(500.0), um(4.0)))
            .build()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidScenario { .. }));
    }

    #[test]
    fn missing_bond_rejected() {
        let err = Stack::builder(Area::square(um(100.0)))
            .plane(Plane::new(um(500.0), um(4.0)))
            .plane(Plane::new(um(45.0), um(4.0))) // no bond
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("bonding layer"));
    }

    #[test]
    fn bond_on_first_plane_rejected() {
        let err = Stack::builder(Area::square(um(100.0)))
            .plane(Plane::new(um(500.0), um(4.0)).with_bond_below(um(1.0)))
            .plane(Plane::new(um(45.0), um(4.0)).with_bond_below(um(1.0)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("first plane"));
    }

    #[test]
    fn l_ext_must_fit_in_first_substrate() {
        let err = Stack::builder(Area::square(um(100.0)))
            .l_ext(um(600.0))
            .plane(Plane::new(um(500.0), um(4.0)))
            .plane(Plane::new(um(45.0), um(4.0)).with_bond_below(um(1.0)))
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("l_ext"));
    }

    #[test]
    fn division_preserves_metal_area() {
        let r0 = um(10.0);
        let single = TtsvConfig::new(r0, um(1.0));
        for n in [2, 4, 9, 16] {
            let divided = TtsvConfig::divided(r0, um(1.0), n);
            assert_eq!(divided.count(), n);
            let a0 = single.fill_area().as_square_meters();
            let an = divided.fill_area().as_square_meters();
            assert!((a0 - an).abs() < 1e-12 * a0, "n={n}: {a0} vs {an}");
            // Per-via radius shrinks as r0/√n.
            assert!(
                (divided.radius().as_meters() - r0.as_meters() / (n as f64).sqrt()).abs() < 1e-15
            );
        }
    }

    #[test]
    fn division_grows_lateral_surface() {
        // Total liner circumference ∝ n·r_n = √n·r0.
        let r0 = um(10.0);
        let c1 = TtsvConfig::new(r0, um(1.0));
        let c4 = TtsvConfig::divided(r0, um(1.0), 4);
        let circumference = |c: &TtsvConfig| c.count() as f64 * c.radius().as_meters();
        assert!((circumference(&c4) - 2.0 * circumference(&c1)).abs() < 1e-15);
    }

    #[test]
    fn paper_default_load_magnitudes() {
        let s = paper_stack();
        let q = HeatLoad::paper_default().plane_powers(&s).unwrap();
        assert_eq!(q.len(), 3);
        // 700 W/mm³ × (0.01 mm² × 1 µm) + 70 W/mm³ × (0.01 mm² × 4 µm)
        // = 7 mW + 2.8 mW = 9.8 mW per plane.
        for p in &q {
            assert!((p.as_milliwatts() - 9.8).abs() < 1e-9, "{p}");
        }
    }

    #[test]
    fn per_plane_load_length_checked() {
        let s = paper_stack();
        let err = HeatLoad::PerPlane(vec![Power::from_watts(1.0)])
            .plane_powers(&s)
            .unwrap_err();
        assert!(err.to_string().contains("per-plane"));
    }

    #[test]
    fn occupied_area_includes_liner() {
        let c = TtsvConfig::new(um(5.0), um(0.5));
        let occupied = c.occupied_area().as_square_meters();
        let expect = std::f64::consts::PI * (5.5e-6f64).powi(2);
        assert!((occupied - expect).abs() < 1e-18);
        assert!(c.liner_area().as_square_meters() > 0.0);
        assert!(
            (c.fill_area().as_square_meters() + c.liner_area().as_square_meters() - occupied).abs()
                < 1e-18
        );
    }
}
