//! The [`Material`] type and its presets.

use std::borrow::Cow;

use serde::{Deserialize, Serialize};
use ttsv_units::{Temperature, ThermalConductivity};

use crate::mixing::maxwell_garnett;
use crate::temperature_model::ConductivityModel;

/// A solid material with a thermal conductivity.
///
/// Conductivities are the 300 K values used throughout the paper; an optional
/// [`ConductivityModel`] adds temperature dependence for sensitivity studies
/// (the paper itself uses constant conductivities).
///
/// ```
/// use ttsv_materials::Material;
/// let cu = Material::copper();
/// assert_eq!(cu.name(), "copper");
/// assert_eq!(cu.conductivity().as_watts_per_meter_kelvin(), 400.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Material {
    name: Cow<'static, str>,
    conductivity: ThermalConductivity,
    model: ConductivityModel,
}

impl Material {
    /// Creates a material with the given name and 300 K conductivity.
    ///
    /// # Panics
    ///
    /// Panics if the conductivity is not strictly positive.
    #[must_use]
    pub fn new(name: impl Into<Cow<'static, str>>, conductivity: ThermalConductivity) -> Self {
        assert!(
            conductivity.as_watts_per_meter_kelvin() > 0.0,
            "material conductivity must be positive, got {conductivity}"
        );
        Self {
            name: name.into(),
            conductivity,
            model: ConductivityModel::Constant,
        }
    }

    const fn preset(name: &'static str, k: f64) -> Self {
        Self {
            name: Cow::Borrowed(name),
            conductivity: ThermalConductivity::from_watts_per_meter_kelvin(k),
            model: ConductivityModel::Constant,
        }
    }

    /// Bulk silicon substrate, k = 150 W/(m·K).
    ///
    /// The paper does not state its silicon conductivity; 150 is the bulk
    /// 300 K value consistent with the Pavlidis–Friedman book it cites (see
    /// README, “Where the paper is silent”).
    #[must_use]
    pub const fn silicon() -> Self {
        Self::preset("silicon", 150.0)
    }

    /// Copper TSV fill, k = 400 W/(m·K) (paper §IV: k_f).
    #[must_use]
    pub const fn copper() -> Self {
        Self::preset("copper", 400.0)
    }

    /// SiO₂, k = 1.4 W/(m·K) — the paper's ILD (k_D) and liner (k_L) material.
    #[must_use]
    pub const fn silicon_dioxide() -> Self {
        Self::preset("silicon dioxide", 1.4)
    }

    /// Polyimide adhesive bonding layer, k = 0.15 W/(m·K) (paper §IV: k_b).
    #[must_use]
    pub const fn polyimide() -> Self {
        Self::preset("polyimide", 0.15)
    }

    /// Tungsten, k = 173 W/(m·K) — the common alternative TSV fill.
    #[must_use]
    pub const fn tungsten() -> Self {
        Self::preset("tungsten", 173.0)
    }

    /// Aluminum, k = 237 W/(m·K).
    #[must_use]
    pub const fn aluminum() -> Self {
        Self::preset("aluminum", 237.0)
    }

    /// Benzocyclobutene (BCB) adhesive, k = 0.3 W/(m·K) — alternative bond.
    #[must_use]
    pub const fn benzocyclobutene() -> Self {
        Self::preset("benzocyclobutene", 0.3)
    }

    /// Silicon nitride liner alternative, k = 30 W/(m·K).
    #[must_use]
    pub const fn silicon_nitride() -> Self {
        Self::preset("silicon nitride", 30.0)
    }

    /// Still air, k = 0.026 W/(m·K) (useful for void/defect studies).
    #[must_use]
    pub const fn air() -> Self {
        Self::preset("air", 0.026)
    }

    /// The material name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The 300 K thermal conductivity.
    #[must_use]
    pub fn conductivity(&self) -> ThermalConductivity {
        self.conductivity
    }

    /// The temperature model attached to this material.
    #[must_use]
    pub fn conductivity_model(&self) -> &ConductivityModel {
        &self.model
    }

    /// Returns a copy with a different 300 K conductivity.
    ///
    /// # Panics
    ///
    /// Panics if the conductivity is not strictly positive.
    #[must_use]
    pub fn with_conductivity(mut self, conductivity: ThermalConductivity) -> Self {
        assert!(
            conductivity.as_watts_per_meter_kelvin() > 0.0,
            "material conductivity must be positive, got {conductivity}"
        );
        self.conductivity = conductivity;
        self
    }

    /// Returns a copy with the given temperature-dependence model.
    #[must_use]
    pub fn with_model(mut self, model: ConductivityModel) -> Self {
        self.model = model;
        self
    }

    /// Conductivity at an absolute temperature, per the attached model.
    #[must_use]
    pub fn conductivity_at(&self, temperature: Temperature) -> ThermalConductivity {
        self.model.evaluate(self.conductivity, temperature)
    }

    /// Effective medium with a volume fraction `fraction` of `inclusion`
    /// embedded in `self` (Maxwell-Garnett rule for cylindrical inclusions).
    ///
    /// Typical use: wiring-loaded ILD, where the paper adapts `k_D` to
    /// account for embedded metal.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn with_inclusions(&self, inclusion: &Material, fraction: f64) -> Material {
        let k = maxwell_garnett(self.conductivity(), inclusion.conductivity(), fraction);
        Material::new(
            format!(
                "{} + {:.0}% {}",
                self.name,
                fraction * 100.0,
                inclusion.name
            ),
            k,
        )
    }
}

impl core::fmt::Display for Material {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{} (k = {})", self.name, self.conductivity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_material_table() {
        // §IV of the paper: kD = kL = 1.4, kb = 0.15, kf = 400.
        assert_eq!(
            Material::silicon_dioxide().conductivity(),
            ThermalConductivity::from_watts_per_meter_kelvin(1.4)
        );
        assert_eq!(
            Material::polyimide().conductivity(),
            ThermalConductivity::from_watts_per_meter_kelvin(0.15)
        );
        assert_eq!(
            Material::copper().conductivity(),
            ThermalConductivity::from_watts_per_meter_kelvin(400.0)
        );
    }

    #[test]
    fn inclusion_mixing_increases_k_toward_metal() {
        let base = Material::silicon_dioxide();
        let mixed = base.with_inclusions(&Material::copper(), 0.3);
        assert!(mixed.conductivity() > base.conductivity());
        assert!(mixed.conductivity() < Material::copper().conductivity());
        assert!(mixed.name().contains("30%"));
    }

    #[test]
    fn zero_fraction_mixing_is_identity() {
        let base = Material::silicon_dioxide();
        let mixed = base.with_inclusions(&Material::copper(), 0.0);
        assert!(
            (mixed.conductivity().as_watts_per_meter_kelvin()
                - base.conductivity().as_watts_per_meter_kelvin())
            .abs()
                < 1e-12
        );
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_conductivity_rejected() {
        let _ = Material::new("bogus", ThermalConductivity::ZERO);
    }

    #[test]
    fn display_mentions_name_and_k() {
        let s = Material::copper().to_string();
        assert!(s.contains("copper") && s.contains("400"));
    }
}
