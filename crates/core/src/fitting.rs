//! The fitting coefficients of Model A.
//!
//! Model A corrects its lumped resistances with two coefficients calibrated
//! against FEM (paper §II): `k₁` scales every *vertical* conductance and
//! `k₂` scales the liner's *lateral* conductance. The case study (§IV-E)
//! additionally uses a coefficient `c₁,₂ = 3.5` whose definition the paper
//! omits; we interpret it as an extra lateral-spreading factor on the
//! non-top planes (see README, “Where the paper is silent”) and expose it
//! as [`FittingCoefficients::lateral_spreading`].

use serde::{Deserialize, Serialize};

/// Model A's fitting coefficients `(k₁, k₂, c)`.
///
/// ```
/// use ttsv_core::fitting::FittingCoefficients;
/// let fit = FittingCoefficients::paper_block();
/// assert_eq!(fit.k1(), 1.3);
/// assert_eq!(fit.k2(), 0.55);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FittingCoefficients {
    k1: f64,
    k2: f64,
    lateral_spreading: f64,
}

impl FittingCoefficients {
    /// Creates coefficients, validating positivity.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not strictly positive and finite.
    #[must_use]
    pub fn new(k1: f64, k2: f64) -> Self {
        Self::with_lateral_spreading(k1, k2, 1.0)
    }

    /// Creates coefficients including the case-study lateral-spreading
    /// factor `c` applied to the liner conductance of every non-top plane.
    ///
    /// # Panics
    ///
    /// Panics if any coefficient is not strictly positive and finite.
    #[must_use]
    pub fn with_lateral_spreading(k1: f64, k2: f64, c: f64) -> Self {
        for (name, v) in [("k1", k1), ("k2", k2), ("c", c)] {
            assert!(
                v.is_finite() && v > 0.0,
                "fitting coefficient {name} must be positive and finite, got {v}"
            );
        }
        Self {
            k1,
            k2,
            lateral_spreading: c,
        }
    }

    /// No correction: `k₁ = k₂ = c = 1`. This is what Model B's resistances
    /// use ("without k₁ and k₂", paper §III).
    #[must_use]
    pub fn unity() -> Self {
        Self::with_lateral_spreading(1.0, 1.0, 1.0)
    }

    /// The values the paper fitted for the 100 µm × 100 µm block
    /// (Figs. 4–7): `k₁ = 1.3`, `k₂ = 0.55`.
    #[must_use]
    pub fn paper_block() -> Self {
        Self::with_lateral_spreading(1.3, 0.55, 1.0)
    }

    /// The values the paper fitted for the DRAM-µP case study (Fig. 8):
    /// `k₁ = 1.6`, `k₂ = 0.8`, `c₁,₂ = 3.5`.
    #[must_use]
    pub fn paper_case_study() -> Self {
        Self::with_lateral_spreading(1.6, 0.8, 3.5)
    }

    /// Vertical-conductance scale `k₁`.
    #[must_use]
    pub fn k1(&self) -> f64 {
        self.k1
    }

    /// Lateral (liner) conductance scale `k₂`.
    #[must_use]
    pub fn k2(&self) -> f64 {
        self.k2
    }

    /// Case-study lateral-spreading factor `c` (1 when unused).
    #[must_use]
    pub fn lateral_spreading(&self) -> f64 {
        self.lateral_spreading
    }
}

impl Default for FittingCoefficients {
    /// Defaults to [`FittingCoefficients::unity`] (no correction).
    fn default() -> Self {
        Self::unity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_the_paper() {
        let block = FittingCoefficients::paper_block();
        assert_eq!(
            (block.k1(), block.k2(), block.lateral_spreading()),
            (1.3, 0.55, 1.0)
        );
        let case = FittingCoefficients::paper_case_study();
        assert_eq!(
            (case.k1(), case.k2(), case.lateral_spreading()),
            (1.6, 0.8, 3.5)
        );
        assert_eq!(FittingCoefficients::default(), FittingCoefficients::unity());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn non_positive_coefficients_rejected() {
        let _ = FittingCoefficients::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn nan_coefficients_rejected() {
        let _ = FittingCoefficients::new(f64::NAN, 1.0);
    }
}
