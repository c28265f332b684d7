//! Derivative-free optimization: Nelder–Mead simplex and golden-section
//! line search.
//!
//! Used by the calibration pipeline to fit the paper's `k₁`/`k₂`
//! coefficients against the FEM reference (README, “Where the paper is
//! silent”).

/// Configuration for [`nelder_mead`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum objective evaluations.
    pub max_evaluations: usize,
    /// Terminate when the simplex's objective spread falls below this.
    pub f_tolerance: f64,
    /// Terminate when the simplex's maximum edge length falls below this.
    pub x_tolerance: f64,
    /// Initial simplex edge length relative to each coordinate (absolute for
    /// zero coordinates).
    pub initial_step: f64,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        Self {
            max_evaluations: 2000,
            f_tolerance: 1e-12,
            x_tolerance: 1e-10,
            initial_step: 0.1,
        }
    }
}

/// Result of a [`nelder_mead`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub f: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
    /// Whether a tolerance (rather than the evaluation budget) stopped the
    /// search.
    pub converged: bool,
}

/// Minimizes `f` from `x0` with the Nelder–Mead downhill-simplex method
/// (standard coefficients: reflection 1, expansion 2, contraction ½,
/// shrink ½).
///
/// Robust for the low-dimensional, noisy objectives produced by comparing a
/// compact model against FEM sweeps; makes no smoothness assumptions.
///
/// # Panics
///
/// Panics if `x0` is empty.
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    config: &NelderMeadConfig,
) -> NelderMeadResult {
    assert!(!x0.is_empty(), "nelder_mead needs at least one dimension");
    let n = x0.len();
    let mut evaluations = 0;
    let mut eval = |x: &[f64], count: &mut usize| {
        *count += 1;
        let v = f(x);
        if v.is_nan() {
            f64::INFINITY // treat NaN objectives as "worst possible"
        } else {
            v
        }
    };

    // Initial simplex: x0 plus a step along each axis.
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(x0.to_vec());
    for i in 0..n {
        let mut p = x0.to_vec();
        let step = if p[i] != 0.0 {
            config.initial_step * p[i].abs()
        } else {
            config.initial_step
        };
        p[i] += step;
        simplex.push(p);
    }
    let mut values: Vec<f64> = simplex.iter().map(|p| eval(p, &mut evaluations)).collect();

    let mut converged = false;
    while evaluations < config.max_evaluations {
        // Order: best first.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Convergence checks.
        let f_spread = values[worst] - values[best];
        let x_spread = simplex
            .iter()
            .map(|p| {
                p.iter()
                    .zip(&simplex[best])
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        if f_spread.abs() <= config.f_tolerance || x_spread <= config.x_tolerance {
            converged = true;
            break;
        }

        // Centroid of all but the worst.
        let mut centroid = vec![0.0; n];
        for (idx, p) in simplex.iter().enumerate() {
            if idx != worst {
                for (c, v) in centroid.iter_mut().zip(p) {
                    *c += v / n as f64;
                }
            }
        }

        let lerp = |a: &[f64], b: &[f64], t: f64| -> Vec<f64> {
            a.iter().zip(b).map(|(x, y)| x + t * (y - x)).collect()
        };

        // Reflection.
        let reflected = lerp(&centroid, &simplex[worst], -1.0);
        let f_reflected = eval(&reflected, &mut evaluations);
        if f_reflected < values[best] {
            // Expansion.
            let expanded = lerp(&centroid, &simplex[worst], -2.0);
            let f_expanded = eval(&expanded, &mut evaluations);
            if f_expanded < f_reflected {
                simplex[worst] = expanded;
                values[worst] = f_expanded;
            } else {
                simplex[worst] = reflected;
                values[worst] = f_reflected;
            }
        } else if f_reflected < values[second_worst] {
            simplex[worst] = reflected;
            values[worst] = f_reflected;
        } else {
            // Contraction (outside if the reflection improved on the worst,
            // inside otherwise).
            let (towards, f_towards) = if f_reflected < values[worst] {
                (lerp(&centroid, &reflected, 0.5), f_reflected)
            } else {
                (lerp(&centroid, &simplex[worst], 0.5), values[worst])
            };
            let f_contracted = eval(&towards, &mut evaluations);
            if f_contracted < f_towards {
                simplex[worst] = towards;
                values[worst] = f_contracted;
            } else {
                // Shrink toward the best vertex.
                let best_point = simplex[best].clone();
                for idx in 0..=n {
                    if idx != best {
                        simplex[idx] = lerp(&best_point, &simplex[idx], 0.5);
                        values[idx] = eval(&simplex[idx], &mut evaluations);
                    }
                }
            }
        }
    }

    let (best_idx, _) = values
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .expect("simplex is nonempty");
    NelderMeadResult {
        x: simplex[best_idx].clone(),
        f: values[best_idx],
        evaluations,
        converged,
    }
}

/// Result of a [`golden_section`] search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoldenSectionResult {
    /// Location of the minimum.
    pub x: f64,
    /// Objective value at `x`.
    pub f: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
}

/// Minimizes a unimodal 1-D function on `[lo, hi]` by golden-section search,
/// stopping when the bracket is narrower than `x_tolerance`.
///
/// # Panics
///
/// Panics if `lo >= hi` or `x_tolerance <= 0`.
pub fn golden_section(
    mut f: impl FnMut(f64) -> f64,
    lo: f64,
    hi: f64,
    x_tolerance: f64,
) -> GoldenSectionResult {
    assert!(lo < hi, "golden_section needs lo < hi, got [{lo}, {hi}]");
    assert!(x_tolerance > 0.0, "x_tolerance must be positive");
    const INV_PHI: f64 = 0.618_033_988_749_894_9; // (√5 − 1)/2

    let mut a = lo;
    let mut b = hi;
    let mut c = b - (b - a) * INV_PHI;
    let mut d = a + (b - a) * INV_PHI;
    let mut fc = f(c);
    let mut fd = f(d);
    let mut evaluations = 2;

    while (b - a) > x_tolerance {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - (b - a) * INV_PHI;
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + (b - a) * INV_PHI;
            fd = f(d);
        }
        evaluations += 1;
    }

    let x = 0.5 * (a + b);
    let fx = f(x);
    GoldenSectionResult {
        x,
        f: fx,
        evaluations: evaluations + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nelder_mead_minimizes_quadratic_bowl() {
        let result = nelder_mead(
            |x| (x[0] - 3.0).powi(2) + (x[1] + 1.0).powi(2),
            &[0.0, 0.0],
            &NelderMeadConfig::default(),
        );
        assert!(result.converged);
        assert!((result.x[0] - 3.0).abs() < 1e-4, "x0 = {}", result.x[0]);
        assert!((result.x[1] + 1.0).abs() < 1e-4, "x1 = {}", result.x[1]);
        assert!(result.f < 1e-8);
    }

    #[test]
    fn nelder_mead_handles_rosenbrock() {
        // The classic banana valley: needs the full simplex machinery.
        let result = nelder_mead(
            |x| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2),
            &[-1.2, 1.0],
            &NelderMeadConfig {
                max_evaluations: 5000,
                ..Default::default()
            },
        );
        assert!((result.x[0] - 1.0).abs() < 1e-3, "x = {:?}", result.x);
        assert!((result.x[1] - 1.0).abs() < 1e-3, "x = {:?}", result.x);
    }

    #[test]
    fn nelder_mead_respects_evaluation_budget() {
        let mut count = 0usize;
        let result = nelder_mead(
            |x| {
                count += 1;
                x[0] * x[0]
            },
            &[10.0],
            &NelderMeadConfig {
                max_evaluations: 20,
                f_tolerance: 0.0,
                x_tolerance: 0.0,
                ..Default::default()
            },
        );
        // Budget may be exceeded by at most one shrink round (n evals).
        assert!(count <= 22, "spent {count} evaluations");
        assert!(!result.converged);
    }

    #[test]
    fn nelder_mead_survives_nan_regions() {
        // Objective undefined (NaN) for x < 0; minimum at x = 1.
        let result = nelder_mead(
            |x| {
                if x[0] < 0.0 {
                    f64::NAN
                } else {
                    (x[0] - 1.0).powi(2)
                }
            },
            &[2.0],
            &NelderMeadConfig::default(),
        );
        assert!((result.x[0] - 1.0).abs() < 1e-4);
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let result = golden_section(|x| (x - 2.5).powi(2) + 1.0, 0.0, 10.0, 1e-8);
        assert!((result.x - 2.5).abs() < 1e-6);
        assert!((result.f - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        let result = golden_section(|x| x, 1.0, 2.0, 1e-8);
        assert!((result.x - 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn golden_section_rejects_empty_interval() {
        let _ = golden_section(|x| x, 1.0, 1.0, 1e-8);
    }
}
