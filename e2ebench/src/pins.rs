//! Output checks for `paper_repro`: every experiment's numbers against
//! pinned values, at the golden suite's tolerances.
//!
//! Three layers of pins, all copies (the repository's tests stay as
//! they are):
//! * `GOLDEN` — the values `tests/golden_paper.rs` pins that the
//!   experiments reproduce exactly (same scenario, same model), at its
//!   closed-form tolerance;
//! * `SERIES` — every non-timing series of the nine experiments at
//!   `Fidelity::Full`, as this repository computed them when the
//!   benchmark was defined: closed-form models (`Model B (…)`, `1-D`) at
//!   the closed-form tolerance, anything fitted to or compared against the
//!   finite-volume reference at the FEM tolerance;
//! * the paper's qualitative claims, as `tests/paper_experiments.rs`
//!   states them.

use ttsv_validate::report::Report;

/// The golden suite's tolerance for closed-form / direct-ladder models.
const MODEL_RTOL: f64 = 1e-7;
/// The golden suite's tolerance for the finite-volume reference.
const FEM_RTOL: f64 = 1e-5;

/// The nine experiments, in the order `experiments` lists them.
pub const EXPERIMENTS: [&str; 9] = [
    "fig4",
    "fig5",
    "table1",
    "fig6",
    "fig7",
    "case_study",
    "calibration",
    "sensitivity",
    "nplanes",
];

/// `(experiment, series, x index, value)` copied from `tests/golden_paper.rs`.
const GOLDEN: &[(&str, &str, usize, f64)] = &[
    // table1_model_b_segment_ladder_is_pinned (Fig. 5 geometry, 1 µm liner)
    ("fig5", "Model B (1)", 1, 4.537074748366e1),
    ("fig5", "Model B (20)", 1, 4.116072285819e1),
    ("fig5", "Model B (100)", 1, 3.877603905853e1),
    ("fig5", "Model B (500)", 1, 3.834928816461e1),
    // fig4_radius_sweep_endpoints_are_pinned (r = 1, 20 µm)
    ("fig4", "Model B (100)", 0, 3.932233338861e1),
    ("fig4", "1-D", 0, 4.428348449650e1),
    ("fig4", "Model B (100)", 12, 1.375566816673e1),
    ("fig4", "1-D", 12, 2.391621200329e1),
    // fig5_liner_sweep_endpoints_are_pinned (tL = 0.5, 3 µm)
    ("fig5", "Model B (100)", 0, 3.664488966346e1),
    ("fig5", "1-D", 0, 5.908985198164e1),
    ("fig5", "Model B (100)", 5, 4.231327727037e1),
    ("fig5", "1-D", 5, 6.098769069026e1),
    // fig6_substrate_thinning_sweep_is_pinned (tSi = 5, 20, 80 µm)
    ("fig6", "Model B (100)", 0, 3.267314570486e1),
    ("fig6", "1-D", 0, 4.505442030758e1),
    ("fig6", "Model B (100)", 3, 2.792958638841e1),
    ("fig6", "1-D", 3, 4.821546442156e1),
    ("fig6", "Model B (100)", 7, 3.171094390316e1),
    ("fig6", "1-D", 7, 5.614003534826e1),
    // case_study_delta_t_is_pinned (Model A, B(1000), 1-D)
    ("case_study", "delta_t_c", 0, 1.259763445965e1),
    ("case_study", "delta_t_c", 1, 1.101104421301e1),
    ("case_study", "delta_t_c", 3, 2.615354576747e1),
];

/// Every non-timing series at `Fidelity::Full`.
const SERIES: &[(&str, &str, &[f64])] = &[
    // Fig. 4 — Max ΔT [°C] vs TTSV radius [µm]
    (
        "fig4",
        "Model A",
        &[
            3.870590800560e1,
            3.503881412535e1,
            3.174582083315e1,
            2.903499794182e1,
            2.683235864311e1,
            2.588454605643e1,
            2.147092101544e1,
            1.840649359923e1,
            1.627694141330e1,
            1.476645432483e1,
            1.366724479362e1,
            1.284667941644e1,
            1.221954796994e1,
        ],
    ),
    (
        "fig4",
        "Model B (100)",
        &[
            3.932233338861e1,
            3.473737117934e1,
            3.080675393412e1,
            2.775094807522e1,
            2.539829095597e1,
            2.391536577797e1,
            2.044065475615e1,
            1.816522864022e1,
            1.662624783210e1,
            1.554870849370e1,
            1.477033493604e1,
            1.419304958046e1,
            1.375566816673e1,
        ],
    ),
    (
        "fig4",
        "1-D",
        &[
            4.428348449650e1,
            4.015484104338e1,
            3.639313275273e1,
            3.364685590185e1,
            3.171910847018e1,
            3.732104790765e1,
            3.402713256412e1,
            3.145138657470e1,
            2.940093505720e1,
            2.771213180400e1,
            2.627627755543e1,
            2.502526584955e1,
            2.391621200329e1,
        ],
    ),
    (
        "fig4",
        "FEM",
        &[
            3.654167714344e1,
            3.461863158291e1,
            3.256268073659e1,
            3.057762319829e1,
            2.875637247997e1,
            2.616643606973e1,
            2.261176251446e1,
            1.993870035239e1,
            1.794924093855e1,
            1.645574846077e1,
            1.531650813303e1,
            1.443158227169e1,
            1.373172993660e1,
        ],
    ),
    // Fig. 5 — Max ΔT [°C] vs liner thickness [µm]
    (
        "fig5",
        "Model A",
        &[
            4.020077328928e1,
            4.126874913236e1,
            4.214337523024e1,
            4.290331842096e1,
            4.357891693115e1,
            4.418862643134e1,
        ],
    ),
    (
        "fig5",
        "Model B (1)",
        &[
            4.455320678591e1,
            4.537074748366e1,
            4.600249433558e1,
            4.654886934467e1,
            4.704039280152e1,
            4.749163147451e1,
        ],
    ),
    (
        "fig5",
        "Model B (20)",
        &[
            3.894333693767e1,
            4.116072285819e1,
            4.245160520751e1,
            4.340760130437e1,
            4.418868398131e1,
            4.486003054479e1,
        ],
    ),
    (
        "fig5",
        "Model B (100)",
        &[
            3.664488966346e1,
            3.877603905853e1,
            4.001559411511e1,
            4.093024511735e1,
            4.167499715079e1,
            4.231327727037e1,
        ],
    ),
    (
        "fig5",
        "Model B (500)",
        &[
            3.623345279599e1,
            3.834928816461e1,
            3.958014881604e1,
            4.048834476377e1,
            4.122774283923e1,
            4.186132136075e1,
        ],
    ),
    (
        "fig5",
        "1-D",
        &[
            5.908985198164e1,
            5.997057873848e1,
            6.035768998270e1,
            6.061074121310e1,
            6.081115310324e1,
            6.098769069026e1,
        ],
    ),
    (
        "fig5",
        "FEM",
        &[
            3.776010929682e1,
            3.883902184554e1,
            3.945155249171e1,
            3.989390219764e1,
            4.024566521984e1,
            4.053955268417e1,
        ],
    ),
    // Table I — error and runtime vs #segments in Model B
    (
        "table1",
        "max_error_pct",
        &[
            1.799014254880e1,
            1.065743841400e1,
            4.375293925964e0,
            4.043040471179e0,
            9.001267911388e0,
            5.648750250467e1,
        ],
    ),
    (
        "table1",
        "avg_error_pct",
        &[
            1.702104593992e1,
            7.663018717450e0,
            2.511643887145e0,
            2.136773457350e0,
            7.394947667785e0,
            5.289286266872e1,
        ],
    ),
    // Fig. 6 — Max ΔT [°C] vs upper substrate thickness [µm]
    (
        "fig6",
        "Model A",
        &[
            3.577016033392e1,
            3.133433129261e1,
            2.937805987779e1,
            2.858421414991e1,
            2.857315603238e1,
            3.001623872497e1,
            3.191236866142e1,
            3.445209270435e1,
        ],
    ),
    (
        "fig6",
        "Model B (100)",
        &[
            3.267314570486e1,
            2.945628712845e1,
            2.826595397343e1,
            2.792958638841e1,
            2.822343582231e1,
            2.936833635902e1,
            3.049541164229e1,
            3.171094390316e1,
        ],
    ),
    (
        "fig6",
        "1-D",
        &[
            4.505442030758e1,
            4.619426775852e1,
            4.724416465745e1,
            4.821546442156e1,
            4.995887425737e1,
            5.217987340137e1,
            5.404703023399e1,
            5.614003534826e1,
        ],
    ),
    (
        "fig6",
        "FEM",
        &[
            3.452930024633e1,
            3.150574835756e1,
            3.031202855132e1,
            2.983345352485e1,
            2.973801740392e1,
            3.029029552563e1,
            3.098895378319e1,
            3.184453826234e1,
        ],
    ),
    // Fig. 7 — Max ΔT [°C] vs number of TTSVs (constant total metal)
    (
        "fig7",
        "Model A",
        &[
            1.919158037468e1,
            1.774256077965e1,
            1.661876918887e1,
            1.565746547454e1,
            1.516330369854e1,
        ],
    ),
    (
        "fig7",
        "Model B (100)",
        &[
            1.886390207597e1,
            1.774687907110e1,
            1.688432968638e1,
            1.612112699501e1,
            1.569424574121e1,
        ],
    ),
    (
        "fig7",
        "1-D",
        &[
            2.983956106366e1,
            2.988739526924e1,
            2.995853105439e1,
            3.008965447994e1,
            3.023343109979e1,
        ],
    ),
    (
        "fig7",
        "FEM",
        &[
            2.058501265778e1,
            1.948540266350e1,
            1.861160293187e1,
            1.775100413148e1,
            1.718170549555e1,
        ],
    ),
    // §IV-E — 3-D DRAM-µP case study (max ΔT above the sink)
    (
        "case_study",
        "delta_t_c",
        &[
            1.259763445965e1,
            1.101104421301e1,
            1.089653148457e1,
            2.615354576747e1,
        ],
    ),
    // Calibration — fitting k1/k2 against the FEM reference
    (
        "calibration",
        "FEM",
        &[
            3.256268073659e1,
            2.261176251446e1,
            1.584894264808e1,
            3.989390219764e1,
            3.452930024633e1,
            2.983345352485e1,
            3.184453826234e1,
        ],
    ),
    (
        "calibration",
        "Model A (fitted)",
        &[
            3.174582083315e1,
            2.147092101544e1,
            1.417511426117e1,
            4.290331842096e1,
            3.577016033392e1,
            2.858421414991e1,
            3.445209270435e1,
        ],
    ),
    // Sensitivity — ΔT vs the (unstated) silicon conductivity
    (
        "sensitivity",
        "Model B (100)",
        &[
            4.284355533078e1,
            3.974459711004e1,
            3.664488966346e1,
            3.457799849300e1,
        ],
    ),
    (
        "sensitivity",
        "1-D",
        &[
            6.533361444064e1,
            6.221190145097e1,
            5.908985198164e1,
            5.700829750002e1,
        ],
    ),
    (
        "sensitivity",
        "FEM",
        &[
            4.539392205749e1,
            4.164339177221e1,
            3.776010929682e1,
            3.507017081442e1,
        ],
    ),
    // N-plane extension — Max ΔT [°C] vs number of planes
    (
        "nplanes",
        "Model A",
        &[
            1.142921183315e1,
            2.147092101544e1,
            3.491149604806e1,
            5.170191031518e1,
            7.183296560823e1,
        ],
    ),
    (
        "nplanes",
        "Model B (100)",
        &[
            1.113784326982e1,
            2.044065475615e1,
            3.298282303790e1,
            4.873815624230e1,
            6.770425043039e1,
        ],
    ),
    (
        "nplanes",
        "1-D",
        &[
            2.076124907307e1,
            3.402713256412e1,
            5.105743215364e1,
            7.185214784162e1,
            9.641127962807e1,
        ],
    ),
    (
        "nplanes",
        "FEM",
        &[
            1.139006324668e1,
            2.261176251446e1,
            3.707215994374e1,
            5.485449290726e1,
            7.596892050154e1,
        ],
    ),
];

/// Closed-form series carry the model tolerance; everything fitted to or
/// compared with the finite-volume reference carries the FEM one.
fn series_rtol(experiment: &str, series: &str, index: usize) -> f64 {
    let closed_form = series.starts_with("Model B") || series == "1-D";
    // case_study rows: Model A (paper fit), B(1000), FEM, 1-D.
    let case_closed_form = experiment == "case_study" && index != 2;
    if closed_form || case_closed_form {
        MODEL_RTOL
    } else {
        FEM_RTOL
    }
}

fn close(got: f64, want: f64, rtol: f64) -> bool {
    (got - want).abs() <= rtol * want.abs()
}

fn series<'r>(report: &'r Report, name: &str) -> Result<&'r [f64], String> {
    report
        .series_named(name)
        .map(|s| s.values.as_slice())
        .ok_or_else(|| format!("series {name:?} missing"))
}

/// Checks one experiment's report; the error names the first mismatch.
pub fn check(experiment: &str, report: &Report) -> Result<(), String> {
    for &(exp, name, i, want) in GOLDEN.iter().filter(|g| g.0 == experiment) {
        let got = series(report, name)?.get(i).copied().unwrap_or(f64::NAN);
        if !close(got, want, MODEL_RTOL) {
            return Err(format!("{exp} {name}[{i}] = {got:e}, golden {want:e}"));
        }
    }
    for &(exp, name, values) in SERIES.iter().filter(|s| s.0 == experiment) {
        let got = series(report, name)?;
        if got.len() != values.len() {
            return Err(format!(
                "{exp} {name} has {} points, pinned {}",
                got.len(),
                values.len()
            ));
        }
        for (i, (&g, &w)) in got.iter().zip(values).enumerate() {
            if !close(g, w, series_rtol(exp, name, i)) {
                return Err(format!("{exp} {name}[{i}] = {g:e}, pinned {w:e}"));
            }
        }
    }
    claims(experiment, report)
}

/// The paper's qualitative claims (`tests/paper_experiments.rs`).
fn claims(experiment: &str, report: &Report) -> Result<(), String> {
    let ok = match experiment {
        "fig4" => {
            let fem = series(report, "FEM")?;
            let err = |name: &str| -> Result<f64, String> {
                let s = series(report, name)?;
                Ok(s.iter()
                    .zip(fem)
                    .map(|(m, f)| ((m - f) / f).abs())
                    .sum::<f64>()
                    / fem.len() as f64)
            };
            err("Model B (100)")? < err("1-D")?
        }
        "fig5" => series(report, "FEM")?.windows(2).all(|w| w[1] > w[0]),
        "fig6" => {
            let fem = series(report, "FEM")?;
            let min = (0..fem.len())
                .min_by(|&a, &b| fem[a].total_cmp(&fem[b]))
                .unwrap_or(0);
            min > 0 && min + 1 < fem.len()
        }
        "fig7" => {
            let fem = series(report, "FEM")?;
            let gains: Vec<f64> = fem.windows(2).map(|w| w[0] - w[1]).collect();
            gains.iter().all(|&g| g > 0.0) && gains.windows(2).all(|g| g[1] < g[0] + 1e-9)
        }
        "case_study" => {
            let dt = series(report, "delta_t_c")?;
            dt.len() == 4 && dt[3] > dt[0] && dt[3] > dt[1] && dt[3] > dt[2]
        }
        _ => true,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{experiment}: the paper's qualitative claim does not hold"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttsv_validate::experiments::{self, Fidelity};

    #[test]
    fn full_fidelity_experiments_match_the_pins() {
        let reports = [
            experiments::fig4(Fidelity::Full),
            experiments::fig5(Fidelity::Full),
            experiments::table1(Fidelity::Full),
            experiments::fig6(Fidelity::Full),
            experiments::fig7(Fidelity::Full),
            experiments::case_study(Fidelity::Full),
            experiments::calibration(Fidelity::Full),
            experiments::sensitivity(Fidelity::Full),
            experiments::nplanes(Fidelity::Full),
        ];
        for (name, report) in EXPERIMENTS.iter().zip(reports) {
            check(name, &report.unwrap()).unwrap();
        }
    }

    #[test]
    fn a_drifted_value_fails_the_check() {
        let mut report = experiments::fig4(Fidelity::Full).unwrap();
        let fem = report.series.iter_mut().find(|s| s.name == "FEM").unwrap();
        fem.values[3] *= 1.0 + 1e-4;
        assert!(check("fig4", &report).unwrap_err().contains("FEM[3]"));

        let mut report = experiments::fig5(Fidelity::Full).unwrap();
        let b = report
            .series
            .iter_mut()
            .find(|s| s.name == "Model B (20)")
            .unwrap();
        b.values[1] *= 1.0 + 1e-6;
        assert!(check("fig5", &report).is_err());
    }
}
