//! Shared helpers for the benchmark harness.
//!
//! The benches regenerate the paper's tables/figures through the same
//! experiment code the `repro` binary uses; this crate only hosts small
//! scenario constructors ([`block`], [`block_with_tsi`], [`block_divided`])
//! so the individual bench files stay terse.
//!
//! # Bench → paper mapping
//!
//! Run with `cargo bench -p ttsv-bench` (or `--bench <name>` for one).
//! Each bench times the models over the sweep that produces the
//! corresponding paper artifact, exposing the cost hierarchy
//! 1-D ≪ Model A ≪ Model B ≪ FEM:
//!
//! | Bench | Paper artifact | Sweep |
//! |-------|----------------|-------|
//! | `fig4_radius_sweep` | Fig. 4 | max ΔT vs via radius `r`, per model |
//! | `fig5_liner_sweep` | Fig. 5 | max ΔT vs liner thickness `t_L`, per model |
//! | `fig6_substrate_sweep` | Fig. 6 | max ΔT vs upper substrate thickness `t_Si` (via [`block_with_tsi`]) |
//! | `fig7_division_sweep` | Fig. 7 | one via split into `n` smaller vias, same metal area (via [`block_divided`]) |
//! | `table1_segments` | Table I | Model B accuracy/cost vs segment count `n` (1, 20, 100, 500, 1000) |
//! | `calibration` | §II / §IV-A | fitting Model A's `k₁`, `k₂` against the FEM reference |
//! | `case_study` | §IV-E | the 10 mm × 10 mm DRAM-µP stack unit cell |
//! | `ablation_axisym_vs_cart` | — | FEM axisymmetric vs full Cartesian discretization cost |
//! | `ablation_fem_mesh` | — | FEM cost vs mesh resolution (coarse → fine) |
//! | `floorplan_chip` | §IV-E generalized | full-chip 32×32 power-map evaluation through the batch engine: hotspot vs all-distinct gradient maps, factor-once batched vs per-tile solves, a warm re-evaluation answered from the plan's memo, and a warm 2-tile power update on a 24×24 map (via [`hotspot_floorplan`]/[`gradient_floorplan`]) |
//!
//! # Machine-readable perf tracking
//!
//! `cargo run --release -p ttsv-bench --bin bench_json [-- PATH [--check COMMITTED]]`
//! times the headline workloads (the fig4 FEM sweep, Model B at deep
//! segment counts, one coarse axisymmetric FEM solve, the
//! smoothed-aggregation hierarchy build and V-cycle, a 3-point
//! radius sweep on the 3-D Cartesian reference, the bounded sweep runner,
//! the 32×32 floorplan-engine evaluations including the factor-once
//! batched path,
//! and the `ttsv-serve` session server timed over a real loopback socket:
//! cold registration, warm two-tile power deltas in both full-report and
//! delta-response form, a sustained 32-request burst on one connection,
//! and the same 32 updates fanned out across 32 concurrent connections)
//! with its own median-of-N harness and writes them to `BENCH_19.json`
//! (default path). Each row records its median, the median absolute
//! deviation of its samples (`mad_ns`, the spread) and its sample count;
//! the file records the host's core count and CPU model, so a reader can
//! tell a regression from noise. A schema sanity test in this crate parses
//! the committed file, checks the rows the emitter writes today, and pins
//! the same-run ratios between them (absolute nanoseconds are
//! machine-dependent). CI runs the emitter every push with
//! `--check BENCH_19.json`, which fails the build if any row shared with
//! the committed recording regresses past 1.5×.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ttsv::prelude::*;

/// The paper-block scenario with the given via radius and liner (µm).
///
/// # Panics
///
/// Panics on invalid geometry (benches use known-good values).
#[must_use]
pub fn block(radius_um: f64, liner_um: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(
            Length::from_micrometers(radius_um),
            Length::from_micrometers(liner_um),
        ))
        .build()
        .expect("valid bench scenario")
}

/// A paper-block scenario matching the Fig. 6 sweep at the given substrate
/// thickness (µm).
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn block_with_tsi(t_si_um: f64) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::new(
            Length::from_micrometers(8.0),
            Length::from_micrometers(1.0),
        ))
        .with_ild_thickness(Length::from_micrometers(7.0))
        .with_upper_si_thickness(Length::from_micrometers(t_si_um))
        .build()
        .expect("valid bench scenario")
}

/// A 32×32×32 finite-volume-style SPD box with smoothly varying
/// conductances and a Dirichlet anchor under the first layer — the
/// multigrid build and V-cycle workload of `bench_json` (32 768
/// unknowns).
#[must_use]
pub fn mg_box_matrix() -> ttsv::linalg::CsrMatrix {
    use ttsv::linalg::CooBuilder;
    let (nx, ny, nz) = (32, 32, 32);
    let n = nx * ny * nz;
    let idx = |x: usize, y: usize, z: usize| x + y * nx + z * nx * ny;
    let cell = |x: usize, y: usize, z: usize| 1.0 + 0.4 * ((x + 2 * y + 3 * z) % 7) as f64;
    let mut coo = CooBuilder::with_capacity(n, n, 7 * n);
    for z in 0..nz {
        for y in 0..ny {
            for x in 0..nx {
                let i = idx(x, y, z);
                let mut diag = 0.0;
                if z == 0 {
                    diag += 2.0 * cell(x, y, z);
                }
                for (jx, jy, jz) in [
                    (x.wrapping_sub(1), y, z),
                    (x + 1, y, z),
                    (x, y.wrapping_sub(1), z),
                    (x, y + 1, z),
                    (x, y, z.wrapping_sub(1)),
                    (x, y, z + 1),
                ] {
                    if jx < nx && jy < ny && jz < nz {
                        let g = 0.5 * (cell(x, y, z) + cell(jx, jy, jz));
                        coo.add(i, idx(jx, jy, jz), -g);
                        diag += g;
                    }
                }
                coo.add(i, i, diag);
            }
        }
    }
    coo.to_csr()
}

/// An `n × n` hotspot floorplan on the §IV-E chip: the µP plane carries a
/// central 4×4-tile hotspot at 8× the background tile power inside a
/// 10×10 warm ring at 2× (power levels quantized to three values, so the
/// dedup cache collapses the chip to 3 distinct unit cells), the DRAM
/// planes stay uniform-per-plane with the same quantization, and the via
/// density is the paper's uniform 0.5 %. The `floorplan_chip` bench and
/// `bench_json` share this workload.
///
/// # Panics
///
/// Panics if `n < 11` (smaller grids cannot hold the background level
/// outside the 10×10 warm region, collapsing the 3-level shape).
#[must_use]
pub fn hotspot_floorplan(n: usize) -> Floorplan {
    assert!(n >= 11, "hotspot floorplan needs an 11×11 grid or larger");
    let cs = ttsv::core::full_chip::CaseStudy::paper();
    let multiplier = |ix: usize, iy: usize| -> f64 {
        let center = |i: usize| (i as f64) - (n as f64 - 1.0) / 2.0;
        let (dx, dy) = (center(ix).abs(), center(iy).abs());
        if dx < 2.0 && dy < 2.0 {
            8.0
        } else if dx < 5.0 && dy < 5.0 {
            2.0
        } else {
            1.0
        }
    };
    let weight_total: f64 = (0..n)
        .flat_map(|iy| (0..n).map(move |ix| multiplier(ix, iy)))
        .sum();
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| {
            PowerMap::from_fn(n, n, |ix, iy| total * (multiplier(ix, iy) / weight_total))
                .expect("valid hotspot map")
        })
        .collect();
    let via = ViaDensityMap::uniform(n, n, cs.density).expect("valid density map");
    Floorplan::new(&cs, maps, via).expect("valid floorplan")
}

/// An `n × n` gradient floorplan: every tile's power scales with a
/// diagonal gradient, so (almost) every unit cell is distinct — the
/// dedup-free batch-throughput workload complementing
/// [`hotspot_floorplan`].
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn gradient_floorplan(n: usize) -> Floorplan {
    let cs = ttsv::core::full_chip::CaseStudy::paper();
    let weight = |ix: usize, iy: usize| 1.0 + (iy * n + ix) as f64 / (n * n) as f64;
    let weight_total: f64 = (0..n)
        .flat_map(|iy| (0..n).map(move |ix| weight(ix, iy)))
        .sum();
    let maps = cs
        .plane_powers
        .iter()
        .map(|&total| {
            PowerMap::from_fn(n, n, |ix, iy| total * (weight(ix, iy) / weight_total))
                .expect("valid gradient map")
        })
        .collect();
    let via = ViaDensityMap::uniform(n, n, cs.density).expect("valid density map");
    Floorplan::new(&cs, maps, via).expect("valid floorplan")
}

/// A Fig. 7 division scenario: one r₀ = 10 µm via split into `n`.
///
/// # Panics
///
/// Panics on invalid geometry.
#[must_use]
pub fn block_divided(n: usize) -> Scenario {
    Scenario::paper_block()
        .with_tsv(TtsvConfig::divided(
            Length::from_micrometers(10.0),
            Length::from_micrometers(1.0),
            n,
        ))
        .with_upper_si_thickness(Length::from_micrometers(20.0))
        .build()
        .expect("valid bench scenario")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal extractor for the flat `"key": {"median_ns": N, ...}` /
    /// `"key": N` shapes `bench_json` emits (no JSON dependency offline):
    /// returns every `(key, integer)` pair found under `section`.
    fn section_integers(json: &str, section: &str, field: Option<&str>) -> Vec<(String, u128)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("section {section} missing"));
        let open = json[start..].find('{').expect("section opens") + start + 1;
        let mut depth = 1usize;
        let mut end = open;
        for (i, c) in json[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        let body = &json[open..end];
        let mut out = Vec::new();
        for line in body.lines() {
            let line = line.trim().trim_end_matches(',');
            let Some((key, rest)) = line.split_once(':') else {
                continue;
            };
            let key = key.trim().trim_matches('"').to_string();
            let digits: String = match field {
                Some(f) => {
                    let Some(pos) = rest.find(&format!("\"{f}\"")) else {
                        continue;
                    };
                    rest[pos..]
                        .chars()
                        .skip_while(|c| !c.is_ascii_digit())
                        .take_while(char::is_ascii_digit)
                        .collect()
                }
                None => rest
                    .trim()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect(),
            };
            if !digits.is_empty() {
                out.push((key, digits.parse().expect("integer fits u128")));
            }
        }
        out
    }

    #[test]
    fn bench_json_schema_is_sane() {
        // Parse the committed BENCH_19.json: schema tag, host record, every
        // row the emitter writes present with a positive median and a
        // spread — and the same-run ratios between rows.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_19.json");
        let json = std::fs::read_to_string(path).expect("BENCH_19.json committed at repo root");
        assert!(
            json.contains("\"schema\": \"ttsv-bench-json/1\""),
            "schema tag missing"
        );
        assert!(json.contains("\"pr\": 19"), "pr tag missing");
        assert!(json.contains("\"host_cpu\": \""), "host CPU model missing");
        let host_cores = json
            .lines()
            .find_map(|l| l.trim().strip_prefix("\"host_cores\": "))
            .and_then(|v| v.trim_end_matches(',').parse::<usize>().ok())
            .expect("host_cores recorded");
        assert!(host_cores > 0, "host_cores must count the host's cores");

        let benches = section_integers(&json, "benches", Some("median_ns"));
        let spreads = section_integers(&json, "benches", Some("mad_ns"));
        let median = |key: &str| -> u128 {
            benches
                .iter()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("{key} missing"))
                .1
        };
        for key in [
            "fig4_radius_sweep/fem_coarse",
            "fig4_radius_sweep/model_b_100",
            "table1_segments/B(500)",
            "table1_segments/B(1000)",
            "ablation_fem_precond/direct_banded/coarse",
            "mg_hierarchy/build_sa/box32k",
            "mg_vcycle/sa/box32k",
            "fem_mg_sweep/rebuild",
            "floorplan_chip/hotspot32/model_b100",
            "floorplan_chip/gradient32/model_b100",
            "floorplan_chip/gradient32/factor_shared",
            "floorplan_chip/warm_update_2tile/24x24/model_b_10_1000",
            "sweep_runner/fig4_quick",
            "serve/cold_session",
            "serve/warm_delta",
            "serve/warm_delta_response",
            "serve/sustained_32req",
            "serve/sustained_fanout",
            "serve/parked_request",
            "serve/warm_delta_journaled",
        ] {
            assert!(median(key) > 0, "{key} must have a real median");
            assert!(
                spreads.iter().any(|(k, _)| k == key),
                "{key} must record its spread"
            );
        }
        // PR-6 acceptance criterion (same-run, machine-independent): a
        // warm two-tile power delta on a live session must be ≥5× cheaper
        // than registering a cold session — the point of holding sessions
        // server-side instead of resubmitting floorplans.
        assert!(
            5 * median("serve/warm_delta") <= median("serve/cold_session"),
            "warm session deltas must be ≥5× cheaper than cold registration"
        );
        // The 32-request burst must amortize: no worse than 32 single
        // warm deltas plus generous per-request overhead headroom.
        assert!(
            median("serve/sustained_32req") < 64 * median("serve/warm_delta"),
            "sustained warm burst must amortize per-request overhead"
        );
        // PR-8 additions (same-run, machine-independent). A delta
        // response is the same evaluation with a smaller body, so it must
        // not cost materially more than the full-report form of the
        // identical update — 2× headroom absorbs sampling noise.
        assert!(
            median("serve/warm_delta_response") < 2 * median("serve/warm_delta"),
            "delta responses must not cost more than full reports"
        );
        // 32 concurrent updates across 32 connections must stay within
        // shouting distance of the same 32 updates pipelined on one
        // connection: on one core fan-out adds scheduling overhead rather
        // than parallel speedup, so the bound only rules out the
        // catastrophic case (serial accept-evaluate-close per request).
        assert!(
            median("serve/sustained_fanout") < 4 * median("serve/sustained_32req"),
            "concurrent fan-out must not collapse to serial per-connection serving"
        );
        // PR-10 acceptance criterion (same-run, machine-independent):
        // journaling every power update to the write-ahead log (default
        // interval fsync) must cost less than 2× the unjournaled delta
        // response for the identical update — durability must not double
        // the warm hot path.
        assert!(
            median("serve/warm_delta_journaled") < 2 * median("serve/warm_delta_response"),
            "the write-ahead journal must not double the warm delta hot path"
        );
        // Same-run comparison (machine-independent): the shared
        // factorization must beat per-tile solves on the same run.
        assert!(
            3 * median("floorplan_chip/gradient32/factor_shared")
                < median("floorplan_chip/gradient32/model_b100"),
            "the shared factorization must dominate per-tile solves same-run"
        );
    }

    #[test]
    fn constructors_build() {
        assert_eq!(block(8.0, 0.5).stack().plane_count(), 3);
        assert_eq!(
            block_with_tsi(20.0).stack().planes()[1]
                .t_si()
                .as_micrometers(),
            20.0
        );
        assert_eq!(block_divided(9).tsv().count(), 9);
    }

    #[test]
    fn floorplan_constructors_build_and_conserve_power() {
        let hotspot = hotspot_floorplan(32);
        assert_eq!(hotspot.tiles(), 1024);
        let total: f64 = hotspot.plane_totals().iter().map(|p| p.as_watts()).sum();
        assert!((total - 84.0).abs() < 1e-9 * 84.0, "{total}");
        let gradient = gradient_floorplan(16);
        assert_eq!(gradient.plane_count(), 3);
        let total: f64 = gradient.plane_totals().iter().map(|p| p.as_watts()).sum();
        assert!((total - 84.0).abs() < 1e-9 * 84.0, "{total}");
    }
}
