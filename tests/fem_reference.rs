//! Integration tests of the FEM reference pipeline: geometry mapping,
//! axisymmetric vs 3-D Cartesian cross-check, and energy accounting.

use ttsv::fem::axisym::BottomBc;
use ttsv::fem::cartesian::CartesianProblem;
use ttsv::fem::Axis;
use ttsv::prelude::*;
use ttsv::units::PowerDensity;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// The axisymmetric equal-area mapping agrees with a full 3-D Cartesian
/// solve of the same TTSV unit cell within a documented band. This bounds
/// the error of the substitution used throughout the reproduction
/// (README, “Where the paper is silent”).
#[test]
fn axisym_mapping_agrees_with_cartesian_3d() {
    // A simplified one-plane cell: 100×100 µm² footprint, 50 µm silicon,
    // 7 µm ILD on top, heated ILD, 8 µm copper via with 1 µm liner.
    let side = 100.0;
    let t_si = 50.0;
    let t_ild = 7.0;
    let r_via = 8.0;
    let t_liner = 1.0;
    let q = PowerDensity::from_watts_per_cubic_millimeter(70.0);

    // --- 3-D Cartesian with a staircase via --------------------------------
    let x = Axis::builder().segment(um(side), 40).build();
    let y = Axis::builder().segment(um(side), 40).build();
    let z = Axis::builder()
        .segment(um(t_si), 20)
        .segment(um(t_ild), 8)
        .build();
    let mut cart = CartesianProblem::new(x, y, z, Material::silicon().conductivity());
    cart.set_material(
        (um(0.0), um(side)),
        (um(0.0), um(side)),
        (um(t_si), um(t_si + t_ild)),
        Material::silicon_dioxide().conductivity(),
    );
    cart.add_source(
        (um(0.0), um(side)),
        (um(0.0), um(side)),
        (um(t_si), um(t_si + t_ild)),
        q,
    );
    let center = um(side / 2.0);
    cart.set_material_cylinder(
        (center, center),
        um(r_via + t_liner),
        (um(0.0), um(t_si + t_ild)),
        Material::silicon_dioxide().conductivity(),
    );
    cart.set_material_cylinder(
        (center, center),
        um(r_via),
        (um(0.0), um(t_si + t_ild)),
        Material::copper().conductivity(),
    );
    let cart_dt = cart.solve().unwrap().max_temperature().as_kelvin();

    // --- Axisymmetric equal-area disc ---------------------------------------
    let r_eq = Area::square(um(side)).equivalent_radius();
    let r = Axis::builder()
        .segment(um(r_via), 6)
        .segment(um(t_liner), 3)
        .segment(r_eq - um(r_via + t_liner), 24)
        .build();
    let z = Axis::builder()
        .segment(um(t_si), 20)
        .segment(um(t_ild), 8)
        .build();
    let mut axi =
        ttsv::fem::axisym::AxisymmetricProblem::new(r, z, Material::silicon().conductivity());
    axi.set_material(
        (Length::ZERO, r_eq),
        (um(t_si), um(t_si + t_ild)),
        Material::silicon_dioxide().conductivity(),
    );
    axi.add_source((Length::ZERO, r_eq), (um(t_si), um(t_si + t_ild)), q);
    axi.set_material(
        (Length::ZERO, um(r_via)),
        (um(0.0), um(t_si + t_ild)),
        Material::copper().conductivity(),
    );
    axi.set_material(
        (um(r_via), um(r_via + t_liner)),
        (um(0.0), um(t_si + t_ild)),
        Material::silicon_dioxide().conductivity(),
    );
    let axi_dt = axi.solve().unwrap().max_temperature().as_kelvin();

    // The equal-area mapping plus the staircase via should agree within 10%.
    assert!(
        (axi_dt - cart_dt).abs() < 0.10 * cart_dt,
        "axisym {axi_dt} vs cartesian {cart_dt}"
    );
}

/// The FEM adapter conserves energy: the heat crossing the sink equals the
/// scenario's power (per unit cell).
#[test]
fn adapter_conserves_energy() {
    let scenario = Scenario::paper_block().build().unwrap();
    let fem = FemReference::new();
    let problem = fem.build_problem(&scenario).unwrap();
    let field = problem.solve().unwrap();
    let injected = problem.total_source_power().as_watts();
    let drained = field.sink_heat().as_watts();
    assert!(
        (injected - drained).abs() < 1e-6 * injected,
        "in {injected} vs out {drained}"
    );
    // And the per-cell injection equals the scenario total (single via).
    assert!((injected - scenario.total_power().as_watts()).abs() < 1e-9 * injected);
}

/// Mesh convergence on the real paper block: default vs fine resolution
/// agree within 5%.
#[test]
fn adapter_mesh_convergence() {
    let scenario = Scenario::paper_block().build().unwrap();
    let default = FemReference::new()
        .max_delta_t(&scenario)
        .unwrap()
        .as_kelvin();
    let fine = FemReference::new()
        .with_resolution(FemResolution::fine())
        .max_delta_t(&scenario)
        .unwrap()
        .as_kelvin();
    assert!(
        (default - fine).abs() < 0.05 * fine,
        "default {default} vs fine {fine}"
    );
}

/// Pure-radial verification path stays exact (the washer problem used in
/// unit tests, re-run here through the public facade).
#[test]
fn radial_washer_ln_profile_via_facade() {
    let r = Axis::builder()
        .segment(um(5.0), 2)
        .segment(um(45.0), 90)
        .segment(um(5.0), 2)
        .build();
    let z = Axis::builder().segment(um(10.0), 1).build();
    let mut prob = ttsv::fem::axisym::AxisymmetricProblem::new(
        r,
        z,
        ttsv::units::ThermalConductivity::from_watts_per_meter_kelvin(10.0),
    );
    prob.set_bottom(BottomBc::Adiabatic);
    prob.pin(
        (um(0.0), um(5.0)),
        (um(0.0), um(10.0)),
        ttsv::units::TemperatureDelta::ZERO,
    );
    prob.add_source(
        (um(50.0), um(55.0)),
        (um(0.0), um(10.0)),
        PowerDensity::from_watts_per_cubic_millimeter(1.0),
    );
    let total = prob.total_source_power().as_watts();
    let sol = prob.solve().unwrap();
    let t10 = sol.temperature_at(um(10.0), um(5.0)).as_kelvin();
    let t40 = sol.temperature_at(um(40.0), um(5.0)).as_kelvin();
    let want = total * (40.25f64 / 10.25).ln() / (2.0 * std::f64::consts::PI * 10.0 * 10.0e-6);
    assert!(((t40 - t10) - want).abs() < 0.01 * want);
}
