//! Integration tests tying the analytical models back to first-principles
//! network physics.

use ttsv::prelude::*;
use ttsv::units::{Power, ThermalResistance};

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

/// Energy conservation across the stack: the heat crossing into the ground
/// node equals the scenario's total power for both A and B network forms.
#[test]
fn model_networks_conserve_energy() {
    let scenario = Scenario::paper_block().build().unwrap();
    let model = ModelA::new();
    let sol = model.solve(&scenario).unwrap();
    // T0 = Rs · Σq means the substrate resistor carries exactly Σq.
    let rs = sol.resistances().substrate;
    let flow = sol.t0() / rs;
    let total = scenario.total_power();
    assert!(
        (flow.as_watts() - total.as_watts()).abs() < 1e-9 * total.as_watts(),
        "substrate flow {flow} vs total {total}"
    );
}

/// Thermal superposition: solving two scenarios whose loads sum gives
/// summed temperatures (the models are linear networks).
#[test]
fn models_are_linear_in_the_load() {
    let stack_scenario = |factor: f64| {
        let powers: Vec<Power> = Scenario::paper_block()
            .build()
            .unwrap()
            .plane_powers()
            .iter()
            .map(|p| *p * factor)
            .collect();
        let base = Scenario::paper_block().build().unwrap();
        Scenario::new(
            base.stack().clone(),
            base.tsv().clone(),
            &ttsv::core::geometry::HeatLoad::PerPlane(powers),
        )
        .unwrap()
    };
    for model in [
        &ModelA::with_coefficients(FittingCoefficients::paper_block()) as &dyn ThermalModel,
        &ModelB::paper_b100(),
        &OneDModel::new(),
    ] {
        let one = model.max_delta_t(&stack_scenario(1.0)).unwrap().as_kelvin();
        let three = model.max_delta_t(&stack_scenario(3.0)).unwrap().as_kelvin();
        assert!(
            (three - 3.0 * one).abs() < 1e-9 * three,
            "{}: {one} scaled to {three}",
            model.name()
        );
    }
}

/// A sanity anchor computed by hand: with an enormous copper via filling
/// half the block, ΔT collapses toward the bare series resistance of the
/// substrate path.
#[test]
fn huge_via_approaches_substrate_limit() {
    let scenario = Scenario::paper_block()
        .with_tsv(TtsvConfig::new(um(40.0), um(0.5)))
        .build()
        .unwrap();
    let dt = ModelB::paper_b100()
        .max_delta_t(&scenario)
        .unwrap()
        .as_kelvin();
    // Lower bound: all heat through Rs alone.
    let rs = ThermalResistance::from_kelvin_per_watt((500.0e-6 - 1.0e-6) / (150.0 * 1.0e-8));
    let floor = (scenario.total_power() * rs).as_kelvin();
    assert!(
        dt > floor,
        "ΔT {dt} must exceed the substrate floor {floor}"
    );
    assert!(
        dt < 2.2 * floor,
        "a huge via should approach the floor: {dt} vs {floor}"
    );
}
