//! Ablation: axisymmetric unit cell vs full 3-D Cartesian on the same
//! via-in-a-box problem — the cost side of the equal-area-disc substitution
//! argued in the README’s “Where the paper is silent” (the accuracy side
//! is covered by the `fem_reference` integration test).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use ttsv::fem::axisym::AxisymmetricProblem;
use ttsv::fem::cartesian::CartesianProblem;
use ttsv::fem::Axis;
use ttsv::prelude::*;
use ttsv::units::PowerDensity;

fn um(v: f64) -> Length {
    Length::from_micrometers(v)
}

fn axisym_problem() -> AxisymmetricProblem {
    let r_eq = Area::square(um(100.0)).equivalent_radius();
    let r = Axis::builder()
        .segment(um(8.0), 6)
        .segment(um(1.0), 3)
        .segment(r_eq - um(9.0), 24)
        .build();
    let z = Axis::builder()
        .segment(um(50.0), 20)
        .segment(um(7.0), 8)
        .build();
    let mut p = AxisymmetricProblem::new(r, z, Material::silicon().conductivity());
    p.set_material(
        (Length::ZERO, r_eq),
        (um(50.0), um(57.0)),
        Material::silicon_dioxide().conductivity(),
    );
    p.add_source(
        (Length::ZERO, r_eq),
        (um(50.0), um(57.0)),
        PowerDensity::from_watts_per_cubic_millimeter(70.0),
    );
    p.set_material(
        (Length::ZERO, um(8.0)),
        (um(0.0), um(57.0)),
        Material::copper().conductivity(),
    );
    p.set_material(
        (um(8.0), um(9.0)),
        (um(0.0), um(57.0)),
        Material::silicon_dioxide().conductivity(),
    );
    p
}

fn cartesian_problem() -> CartesianProblem {
    let x = Axis::builder().segment(um(100.0), 40).build();
    let y = Axis::builder().segment(um(100.0), 40).build();
    let z = Axis::builder()
        .segment(um(50.0), 20)
        .segment(um(7.0), 8)
        .build();
    let mut p = CartesianProblem::new(x, y, z, Material::silicon().conductivity());
    p.set_material(
        (um(0.0), um(100.0)),
        (um(0.0), um(100.0)),
        (um(50.0), um(57.0)),
        Material::silicon_dioxide().conductivity(),
    );
    p.add_source(
        (um(0.0), um(100.0)),
        (um(0.0), um(100.0)),
        (um(50.0), um(57.0)),
        PowerDensity::from_watts_per_cubic_millimeter(70.0),
    );
    p.set_material_cylinder(
        (um(50.0), um(50.0)),
        um(9.0),
        (um(0.0), um(57.0)),
        Material::silicon_dioxide().conductivity(),
    );
    p.set_material_cylinder(
        (um(50.0), um(50.0)),
        um(8.0),
        (um(0.0), um(57.0)),
        Material::copper().conductivity(),
    );
    p
}

fn bench(c: &mut Criterion) {
    let axi = axisym_problem();
    let cart = cartesian_problem();
    let mut group = c.benchmark_group("ablation_axisym_vs_cart");
    group.sample_size(10);
    group.bench_function("axisym_33x28", |b| {
        b.iter(|| black_box(&axi).solve().expect("solvable").max_temperature())
    });
    group.bench_function("cartesian_40x40x28", |b| {
        b.iter(|| {
            black_box(&cart)
                .solve()
                .expect("solvable")
                .max_temperature()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
