//! Full-chip floorplan-engine benchmark (§IV-E generalized to
//! non-uniform maps): a 32×32 hotspot map (3 distinct unit cells after
//! dedup) and a 32×32 gradient map (every cell distinct) evaluated
//! through Model B(100), plus the factor-once batched path (one ladder
//! factorization shared by all 1024 distinct-power tiles), a warm
//! re-evaluation of an unchanged plan (answered from its memo), and a
//! warm two-tile power update on a 24×24 map (the serving steady state:
//! the engine re-evaluates only the changed tiles).
//!
//! The factored path's memo and matrix tier persist across calls, so
//! every cold-path row constructs a fresh engine per iteration —
//! otherwise the second iteration would measure memo hits, not solves.

use criterion::{criterion_group, criterion_main, Criterion};
use ttsv::prelude::*;
use ttsv_bench::{gradient_floorplan, hotspot_floorplan};

fn bench_floorplan(c: &mut Criterion) {
    let mut group = c.benchmark_group("floorplan_chip");
    group.sample_size(10);

    let hotspot = hotspot_floorplan(32);
    let gradient = gradient_floorplan(32);
    let model = ModelB::paper_b100();

    group.bench_function("hotspot_32x32/model_b100", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate(&hotspot, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100/factor_shared", |b| {
        b.iter(|| {
            ChipEngine::new()
                .evaluate_factored(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("gradient_32x32/model_b100/warm_cache", |b| {
        let engine = ChipEngine::new();
        engine
            .evaluate_factored(&gradient, &model)
            .expect("solvable");
        b.iter(|| {
            engine
                .evaluate_factored(&gradient, &model)
                .expect("solvable")
        });
    });
    group.bench_function("warm_update_2tile/24x24/model_b_10_1000", |b| {
        // The serving stream's shape: one engine and one all-distinct
        // 24×24×3 plan, evaluated once; every iteration then sets two
        // tiles of one plane to fresh watt values (so both miss every
        // cache but the matrix tier) and re-evaluates.
        let model = ModelB::with_segments(10, 1000);
        let mut plan = gradient_floorplan(24);
        let engine = ChipEngine::new().with_workers(1);
        engine.evaluate_factored(&plan, &model).expect("solvable");
        let mut round = 0usize;
        b.iter(|| {
            round += 1;
            let plane = round % plan.plane_count();
            let mut tiles = plan.plane_maps()[plane].tiles().to_vec();
            let n = tiles.len();
            for tile in [round % n, (round * 7 + 1) % n] {
                tiles[tile] = Power::from_watts(0.05 + 1e-6 * round as f64);
            }
            plan.update_power_map(plane, PowerMap::new(24, 24, tiles).expect("valid map"))
                .expect("same grid");
            engine.evaluate_factored(&plan, &model).expect("solvable")
        });
    });
    group.bench_function("hotspot_32x32/model_a", |b| {
        let model = ModelA::with_coefficients(FittingCoefficients::paper_case_study());
        b.iter(|| {
            ChipEngine::new()
                .evaluate(&hotspot, &model)
                .expect("solvable")
        });
    });

    group.finish();
}

criterion_group!(benches, bench_floorplan);
criterion_main!(benches);
