//! Property tests for the floorplan engine: power conservation under the
//! tiling, bitwise agreement of both evaluation paths with a per-tile
//! oracle, worker-count determinism of the batch runner, and seeded
//! power-update sequences through the factored path's per-plan memo —
//! randomized over grid shapes, plane counts, quantized power levels,
//! and via densities.

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use ttsv_chip::{ChipEngine, ChipReport, Floorplan, PowerMap, ViaDensityMap};
use ttsv_core::full_chip::CaseStudy;
use ttsv_core::model_a::ModelA;
use ttsv_core::prelude::*;

/// A randomized floorplan description. Powers and densities are drawn
/// from small quantized level sets so the dedup has duplicates to
/// find (continuous draws would make every tile distinct).
#[derive(Debug, Clone)]
struct PlanParams {
    nx: usize,
    ny: usize,
    planes: usize,
    /// Per plane, per tile: index into `POWER_LEVELS` (`planes * nx * ny`).
    power_levels: Vec<usize>,
    /// Per tile: index into `DENSITY_LEVELS` (`nx * ny`).
    density_levels: Vec<usize>,
}

const POWER_LEVELS: [f64; 4] = [0.0, 0.05, 0.4, 1.6];
const DENSITY_LEVELS: [f64; 3] = [0.003, 0.005, 0.01];

fn plan_params() -> impl Strategy<Value = PlanParams> {
    (1usize..5, 1usize..5, 2usize..5).prop_flat_map(|(nx, ny, planes)| {
        (
            proptest::collection::vec(0usize..POWER_LEVELS.len(), planes * nx * ny),
            proptest::collection::vec(0usize..DENSITY_LEVELS.len(), nx * ny),
        )
            .prop_map(move |(power_levels, density_levels)| PlanParams {
                nx,
                ny,
                planes,
                power_levels,
                density_levels,
            })
    })
}

fn build(p: &PlanParams) -> Floorplan {
    let case = CaseStudy::paper();
    let tiles = p.nx * p.ny;
    let maps = (0..p.planes)
        .map(|j| {
            PowerMap::new(
                p.nx,
                p.ny,
                (0..tiles)
                    .map(|t| Power::from_watts(POWER_LEVELS[p.power_levels[j * tiles + t]]))
                    .collect(),
            )
            .expect("levels are finite and non-negative")
        })
        .collect();
    let via = ViaDensityMap::new(
        p.nx,
        p.ny,
        p.density_levels
            .iter()
            .map(|&i| DENSITY_LEVELS[i])
            .collect(),
    )
    .expect("levels are in (0, 1)");
    Floorplan::new(&case, maps, via).expect("strategy produces valid floorplans")
}

fn model() -> ModelA {
    ModelA::with_coefficients(CaseStudy::paper_fitting())
}

/// The oracle the engine is checked against: every tile's unit cell
/// solved on its own, with no dedup and no cache, in row-major order.
fn per_tile(plan: &Floorplan, model: &dyn ThermalModel) -> Vec<f64> {
    let mut out = Vec::with_capacity(plan.tiles());
    for iy in 0..plan.ny() {
        for ix in 0..plan.nx() {
            let scenario = plan.tile_cell(ix, iy).expect("valid tile").scenario;
            out.push(model.max_delta_t(&scenario).expect("solvable").as_kelvin());
        }
    }
    out
}

/// SplitMix64: the update sequences' generator (the strategy draws only
/// its seed).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Evaluations per update sequence (the first one cold).
const STEPS: usize = 12;

/// The power of an edited tile: usually one of the quantized levels, so
/// edits land on cells the plan may already hold, and
/// otherwise a fresh value no earlier step produced.
fn edit_power(rng: &mut Rng) -> Power {
    if rng.below(4) == 0 {
        Power::from_watts(2.0 + rng.below(1 << 20) as f64 * 1e-6)
    } else {
        Power::from_watts(POWER_LEVELS[rng.below(POWER_LEVELS.len())])
    }
}

/// Applies one random update step the way the serving loop does, one
/// whole plane map at a time through `update_power_map`: a sparse 1–3
/// tile edit, a whole-plane replacement, a no-op (every plane re-set to
/// itself), a tile reverted to its cell at an earlier step (`history`
/// holds every earlier step's maps), or a tile set to another tile's
/// cell.
fn random_step(plan: &mut Floorplan, history: &[Vec<PowerMap>], rng: &mut Rng) {
    let (nx, ny, tiles) = (plan.nx(), plan.ny(), plan.tiles());
    let mut maps: Vec<Vec<Power>> = plan
        .plane_maps()
        .iter()
        .map(|m| m.tiles().to_vec())
        .collect();
    let plane = rng.below(maps.len());
    match rng.below(5) {
        0 => {
            for _ in 0..1 + rng.below(3) {
                maps[plane][rng.below(tiles)] = edit_power(rng);
            }
        }
        1 => {
            for power in &mut maps[plane] {
                *power = edit_power(rng);
            }
        }
        2 => {}
        3 => {
            let earlier = &history[rng.below(history.len())];
            let t = rng.below(tiles);
            for (map, old) in maps.iter_mut().zip(earlier) {
                map[t] = old.tiles()[t];
            }
        }
        _ => {
            let (from, to) = (rng.below(tiles), rng.below(tiles));
            for map in &mut maps {
                map[to] = map[from];
            }
        }
    }
    for (j, tiles) in maps.into_iter().enumerate() {
        let map = PowerMap::new(nx, ny, tiles).expect("edits are finite and non-negative");
        plan.update_power_map(j, map).expect("same grid");
    }
}

/// The plan's distinct cells, as raw bits (density, then per-plane
/// powers), computed independently of the engine.
fn cell_set(plan: &Floorplan) -> HashSet<Vec<u64>> {
    (0..plan.tiles())
        .map(|t| {
            let mut bits = vec![plan.via_map().tiles()[t].to_bits()];
            bits.extend(
                plan.plane_maps()
                    .iter()
                    .map(|m| m.tiles()[t].as_watts().to_bits()),
            );
            bits
        })
        .collect()
}

/// Checks a report from a long-lived engine against a fresh engine's
/// evaluation of the same plan and the per-tile oracle, bitwise: every
/// tile, the statistics, the hottest tile, the counts and the JSON.
fn check_against_fresh(
    report: &ChipReport,
    plan: &Floorplan,
    model: &ModelB,
) -> Result<(), TestCaseError> {
    let fresh = ChipEngine::new()
        .evaluate_factored(plan, model)
        .expect("solvable");
    let oracle = per_tile(plan, model);
    let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
    prop_assert_eq!(bits(&report.delta_t), bits(&oracle));
    prop_assert_eq!(bits(&report.delta_t), bits(&fresh.delta_t));
    for (got, want) in [
        (report.max_delta_t, fresh.max_delta_t),
        (report.mean_delta_t, fresh.mean_delta_t),
        (report.p99_delta_t, fresh.p99_delta_t),
        (report.total_vias, fresh.total_vias),
    ] {
        prop_assert_eq!(got.to_bits(), want.to_bits());
    }
    prop_assert_eq!(
        (report.argmax_ix, report.argmax_iy),
        (fresh.argmax_ix, fresh.argmax_iy)
    );
    prop_assert_eq!(report.distinct_cells, fresh.distinct_cells);
    prop_assert_eq!(report.distinct_cells, cell_set(plan).len());
    prop_assert_eq!(report.to_json(), fresh.to_json());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tiling conserves power: per plane, the per-cell powers summed
    /// over every cell of every tile reproduce the plane total to 1e-9
    /// relative.
    #[test]
    fn tiling_conserves_plane_power(p in plan_params()) {
        let plan = build(&p);
        let totals = plan.plane_totals();
        let mut recovered = vec![0.0f64; plan.plane_count()];
        for iy in 0..plan.ny() {
            for ix in 0..plan.nx() {
                let tile = plan.tile_cell(ix, iy).expect("valid tile");
                for (j, cell_power) in tile.scenario.plane_powers().iter().enumerate() {
                    recovered[j] += cell_power.as_watts() * tile.cells;
                }
            }
        }
        for (j, (got, want)) in recovered.iter().zip(&totals).enumerate() {
            let want = want.as_watts();
            let tolerance = 1e-9 * want.max(1e-12);
            prop_assert!(
                (got - want).abs() <= tolerance,
                "plane {j}: recovered {got} vs map total {want}"
            );
        }
    }

    /// Dedup and the factored path's caches are transparent: `evaluate` (Model A)
    /// and `evaluate_factored` (Model B(20)) reproduce the per-tile oracle
    /// bit for bit — every tile, the hottest value and its tile — and
    /// never solve more distinct cells than there are tiles.
    #[test]
    fn engine_matches_per_tile_oracle(p in plan_params()) {
        let plan = build(&p);
        let (model_a, model_b) = (model(), ModelB::paper_b20());
        let reports = [
            (ChipEngine::new().evaluate(&plan, &model_a), per_tile(&plan, &model_a)),
            (ChipEngine::new().evaluate_factored(&plan, &model_b), per_tile(&plan, &model_b)),
        ];
        for (report, oracle) in reports {
            let report = report.expect("solvable");
            let bits = |v: &[f64]| v.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&report.delta_t), bits(&oracle));
            // The hottest tile: first maximum in row-major order.
            let (argmax, max) = oracle
                .iter()
                .enumerate()
                .fold((0, f64::NEG_INFINITY), |best, (i, &t)| if t > best.1 { (i, t) } else { best });
            prop_assert_eq!(report.max_delta_t.to_bits(), max.to_bits());
            prop_assert_eq!(
                (report.argmax_ix, report.argmax_iy),
                (argmax % plan.nx(), argmax / plan.nx())
            );
            prop_assert!(report.distinct_cells <= plan.tiles());
        }
    }

    /// The factor-once batched path is equivalent to per-tile solves:
    /// one factorization per distinct via density, one back-substitution
    /// per distinct power vector — and the resulting map matches the
    /// assemble-factorize-solve-per-tile path bitwise (so trivially
    /// within the 1e-15 relative bound the serving contract promises).
    #[test]
    fn factored_batch_matches_per_tile_solves(p in plan_params()) {
        let plan = build(&p);
        let model = ModelB::paper_b20();
        let per_tile = per_tile(&plan, &model);
        let engine = ChipEngine::new();
        let factored = engine.evaluate_factored(&plan, &model).expect("solvable");
        prop_assert_eq!(factored.delta_t.len(), per_tile.len());
        for (ft, pt) in factored.delta_t.iter().zip(&per_tile) {
            prop_assert!(
                ft.to_bits() == pt.to_bits(),
                "factored {ft} vs per-tile {pt}"
            );
            let rel = (ft - pt).abs() / pt.abs().max(f64::MIN_POSITIVE);
            prop_assert!(rel <= 1e-15);
        }
        // Factorizations are bounded by distinct densities, solves by
        // distinct cells.
        let distinct_densities = {
            let mut d: Vec<u64> = plan.via_map().tiles().iter().map(|v| v.to_bits()).collect();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        prop_assert_eq!(engine.factorizations(), distinct_densities);
        prop_assert_eq!(engine.solves(), factored.distinct_cells);
        // And a repeat evaluation is served entirely from the plan's memo.
        let again = engine.evaluate_factored(&plan, &model).expect("solvable");
        prop_assert_eq!(engine.solves(), factored.distinct_cells);
        prop_assert_eq!(&again.delta_t, &factored.delta_t);
    }

    /// The batch runner is deterministic in the worker count: 1, 2, and
    /// `available_parallelism()` workers produce bitwise-equal maps
    /// (mirrors the sweep-runner determinism test).
    #[test]
    fn worker_count_does_not_change_the_map(p in plan_params()) {
        let plan = build(&p);
        let model = model();
        let serial = ChipEngine::new()
            .with_workers(1)
            .evaluate(&plan, &model)
            .expect("solvable");
        let two = ChipEngine::new()
            .with_workers(2)
            .evaluate(&plan, &model)
            .expect("solvable");
        let pooled = ChipEngine::new().evaluate(&plan, &model).expect("solvable");
        prop_assert_eq!(&serial.delta_t, &two.delta_t);
        prop_assert_eq!(&serial.delta_t, &pooled.delta_t);
        prop_assert_eq!(serial.distinct_cells, pooled.distinct_cells);
    }

    /// The per-plan memo is transparent over update sequences: after
    /// every step of a seeded sequence on one plan and one engine,
    /// `evaluate_factored` matches a fresh engine and the per-tile oracle
    /// bitwise, and solves exactly the new distinct cells the previous
    /// step's plan did not hold. Two engine configurations: the default
    /// caps, and a memo cap of 1 tile with a matrix cap of 1 (every
    /// evaluation of a multi-tile plan starts cold, every factorization
    /// evicts the last), where only the cost may change.
    #[test]
    fn update_sequences_match_fresh_evaluation(p in plan_params(), seed in 0u64..u64::MAX) {
        let model = ModelB::paper_b20();
        let tiny = ChipEngine::new().with_scenario_cache_cap(1).with_matrix_cache_cap(1);
        // Each engine with whether it keeps this plan's memo.
        for (engine, memoized) in [(ChipEngine::new(), true), (tiny, p.nx * p.ny == 1)] {
            let mut plan = build(&p);
            let mut rng = Rng(seed);
            let mut history: Vec<Vec<PowerMap>> = Vec::new();
            let mut previous: HashSet<Vec<u64>> = HashSet::new();
            for step in 0..STEPS {
                if step > 0 {
                    random_step(&mut plan, &history, &mut rng);
                }
                history.push(plan.plane_maps().to_vec());
                let cells = cell_set(&plan);
                let solves = engine.solves();
                let report = engine.evaluate_factored(&plan, &model).expect("solvable");
                prop_assert_eq!(engine.solves() - solves, cells.difference(&previous).count());
                if memoized {
                    previous = cells;
                }
                check_against_fresh(&report, &plan, &model)?;
            }
        }
    }

    /// Two plans of one lineage (the second a clone of the first with its
    /// power maps replaced) share one memo slot: alternating their update
    /// sequences on one engine, each evaluation still matches a fresh
    /// engine bitwise — at the default caps, at a cap of one plan's tiles
    /// (the memos evicting), and at a cap of 1 (nothing memoized).
    #[test]
    fn alternating_plans_sharing_a_memo_key_stay_bitwise(
        p in plan_params(),
        seed in 0u64..u64::MAX,
    ) {
        let model = ModelB::paper_b20();
        let second = PlanParams {
            power_levels: p.power_levels.iter().map(|l| (l + 1) % POWER_LEVELS.len()).collect(),
            ..p.clone()
        };
        for cap in [None, Some(p.nx * p.ny), Some(1)] {
            let engine = match cap {
                Some(cap) => ChipEngine::new().with_scenario_cache_cap(cap),
                None => ChipEngine::new(),
            };
            let first = build(&p);
            let mut clone = first.clone();
            for (j, map) in build(&second).plane_maps().iter().enumerate() {
                clone.update_power_map(j, map.clone()).expect("same grid");
            }
            let mut plans = [first, clone];
            let mut rngs = [Rng(seed), Rng(seed ^ 0x5555_5555_5555_5555)];
            let mut histories: [Vec<Vec<PowerMap>>; 2] = [Vec::new(), Vec::new()];
            for step in 0..STEPS {
                for k in 0..2 {
                    if step > 0 {
                        random_step(&mut plans[k], &histories[k], &mut rngs[k]);
                    }
                    histories[k].push(plans[k].plane_maps().to_vec());
                    let report = engine.evaluate_factored(&plans[k], &model).expect("solvable");
                    check_against_fresh(&report, &plans[k], &model)?;
                }
            }
        }
    }
}

/// Two independently built plans with the same geometry and via map keep
/// their own memos: alternating 2-tile updates on one engine whose memo
/// cap holds both plans, every evaluation solves exactly its changed
/// tiles' new cells and matches a fresh engine bitwise.
#[test]
fn independent_plans_with_one_via_map_keep_their_own_memos() {
    let (nx, ny) = (4, 4);
    let tiles = nx * ny;
    let build_plan = |scale: f64| {
        let maps = (0..3)
            .map(|j| {
                PowerMap::from_fn(nx, ny, |ix, iy| {
                    Power::from_watts(scale * 0.01 * (1 + j + iy * nx + ix) as f64)
                })
                .expect("finite, non-negative powers")
            })
            .collect();
        let via = ViaDensityMap::uniform(nx, ny, 0.005).expect("density in (0, 1)");
        Floorplan::new(&CaseStudy::paper(), maps, via).expect("valid floorplan")
    };
    let model = ModelB::paper_b20();
    let engine = ChipEngine::new().with_scenario_cache_cap(2 * tiles);
    let mut plans = [build_plan(1.0), build_plan(2.0)];
    for plan in &plans {
        let solves = engine.solves();
        let report = engine.evaluate_factored(plan, &model).expect("solvable");
        assert_eq!(engine.solves() - solves, tiles, "every tile is distinct");
        check_against_fresh(&report, plan, &model).expect("bitwise");
    }
    for step in 1..=STEPS {
        for (k, plan) in plans.iter_mut().enumerate() {
            // Two distinct tiles (5s ≢ 11s + 1 mod 16) set to watt values
            // no earlier step used.
            let plane = step % 3;
            let mut map = plan.plane_maps()[plane].tiles().to_vec();
            for t in [(5 * step) % tiles, (11 * step + 1) % tiles] {
                let fresh = 3.0 + 1e-3 * (2 * step + k) as f64 + 1e-6 * t as f64;
                map[t] = Power::from_watts(fresh);
            }
            let map = PowerMap::new(nx, ny, map).expect("finite, non-negative powers");
            plan.update_power_map(plane, map).expect("same grid");
            let solves = engine.solves();
            let report = engine.evaluate_factored(plan, &model).expect("solvable");
            assert_eq!(engine.solves() - solves, 2, "step {step}, plan {k}");
            check_against_fresh(&report, plan, &model).expect("bitwise");
        }
    }
    assert_eq!(engine.evictions(), 0);
}
