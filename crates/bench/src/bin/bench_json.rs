//! Machine-readable perf tracking: times the headline benchmarks and
//! writes their median wall-clock to a JSON file so future PRs can compare
//! against the recorded trajectory.
//!
//! Usage:
//! `cargo run --release -p ttsv-bench --bin bench_json [-- PATH [--check COMMITTED]]`
//! (default output: `BENCH_10.json` in the current directory). With
//! `--check COMMITTED`, the freshly measured medians are compared against
//! the committed recording and the process exits nonzero if any shared
//! row regressed more than 1.5× — the CI regression guard. See the
//! `ttsv-bench` crate docs for the bench → paper mapping.

use std::time::{Duration, Instant};

use ttsv::linalg::{MultigridPreconditioner, Preconditioner};
use ttsv::prelude::*;
use ttsv::validate::sweep::run_sweep;
use ttsv_bench::{block, gradient_floorplan, hotspot_floorplan, mg_box_matrix};

/// Wall-clock budget per benchmark (after the warm-up call).
const TIME_BUDGET: Duration = Duration::from_secs(2);
/// Target sample count per benchmark.
const TARGET_SAMPLES: usize = 15;
/// The `--check` regression gate: a shared row failing `fresh ≤ 1.5×
/// committed` fails CI.
const CHECK_HEADROOM_NUM: u128 = 3;
const CHECK_HEADROOM_DEN: u128 = 2;

/// PR-9 numbers for the carried-over workloads (the medians recorded in
/// the committed `BENCH_9.json`) — the baseline the PR-10 acceptance
/// criteria compare against. Every `serve/*` row recorded here was
/// measured on a server with persistence off, so they price exactly
/// what the write-ahead journal must not regress when it is disabled;
/// `serve/warm_delta_journaled` is new in PR 10 and has no earlier
/// baseline (its pin is same-run: < 2× `serve/warm_delta_response`).
const BASELINE_PR9_NS: &[(&str, u128)] = &[
    ("fig4_radius_sweep/fem_coarse", 676_613),
    ("fig4_radius_sweep/model_b_100", 77_122),
    ("table1_segments/B(500)", 64_986),
    ("table1_segments/B(1000)", 172_017),
    ("ablation_fem_precond/direct_banded/coarse", 96_795),
    ("mg_hierarchy/refresh_flat/box32k", 6_375_282),
    ("fem_mg_sweep/rebuild", 93_949_634),
    ("fem_mg_sweep/reuse", 73_632_158),
    ("floorplan_chip/hotspot32/model_b100", 122_667),
    ("floorplan_chip/gradient32/model_b100", 15_519_996),
    ("floorplan_chip/gradient32/factor_shared", 2_649_204),
    ("sweep_runner/fig4_quick", 832_982),
    ("serve/cold_session", 3_668_501),
    ("serve/warm_delta", 161_472),
    ("serve/warm_delta_response", 151_863),
    ("serve/sustained_32req", 4_749_031),
    ("serve/sustained_fanout", 6_250_026),
    ("serve/parked_request", 49_313),
];

struct Sampler {
    results: Vec<(String, u128, usize)>,
}

impl Sampler {
    fn bench<O>(&mut self, name: &str, f: impl FnMut() -> O) {
        self.bench_prepared(name, || {}, f);
    }

    /// Like [`Sampler::bench`], but runs `prepare` untimed before every
    /// sample — for rows whose setup (e.g. parking a connection past the
    /// event loops' spin window) must not pollute the measured latency.
    fn bench_prepared<O>(
        &mut self,
        name: &str,
        mut prepare: impl FnMut(),
        mut f: impl FnMut() -> O,
    ) {
        prepare();
        std::hint::black_box(f()); // warm-up
        let start = Instant::now();
        let mut samples = Vec::with_capacity(TARGET_SAMPLES);
        while samples.len() < TARGET_SAMPLES && start.elapsed() < TIME_BUDGET {
            prepare();
            let t = Instant::now();
            std::hint::black_box(f());
            samples.push(t.elapsed().as_nanos());
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        eprintln!(
            "{name:<50} median {median:>12} ns ({} samples)",
            samples.len()
        );
        self.results.push((name.to_string(), median, samples.len()));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"ttsv-bench-json/1\",\n  \"pr\": 10,\n");
        out.push_str(
            "  \"generated_by\": \"cargo run --release -p ttsv-bench --bin bench_json\",\n",
        );
        out.push_str("  \"benches\": {\n");
        for (i, (name, median, samples)) in self.results.iter().enumerate() {
            let comma = if i + 1 < self.results.len() { "," } else { "" };
            out.push_str(&format!(
                "    \"{name}\": {{\"median_ns\": {median}, \"samples\": {samples}}}{comma}\n"
            ));
        }
        out.push_str("  },\n  \"baseline_pr9_ns\": {\n");
        for (i, (name, ns)) in BASELINE_PR9_NS.iter().enumerate() {
            let comma = if i + 1 < BASELINE_PR9_NS.len() {
                ","
            } else {
                ""
            };
            out.push_str(&format!("    \"{name}\": {ns}{comma}\n"));
        }
        out.push_str("  }\n}\n");
        out
    }
}

/// Extracts `(key, median_ns)` pairs from a committed `bench_json` file's
/// `"benches"` section (same line-oriented shape the crate's schema test
/// parses — no JSON dependency offline).
fn committed_medians(json: &str) -> Vec<(String, u128)> {
    let Some(start) = json.find("\"benches\"") else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for line in json[start..].lines().skip(1) {
        let line = line.trim().trim_end_matches(',');
        if line.starts_with('}') {
            break;
        }
        let Some((key, rest)) = line.split_once(':') else {
            continue;
        };
        let Some(pos) = rest.find("\"median_ns\"") else {
            continue;
        };
        let digits: String = rest[pos..]
            .chars()
            .skip_while(|c| !c.is_ascii_digit())
            .take_while(char::is_ascii_digit)
            .collect();
        if let Ok(ns) = digits.parse() {
            out.push((key.trim().trim_matches('"').to_string(), ns));
        }
    }
    out
}

fn fig4_scenarios() -> Vec<Scenario> {
    [1.0, 3.0, 5.0, 8.0, 14.0, 20.0]
        .iter()
        .map(|&r| block(r, 0.5))
        .collect()
}

fn sweep_sum(model: &dyn ThermalModel, scenarios: &[Scenario]) -> f64 {
    scenarios
        .iter()
        .map(|s| model.max_delta_t(s).expect("solvable").as_kelvin())
        .sum()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_pos = args.iter().position(|a| a == "--check");
    let check_against = check_pos.and_then(|i| args.get(i + 1)).cloned();
    // The --check operand is not the output path — `--check BENCH_5.json`
    // alone must not clobber the committed recording it checks against.
    let path = args
        .iter()
        .enumerate()
        .find(|&(i, a)| !a.starts_with("--") && Some(i) != check_pos.map(|c| c + 1))
        .map(|(_, a)| a.clone())
        .unwrap_or_else(|| "BENCH_10.json".into());
    if check_against.as_deref() == Some(path.as_str()) {
        eprintln!("--check target and output path are the same file ({path}) — refusing");
        std::process::exit(2);
    }
    let mut sampler = Sampler {
        results: Vec::new(),
    };

    // fig4_radius_sweep: the 6-radius sweep per model, matching the
    // criterion bench of the same name.
    let scenarios = fig4_scenarios();
    let fem = FemReference::new().with_resolution(FemResolution::coarse());
    sampler.bench("fig4_radius_sweep/fem_coarse", || {
        sweep_sum(&fem, &scenarios)
    });
    let b100 = ModelB::paper_b100();
    sampler.bench("fig4_radius_sweep/model_b_100", || {
        sweep_sum(&b100, &scenarios)
    });

    // table1_segments: per-solve cost at deep segment counts.
    let table1 = block(5.0, 1.0);
    for (name, model) in [
        ("table1_segments/B(500)", ModelB::paper_b500()),
        ("table1_segments/B(1000)", ModelB::paper_b1000()),
    ] {
        sampler.bench(name, || model.max_delta_t(&table1).expect("solvable"));
    }

    // One axisymmetric solve (direct banded LU) at the coarse mesh; the
    // row keeps the name of the retired solver ablation so `--check`
    // still gates it against the committed recordings.
    let fem_problem = fem.build_problem(&scenarios[2]).expect("valid scenario");
    sampler.bench("ablation_fem_precond/direct_banded/coarse", || {
        fem_problem.solve().expect("solvable")
    });

    // Multigrid on the 32 k-cell Cartesian box: one smoothed-aggregation
    // hierarchy build (the per-solve setup cost) and one V-cycle — the
    // per-PCG-iteration cost.
    let a = mg_box_matrix();
    sampler.bench("mg_hierarchy/build_sa/box32k", || {
        MultigridPreconditioner::new(&a).expect("coarsens")
    });
    let n = 32 * 32 * 32;
    let r: Vec<f64> = (0..n).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut z = vec![0.0; n];
    let mg = MultigridPreconditioner::new(&a).expect("coarsens");
    sampler.bench("mg_vcycle/sa/box32k", || mg.apply(&r, &mut z));

    // A 3-point radius sweep on the 3-D Cartesian reference, where every
    // solve builds its own multigrid hierarchy. The row keeps its
    // "rebuild" name (a fresh reference per sweep) so `--check` still
    // gates it against the committed recordings.
    use ttsv::validate::fem_adapter::CartesianReference;
    let mg_points: Vec<Scenario> = [6.0, 9.0, 12.0].iter().map(|&r| block(r, 2.0)).collect();
    let cart = || {
        CartesianReference::new()
            .with_lateral_cells(16)
            .with_resolution(FemResolution::coarse())
    };
    sampler.bench("fem_mg_sweep/rebuild", || {
        let cold = cart();
        sweep_sum(&cold, &mg_points)
    });

    // The floorplan engine on the 32×32 §IV-E maps: the hotspot map
    // dedups 1024 tiles to 3 Model B solves; the all-distinct gradient
    // map prices the batch path itself, and
    // `factor_shared` prices the matrix-tier path (one ladder
    // factorization + 1024 four-lane back-substitutions). The factored
    // path's memo and matrix tier persist across calls, so every cold
    // row constructs a fresh engine per sample.
    let hotspot = hotspot_floorplan(32);
    let gradient = gradient_floorplan(32);
    sampler.bench("floorplan_chip/hotspot32/model_b100", || {
        ChipEngine::new()
            .evaluate(&hotspot, &b100)
            .expect("solvable")
    });
    sampler.bench("floorplan_chip/gradient32/model_b100", || {
        ChipEngine::new()
            .evaluate(&gradient, &b100)
            .expect("solvable")
    });
    sampler.bench("floorplan_chip/gradient32/factor_shared", || {
        ChipEngine::new()
            .evaluate_factored(&gradient, &b100)
            .expect("solvable")
    });
    // The serving stream's shape, as in the criterion row of the same
    // name: one engine and one all-distinct 24×24×3 plan, evaluated once;
    // every sample then sets two tiles of one plane to fresh watt values
    // and re-evaluates (two back-substitutions plus the memo scan).
    let b10_1000 = ModelB::with_segments(10, 1000);
    let mut warm_plan = gradient_floorplan(24);
    let warm_engine = ChipEngine::new().with_workers(1);
    warm_engine
        .evaluate_factored(&warm_plan, &b10_1000)
        .expect("solvable");
    let mut round = 0usize;
    sampler.bench(
        "floorplan_chip/warm_update_2tile/24x24/model_b_10_1000",
        || {
            round += 1;
            let plane = round % warm_plan.plane_count();
            let mut tiles = warm_plan.plane_maps()[plane].tiles().to_vec();
            let n = tiles.len();
            for tile in [round % n, (round * 7 + 1) % n] {
                tiles[tile] = Power::from_watts(0.05 + 1e-6 * round as f64);
            }
            warm_plan
                .update_power_map(plane, PowerMap::new(24, 24, tiles).expect("valid map"))
                .expect("same grid");
            warm_engine
                .evaluate_factored(&warm_plan, &b10_1000)
                .expect("solvable")
        },
    );

    // The bounded sweep runner end to end (fig4-quick shape: 4 models
    // including the FEM reference).
    let points: Vec<(f64, Scenario)> = [1.0, 3.0, 5.0, 8.0, 14.0, 20.0]
        .iter()
        .map(|&r| (r, block(r, 0.5)))
        .collect();
    let a = ModelA::with_coefficients(FittingCoefficients::paper_block());
    let one_d = OneDModel::new();
    sampler.bench("sweep_runner/fig4_quick", || {
        let models: Vec<&(dyn ThermalModel + Sync)> = vec![&a, &b100, &one_d, &fem];
        run_sweep(&points, &models).expect("sweep succeeds")
    });

    // Thermal-as-a-service end to end: one `ttsv-serve` process-local
    // server on an ephemeral loopback port, timed through a keep-alive
    // HTTP client. `cold_session` registers a never-seen chip
    // configuration per sample — distinct power maps AND a distinct via
    // density, so neither the memo nor the matrix tier helps (fresh
    // ladder factorization plus per-tile solves); `warm_delta` patches
    // two tiles of a live session with power levels cycling through five
    // values (the rest of the plan is answered from the session's memo),
    // answered with the full report (`?full=1`, the
    // PR-6 wire format, so the row stays comparable to its baseline);
    // `warm_delta_response` is the same update answered with the
    // default delta response (changed tiles + summary stats only);
    // `sustained_32req` prices a 32-request warm burst on one
    // connection (requests/sec ≈ 32e9 / median_ns); `sustained_fanout`
    // prices the same 32 updates arriving concurrently on 32 keep-alive
    // connections through the multiplexed event loops.
    {
        use ttsv::serve::client::{trace_power_body, Client};
        use ttsv::serve::protocol::render_register_body;
        use ttsv::serve::server::{Server, ServerConfig};
        const GRID: usize = 12;
        const FANOUT: usize = 32;
        // A never-seen chip configuration per id: per-session power scale
        // and via density (memo and matrix tier miss), solved with the
        // paper's deep B(1000) model — the same model warm deltas then
        // reuse, so the cold/warm gap prices the caching, not the model.
        let register_body = |session: usize| -> String {
            let tiles = (GRID * GRID) as f64;
            let scale = 1.0 + session as f64 * 0.01;
            let planes: Vec<Vec<f64>> = [70.0, 7.0, 7.0]
                .iter()
                .map(|&total| {
                    (0..GRID * GRID)
                        .map(|i| scale * (total / tiles) * (0.5 + i as f64 / tiles))
                        .collect()
                })
                .collect();
            let density = 0.004 + session as f64 * 1e-5;
            let body = render_register_body(GRID, GRID, &planes, density);
            format!("{},\"segments\":[10,1000]}}", &body[..body.len() - 1])
        };
        let config = ServerConfig::default()
            .with_workers(2)
            .with_max_sessions(128)
            .with_max_connections(2 * FANOUT)
            .with_queue_capacity(2 * FANOUT);
        let server = Server::start("127.0.0.1:0", config).expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        let mut session = 0usize;
        sampler.bench("serve/cold_session", || {
            session += 1;
            let (status, body) = client
                .request("POST", "/sessions", &register_body(session))
                .expect("register");
            assert_eq!(status, 201, "{body}");
            body
        });
        let (status, body) = client
            .request("POST", "/sessions", &register_body(session + 1))
            .expect("register");
        assert_eq!(status, 201, "{body}");
        let warm_id: u64 = body
            .strip_prefix("{\"session\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|id| id.parse().ok())
            .expect("session id in register response");
        let warm_session = session + 1;
        // `?full=1` keeps warm_delta and sustained_32req on the PR-6
        // wire format (full report per update) so their baselines still
        // price the same bytes; warm_delta_response drops the query to
        // measure the default delta response on the identical update.
        let full_path = format!("/sessions/{warm_id}/power?full=1");
        let delta_path = format!("/sessions/{warm_id}/power");
        let mut round = 0usize;
        let mut warm_post = |client: &mut Client, path: &str| {
            round += 1;
            let (status, body) = client
                .request("POST", path, &trace_power_body(GRID, warm_session, round))
                .expect("power update");
            assert_eq!(status, 200, "{body}");
            body
        };
        sampler.bench("serve/warm_delta", || warm_post(&mut client, &full_path));
        sampler.bench("serve/warm_delta_response", || {
            warm_post(&mut client, &delta_path)
        });
        sampler.bench("serve/sustained_32req", || {
            for _ in 0..31 {
                warm_post(&mut client, &full_path);
            }
            warm_post(&mut client, &full_path)
        });
        // 32 live sessions on 32 keep-alive connections; each sample
        // fires one delta per connection concurrently, so the row prices
        // the event loops' ability to overlap requests, not one socket's
        // round-trip pipeline.
        let mut fan: Vec<(u64, Client)> = (0..FANOUT)
            .map(|i| {
                let mut c = Client::connect(&addr).expect("connect fanout client");
                let (status, body) = c
                    .request("POST", "/sessions", &register_body(1000 + i))
                    .expect("register fanout session");
                assert_eq!(status, 201, "{body}");
                let id: u64 = body
                    .strip_prefix("{\"session\":")
                    .and_then(|rest| rest.split(',').next())
                    .and_then(|id| id.parse().ok())
                    .expect("session id in register response");
                (id, c)
            })
            .collect();
        let mut fan_round = 0usize;
        sampler.bench("serve/sustained_fanout", || {
            fan_round += 1;
            let round = fan_round;
            let mut last = String::new();
            std::thread::scope(|scope| {
                let handles: Vec<_> = fan
                    .iter_mut()
                    .enumerate()
                    .map(|(i, (id, client))| {
                        scope.spawn(move || {
                            let path = format!("/sessions/{id}/power");
                            let body = trace_power_body(GRID, 1000 + i, round);
                            let (status, body) =
                                client.request("POST", &path, &body).expect("fanout update");
                            assert_eq!(status, 200, "{body}");
                            body
                        })
                    })
                    .collect();
                for handle in handles {
                    last = handle.join().expect("fanout thread");
                }
            });
            last
        });

        // The idle-connection rows: park a keep-alive connection past the
        // event loops' 200 µs spin window (untimed, via bench_prepared),
        // then time one /healthz round-trip on it. The parked loop blocks
        // in poll(2) and the socket itself wakes it, so the row sits in
        // the microseconds rather than on a millisecond timer tick.
        let park = Duration::from_millis(1);
        let mut parked = Client::connect(&addr).expect("connect parked client");
        sampler.bench_prepared(
            "serve/parked_request",
            || std::thread::sleep(park),
            || {
                let (status, body) = parked.request("GET", "/healthz", "").expect("healthz");
                assert_eq!(status, 200, "{body}");
                body
            },
        );
        drop(parked);
        server.shutdown();

        // Durable sessions (PR 10): the same warm delta against a server
        // that journals every mutation to a write-ahead log under a
        // fresh temp state dir, at the default `interval:100` fsync
        // policy. The gap to `serve/warm_delta_response` prices the
        // journal append on the hot path; the crate's schema test pins
        // the journaled row to < 2× the unjournaled one same-run.
        use ttsv::serve::persist::PersistConfig;
        let state_dir =
            std::env::temp_dir().join(format!("ttsv-bench-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        let journaled_server = Server::start(
            "127.0.0.1:0",
            ServerConfig::default()
                .with_workers(2)
                .with_persist(PersistConfig::new(&state_dir)),
        )
        .expect("bind journaled server");
        let journaled_addr = journaled_server.addr().to_string();
        let mut journaled = Client::connect(&journaled_addr).expect("connect journaled client");
        let (status, body) = journaled
            .request("POST", "/sessions", &register_body(2000))
            .expect("register journaled session");
        assert_eq!(status, 201, "{body}");
        let journaled_id: u64 = body
            .strip_prefix("{\"session\":")
            .and_then(|rest| rest.split(',').next())
            .and_then(|id| id.parse().ok())
            .expect("session id in register response");
        let journaled_path = format!("/sessions/{journaled_id}/power");
        let mut journaled_round = 0usize;
        sampler.bench("serve/warm_delta_journaled", || {
            journaled_round += 1;
            let (status, body) = journaled
                .request(
                    "POST",
                    &journaled_path,
                    &trace_power_body(GRID, 2000, journaled_round),
                )
                .expect("journaled power update");
            assert_eq!(status, 200, "{body}");
            body
        });
        drop(journaled);
        journaled_server.shutdown();
        let _ = std::fs::remove_dir_all(&state_dir);
    }

    let json = sampler.to_json();
    std::fs::write(&path, &json).expect("write BENCH json");
    println!("wrote {path}");

    if let Some(committed_path) = check_against {
        let committed = std::fs::read_to_string(&committed_path)
            .unwrap_or_else(|e| panic!("read committed {committed_path}: {e}"));
        let committed = committed_medians(&committed);
        let mut regressions = Vec::new();
        for (name, fresh, _) in &sampler.results {
            if let Some((_, recorded)) = committed.iter().find(|(k, _)| k == name) {
                if *fresh * CHECK_HEADROOM_DEN > recorded * CHECK_HEADROOM_NUM {
                    regressions.push(format!(
                        "{name}: {fresh} ns vs committed {recorded} ns (> 1.5×)"
                    ));
                }
            }
        }
        if regressions.is_empty() {
            println!(
                "--check: no committed-baseline bench regressed past 1.5× of {committed_path}"
            );
        } else {
            eprintln!("--check FAILED against {committed_path}:");
            for r in &regressions {
                eprintln!("  {r}");
            }
            std::process::exit(1);
        }
    }
}
