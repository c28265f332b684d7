//! The traced run (`--trace 1`): per-layer metrics for all three
//! workloads, each named after the workload it is measured on.
//!
//! For a serving workload the run first measures it untraced against
//! `serve` (end-to-end median, `/metrics` counters over the timed
//! window), then replays the same seeded inputs in-process through the
//! same public calls in serving order, with a fresh engine and journal,
//! once traced and once untraced (the difference is the tracing
//! overhead). Layer kernels that the engine calls internally
//! (`ModelB::factorize`, `ModelBFactorization::max_delta_t`,
//! `FemReference::solve`) are timed directly on the workload's own
//! inputs, outside the request spans.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ttsv_chip::ChipReport;
use ttsv_core::full_chip::CaseStudy;
use ttsv_core::model_b::ModelB;
use ttsv_serve::http::RequestParser;
use ttsv_serve::metrics::PersistStats;
use ttsv_serve::persist::{Journal, PersistConfig};
use ttsv_serve::protocol::{self, SessionSpec};
use ttsv_validate::experiments::block_training_scenarios;
use ttsv_validate::fem_adapter::FemReference;

use crate::delta_stream::{self, server_engine, wire};
use crate::gen::{self, ChurnOp, ChurnStream, UpdateStream};
use crate::serve_proc::scratch_dir;
use crate::stats::{mean, median, percentile};
use crate::trace::{reconcile, Tracer};
use crate::{paper_repro, session_churn, Report};

/// Every per-layer metric: name and unit. `BENCHMARK.json` lists the
/// same names; the README maps each to the end-to-end metric and
/// workload it should move.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("delta_stream.http.parse_us", "us"),
    ("delta_stream.server.transport_us", "us"),
    ("delta_stream.server.poll_wakeups_per_req", "count"),
    ("delta_stream.server.spurious_wakeups", "count"),
    ("delta_stream.protocol.parse_update_us", "us"),
    ("delta_stream.protocol.render_delta_us", "us"),
    ("delta_stream.protocol.response_bytes", "bytes"),
    ("delta_stream.persist.append_us", "us"),
    ("delta_stream.persist.compactions", "count"),
    ("delta_stream.persist.compact_ms", "ms"),
    ("delta_stream.persist.records_written", "count"),
    ("delta_stream.persist.bytes_per_op", "bytes"),
    ("delta_stream.engine.evaluate_us", "us"),
    ("delta_stream.engine.scenario_hit_ratio", "ratio"),
    ("delta_stream.engine.solves_per_op", "count"),
    ("delta_stream.engine.evictions", "count"),
    ("delta_stream.floorplan.update_us", "us"),
    ("delta_stream.model_b.backsub_us", "us"),
    ("delta_stream.trace.stage_sum_us", "us"),
    ("delta_stream.trace.reconcile_error_pct", "%"),
    ("delta_stream.trace.overhead_pct", "%"),
    ("session_churn.http.parse_us", "us"),
    ("session_churn.server.shed_503", "count"),
    ("session_churn.server.rate_limited_429", "count"),
    ("session_churn.server.timeouts_408", "count"),
    ("session_churn.protocol.parse_update_us", "us"),
    ("session_churn.protocol.parse_register_us", "us"),
    ("session_churn.protocol.render_full_us", "us"),
    ("session_churn.lru.hits", "count"),
    ("session_churn.lru.misses", "count"),
    ("session_churn.lru.evictions", "count"),
    ("session_churn.persist.append_us", "us"),
    ("session_churn.persist.replay_ms", "ms"),
    ("session_churn.persist.records_replayed", "count"),
    ("session_churn.persist.write_errors", "count"),
    ("session_churn.engine.evaluate_cold_ms", "ms"),
    ("session_churn.engine.factorizations", "count"),
    ("session_churn.model_b.factorize_us", "us"),
    ("session_churn.model_b.backsub_us", "us"),
    ("session_churn.gen.lag_ms", "ms"),
    ("session_churn.trace.overhead_pct", "%"),
    ("paper_repro.experiments.fig4_ms", "ms"),
    ("paper_repro.experiments.fig5_ms", "ms"),
    ("paper_repro.experiments.table1_ms", "ms"),
    ("paper_repro.experiments.fig6_ms", "ms"),
    ("paper_repro.experiments.fig7_ms", "ms"),
    ("paper_repro.experiments.case_study_ms", "ms"),
    ("paper_repro.experiments.calibration_ms", "ms"),
    ("paper_repro.experiments.sensitivity_ms", "ms"),
    ("paper_repro.experiments.nplanes_ms", "ms"),
    ("paper_repro.fem.solve_ms", "ms"),
    ("paper_repro.fem.pcg_iterations", "count"),
    ("paper_repro.fem.multigrid_builds", "count"),
    ("paper_repro.trace.overhead_pct", "%"),
];

/// Shares of `--seconds` given to each phase of the traced run (each
/// replay share is spent four times: traced, untraced, untraced, traced).
const STREAM_E2E: f64 = 0.30;
const STREAM_REPLAY: f64 = 0.05;
const CHURN_E2E: f64 = 0.30;
const CHURN_REPLAY: f64 = 0.04;
const REPRO: f64 = 0.10;
/// Replays cross at least two journal compactions (one per ~1k records).
const MIN_STREAM_REPLAY_OPS: usize = 2_200;

fn emit(report: &mut Report, name: &str, value: f64, samples: usize, stat: &str) {
    let unit = PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("{name} is not a per-layer metric"), |(_, u)| *u);
    report.metric(name, value, unit, samples, stat);
}

/// Mean self time per span of `layer`, in µs, and the span count.
fn self_us(tracer: &Tracer, layer: &str) -> (f64, usize) {
    tracer
        .self_times()
        .get(layer)
        .map_or((0.0, 0), |&(ns, n)| (ns as f64 / 1e3 / n.max(1) as f64, n))
}

fn overhead_pct(traced_s: f64, untraced_s: f64) -> f64 {
    (traced_s - untraced_s) / untraced_s * 100.0
}

/// Runs `replay` traced (timed by `budget`, the span source), then on
/// the same number of operations untraced, untraced and traced again
/// (ABBA, so drift cancels). Returns the first traced replay and the
/// tracing overhead in percent of the untraced wall time.
fn replay_abba<R>(
    replay: impl Fn(Option<usize>, Tracer) -> Result<R, String>,
    ops: impl Fn(&R) -> usize,
    wall_s: impl Fn(&R) -> f64,
) -> Result<(R, f64), String> {
    let first = replay(None, Tracer::on())?;
    let n = Some(ops(&first));
    let untraced = wall_s(&replay(n, Tracer::off())?) + wall_s(&replay(n, Tracer::off())?);
    let traced = wall_s(&first) + wall_s(&replay(n, Tracer::on())?);
    Ok((first, overhead_pct(traced, untraced)))
}

/// A fresh journal in its own scratch directory, as `serve --state-dir`
/// opens it with default settings.
fn fresh_journal(name: &str) -> Result<(Journal, Arc<PersistStats>), String> {
    let stats = Arc::new(PersistStats::default());
    let (journal, _) = Journal::open(PersistConfig::new(scratch_dir(name)), stats.clone())
        .map_err(|e| format!("open journal: {e}"))?;
    Ok((journal, stats))
}

struct StreamReplay {
    tracer: Tracer,
    ops: usize,
    wall_s: f64,
    /// Durations (ms) of the appends that triggered a compaction.
    compact_ms: Vec<f64>,
    response_bytes: usize,
    plan_spec: SessionSpec,
}

/// Replays the `delta_stream` inputs in serving order (the two
/// connections alternate) until `ops` requests or `budget` have passed.
fn replay_stream(
    seed: u64,
    ops: Option<usize>,
    budget: Duration,
    mut tracer: Tracer,
) -> Result<StreamReplay, String> {
    let engine = server_engine();
    let (journal, stats) = fresh_journal("replay-stream")?;
    let mut sessions = Vec::new();
    for c in 0..delta_stream::CONNECTIONS {
        let body = gen::stream_register(seed, c);
        let spec = protocol::parse_register(body.as_bytes()).map_err(|e| e.0)?;
        let report = engine
            .evaluate_factored(&spec.plan, &spec.model)
            .map_err(|e| e.to_string())?;
        let id = c as u64 + 1;
        journal.record_register(id, body.as_bytes());
        sessions.push((
            id,
            spec,
            report,
            RequestParser::new(),
            UpdateStream::new(seed, c),
        ));
    }
    let mut compact_ms = Vec::new();
    let mut response_bytes = 0;
    let t0 = Instant::now();
    let mut i = 0;
    while ops.map_or(t0.elapsed() < budget || i < MIN_STREAM_REPLAY_OPS, |n| {
        i < n
    }) {
        let (id, spec, last, parser, stream) = &mut sessions[i % delta_stream::CONNECTIONS];
        let bytes = wire(
            "POST",
            &format!("/sessions/{id}/power"),
            &stream.next().expect("endless"),
        );
        let req_id = i as u64;
        let root = tracer.open(req_id, "request", None);
        let request = tracer
            .leaf(req_id, "http.parse", root, || {
                parser.feed(&bytes);
                parser.next_request()
            })
            .map_err(|e| format!("http parse: {e:?}"))?
            .ok_or("http parse: incomplete request")?;
        let (plane, map) = tracer
            .leaf(req_id, "protocol.parse_update", root, || {
                protocol::parse_power_update(&request.body, &spec.plan)
            })
            .map_err(|e| e.0)?;
        tracer
            .leaf(req_id, "floorplan.update", root, || {
                spec.plan.update_power_map(plane, map)
            })
            .map_err(|e| e.to_string())?;
        let report = tracer
            .leaf(req_id, "engine.evaluate", root, || {
                engine.evaluate_factored(&spec.plan, &spec.model)
            })
            .map_err(|e| e.to_string())?;
        let compactions = stats.snapshot().compactions;
        let t = Instant::now();
        tracer.leaf(req_id, "persist.append", root, || {
            journal.record_update(*id, plane, &request.body)
        });
        if stats.snapshot().compactions > compactions {
            compact_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let delta = tracer.leaf(req_id, "protocol.render_delta", root, || {
            protocol::render_delta(last, &report)
        });
        tracer.close(root);
        response_bytes += delta.len();
        *last = report;
        i += 1;
    }
    let wall_s = t0.elapsed().as_secs_f64();
    if stats.snapshot().write_errors > 0 {
        return Err("replay journal reported write errors".into());
    }
    let (_, plan_spec, ..) = sessions.swap_remove(0);
    Ok(StreamReplay {
        tracer,
        ops: i,
        wall_s,
        compact_ms,
        response_bytes,
        plan_spec,
    })
}

/// Times `ModelBFactorization::max_delta_t` on every tile of a session
/// (µs per call), factorising its tile (0, 0) geometry first.
fn backsub_probe(spec: &SessionSpec) -> Result<(f64, f64, usize), String> {
    let plan = &spec.plan;
    let scenario = plan.tile_cell(0, 0).map_err(|e| e.to_string())?.scenario;
    let model = ModelB::with_segments(10, 1000);
    let t = Instant::now();
    let factors = model.factorize(&scenario).map_err(|e| e.to_string())?;
    let factorize_us = t.elapsed().as_secs_f64() * 1e6;
    let (nx, ny) = (plan.nx(), plan.ny());
    let t = Instant::now();
    for iy in 0..ny {
        for ix in 0..nx {
            let powers = plan.tile_cell_powers(ix, iy);
            std::hint::black_box(factors.max_delta_t(&powers).map_err(|e| e.to_string())?);
        }
    }
    let backsub_us = t.elapsed().as_secs_f64() * 1e6 / (nx * ny) as f64;
    Ok((factorize_us, backsub_us, nx * ny))
}

fn stream_layers(
    serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let run = delta_stream::run(serve_bin, seed, seconds * STREAM_E2E)?;
    let updates = run.latencies_us.len();
    let e2e_us = median(&run.latencies_us);
    let budget = Duration::from_secs_f64(seconds * STREAM_REPLAY);
    let (traced, overhead) = replay_abba(
        |n, t| replay_stream(seed, n, budget, t),
        |r| r.ops,
        |r| r.wall_s,
    )?;
    let t = &traced.tracer;
    let mut errors = run.errors;
    let p = "delta_stream.";
    for (layer, name) in [
        ("http.parse", "http.parse_us"),
        ("protocol.parse_update", "protocol.parse_update_us"),
        ("protocol.render_delta", "protocol.render_delta_us"),
        ("persist.append", "persist.append_us"),
        ("engine.evaluate", "engine.evaluate_us"),
        ("floorplan.update", "floorplan.update_us"),
    ] {
        let (us, n) = self_us(t, layer);
        emit(
            report,
            &format!("{p}{name}"),
            us,
            n,
            "mean self time per request, traced replay",
        );
    }
    let r = reconcile(t, e2e_us);
    if let Err(e) = r.check() {
        errors.push(e);
    }
    emit(
        report,
        "delta_stream.server.transport_us",
        r.transport_us,
        updates,
        "e2e p50 minus mean traced request",
    );
    emit(
        report,
        "delta_stream.trace.stage_sum_us",
        r.stage_sum_us,
        traced.ops,
        "sum of layer mean self times",
    );
    emit(
        report,
        "delta_stream.trace.reconcile_error_pct",
        r.error_pct,
        traced.ops,
        "|layers + transport - e2e| / e2e",
    );
    emit(
        report,
        "delta_stream.trace.overhead_pct",
        overhead,
        traced.ops,
        "traced vs untraced replay wall time, ABBA",
    );
    emit(
        report,
        "delta_stream.protocol.response_bytes",
        traced.response_bytes as f64 / traced.ops as f64,
        traced.ops,
        "mean delta body bytes",
    );
    emit(
        report,
        "delta_stream.persist.compact_ms",
        mean(&traced.compact_ms),
        traced.compact_ms.len(),
        "mean append that triggered a compaction",
    );
    let (_, backsub_us, calls) = backsub_probe(&traced.plan_spec)?;
    emit(
        report,
        "delta_stream.model_b.backsub_us",
        backsub_us,
        calls,
        "mean max_delta_t call",
    );

    let (b, a) = (&run.before, &run.after);
    let n = updates.max(1) as f64;
    let hits = b.delta(a, "engine.scenario_hits");
    let misses = b.delta(a, "engine.scenario_misses");
    let records = b.delta(a, "persistence.records_written");
    emit(
        report,
        "delta_stream.server.poll_wakeups_per_req",
        b.delta(a, "readiness.poll_wakeups") / n,
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.server.spurious_wakeups",
        b.delta(a, "readiness.spurious_wakeups"),
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.engine.scenario_hit_ratio",
        hits / (hits + misses),
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.engine.solves_per_op",
        b.delta(a, "engine.solves") / n,
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.engine.evictions",
        b.delta(a, "engine.evictions"),
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.persist.compactions",
        b.delta(a, "persistence.compactions"),
        updates,
        "/metrics over the timed window",
    );
    emit(
        report,
        "delta_stream.persist.records_written",
        records / n,
        updates,
        "/metrics records per update over the timed window",
    );
    emit(
        report,
        "delta_stream.persist.bytes_per_op",
        b.delta(a, "persistence.bytes_written") / records,
        updates,
        "/metrics over the timed window",
    );
    t.write(&Path::new(".bench_run").join(format!("spans-delta_stream-seed{seed}.jsonl")))
        .map_err(|e| format!("write spans: {e}"))?;
    report.count(run.attempted + traced.ops as u64, run.failed, errors);
    Ok(())
}

struct ChurnReplay {
    tracer: Tracer,
    ops: usize,
    wall_s: f64,
    /// Every registered session's spec, for the kernel probes.
    registered: Vec<SessionSpec>,
}

/// Replays the `session_churn` inputs in serving order until `ops`
/// operations or `budget` have passed. Sessions past the 64-session
/// quota are evicted oldest first, journaling a tombstone like `serve`.
fn replay_churn(
    seed: u64,
    ops: Option<usize>,
    budget: Duration,
    mut tracer: Tracer,
) -> Result<ChurnReplay, String> {
    const QUOTA: usize = 64;
    let engine = server_engine();
    let (journal, _) = fresh_journal("replay-churn")?;
    let mut streams: Vec<(ChurnStream, RequestParser, Option<u64>)> = (0
        ..session_churn::CONNECTIONS)
        .map(|c| (ChurnStream::new(seed, c), RequestParser::new(), None))
        .collect();
    let mut sessions: HashMap<u64, (SessionSpec, ChipReport)> = HashMap::new();
    let mut live: VecDeque<u64> = VecDeque::new();
    let mut next_id = 1;
    let mut registered = Vec::new();
    let t0 = Instant::now();
    let mut i = 0;
    while ops.map_or(t0.elapsed() < budget, |n| i < n) {
        let (stream, parser, current) = &mut streams[i % session_churn::CONNECTIONS];
        let op = stream.next().expect("endless");
        let req = i as u64;
        let (method, path, body) = match (&op, *current) {
            (ChurnOp::Register(b), _) => ("POST", "/sessions".to_string(), b.as_str()),
            (ChurnOp::Plane(b), Some(id)) => ("POST", format!("/sessions/{id}/power"), b.as_str()),
            (ChurnOp::Get, Some(id)) => ("GET", format!("/sessions/{id}"), ""),
            (ChurnOp::Delete, Some(id)) => ("DELETE", format!("/sessions/{id}"), ""),
            _ => return Err("churn replay: operation without a session".into()),
        };
        let bytes = wire(method, &path, body);
        let root = tracer.open(req, "request", None);
        let request = tracer
            .leaf(req, "http.parse", root, || {
                parser.feed(&bytes);
                parser.next_request()
            })
            .map_err(|e| format!("http parse: {e:?}"))?
            .ok_or("http parse: incomplete request")?;
        let mut probe = None;
        match op {
            ChurnOp::Register(_) => {
                let spec = tracer
                    .leaf(req, "protocol.parse_register", root, || {
                        protocol::parse_register(&request.body)
                    })
                    .map_err(|e| e.0)?;
                let report = tracer
                    .leaf(req, "engine.evaluate_cold", root, || {
                        engine.evaluate_factored(&spec.plan, &spec.model)
                    })
                    .map_err(|e| e.to_string())?;
                let id = next_id;
                next_id += 1;
                tracer.leaf(req, "persist.append", root, || {
                    journal.record_register(id, &request.body)
                });
                tracer.leaf(req, "protocol.render_full", root, || report.to_json());
                live.push_back(id);
                if live.len() > QUOTA {
                    let evicted = live.pop_front().expect("over quota");
                    sessions.remove(&evicted);
                    tracer.leaf(req, "persist.append", root, || {
                        journal.record_evict(evicted)
                    });
                }
                probe = Some(spec.clone());
                sessions.insert(id, (spec, report));
                *current = Some(id);
            }
            ChurnOp::Plane(_) => {
                let id = current.expect("checked above");
                let (spec, last) = sessions
                    .get_mut(&id)
                    .ok_or("churn replay: session evicted mid-cycle")?;
                let (plane, map) = tracer
                    .leaf(req, "protocol.parse_update", root, || {
                        protocol::parse_power_update(&request.body, &spec.plan)
                    })
                    .map_err(|e| e.0)?;
                tracer
                    .leaf(req, "floorplan.update", root, || {
                        spec.plan.update_power_map(plane, map)
                    })
                    .map_err(|e| e.to_string())?;
                let report = tracer
                    .leaf(req, "engine.evaluate", root, || {
                        engine.evaluate_factored(&spec.plan, &spec.model)
                    })
                    .map_err(|e| e.to_string())?;
                tracer.leaf(req, "persist.append", root, || {
                    journal.record_update(id, plane, &request.body)
                });
                tracer.leaf(req, "protocol.render_delta", root, || {
                    protocol::render_delta(last, &report)
                });
                *last = report;
            }
            ChurnOp::Get => {
                let id = current.expect("checked above");
                let (spec, _) = sessions
                    .get(&id)
                    .ok_or("churn replay: session evicted mid-cycle")?;
                let report = tracer
                    .leaf(req, "engine.evaluate", root, || {
                        engine.evaluate_factored(&spec.plan, &spec.model)
                    })
                    .map_err(|e| e.to_string())?;
                tracer.leaf(req, "protocol.render_full", root, || report.to_json());
            }
            ChurnOp::Delete => {
                let id = current.take().expect("checked above");
                sessions.remove(&id);
                live.retain(|&l| l != id);
                tracer.leaf(req, "persist.append", root, || journal.record_delete(id));
            }
        }
        tracer.close(root);
        registered.extend(probe);
        i += 1;
    }
    Ok(ChurnReplay {
        tracer,
        ops: i,
        wall_s: t0.elapsed().as_secs_f64(),
        registered,
    })
}

fn churn_layers(
    serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let run = session_churn::run(serve_bin, seed, seconds * CHURN_E2E)?;
    let budget = Duration::from_secs_f64(seconds * CHURN_REPLAY);
    let (traced, overhead) = replay_abba(
        |n, t| replay_churn(seed, n, budget, t),
        |r| r.ops,
        |r| r.wall_s,
    )?;
    let t = &traced.tracer;
    let p = "session_churn.";
    for (layer, name, scale) in [
        ("http.parse", "http.parse_us", 1.0),
        ("protocol.parse_update", "protocol.parse_update_us", 1.0),
        ("protocol.parse_register", "protocol.parse_register_us", 1.0),
        ("protocol.render_full", "protocol.render_full_us", 1.0),
        ("persist.append", "persist.append_us", 1.0),
        ("engine.evaluate_cold", "engine.evaluate_cold_ms", 1e-3),
    ] {
        let (us, n) = self_us(t, layer);
        emit(
            report,
            &format!("{p}{name}"),
            us * scale,
            n,
            "mean self time per span, traced replay",
        );
    }
    emit(
        report,
        "session_churn.trace.overhead_pct",
        overhead,
        traced.ops,
        "traced vs untraced replay wall time, ABBA",
    );
    let mut probes = (Vec::new(), Vec::new());
    for spec in &traced.registered {
        let (f, b, _) = backsub_probe(spec)?;
        probes.0.push(f);
        probes.1.push(b);
    }
    emit(
        report,
        "session_churn.model_b.factorize_us",
        mean(&probes.0),
        probes.0.len(),
        "mean ModelB::factorize per registered geometry",
    );
    emit(
        report,
        "session_churn.model_b.backsub_us",
        mean(&probes.1),
        probes.1.len(),
        "mean max_delta_t call",
    );

    // Recovery's replay, on copies of the journal the kill left behind.
    let journal = run.killed_journal.join("journal.ttsv");
    let mut replay_ms = Vec::new();
    let mut records = 0;
    for _ in 0..3 {
        let dir = scratch_dir("churn-replay");
        std::fs::copy(&journal, dir.join("journal.ttsv"))
            .map_err(|e| format!("copy journal: {e}"))?;
        let t = Instant::now();
        let (_, recovery) =
            Journal::open(PersistConfig::new(&dir), Arc::new(PersistStats::default()))
                .map_err(|e| format!("replay journal: {e}"))?;
        replay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        records = recovery.records_replayed;
    }
    emit(
        report,
        "session_churn.persist.replay_ms",
        median(&replay_ms),
        replay_ms.len(),
        "median Journal::open of the churn journal",
    );
    emit(
        report,
        "session_churn.persist.records_replayed",
        records as f64,
        1,
        "records in the churn journal",
    );

    let (b, a) = (&run.before, &run.after);
    let ops = run.samples.len();
    for (name, path) in [
        ("server.shed_503", "overload.shed_503"),
        ("server.rate_limited_429", "overload.rate_limited_429"),
        ("server.timeouts_408", "overload.timeouts_408"),
        ("lru.hits", "sessions.hits"),
        ("lru.misses", "sessions.misses"),
        ("lru.evictions", "sessions.evictions"),
        ("persist.write_errors", "persistence.write_errors"),
        ("engine.factorizations", "engine.factorizations"),
    ] {
        emit(
            report,
            &format!("{p}{name}"),
            b.delta(a, path),
            ops,
            "/metrics over the timed window",
        );
    }
    let lag: Vec<f64> = run.samples.iter().map(|s| s.lag_ms).collect();
    emit(
        report,
        "session_churn.gen.lag_ms",
        percentile(&lag, 0.99),
        lag.len(),
        "p99 due-to-send lag",
    );
    t.write(&Path::new(".bench_run").join(format!("spans-session_churn-seed{seed}.jsonl")))
        .map_err(|e| format!("write spans: {e}"))?;
    report.count(run.attempted + traced.ops as u64, run.failed, run.errors);
    Ok(())
}

fn repro_layers(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    paper_repro::setup_probe()?;
    let budget = Duration::from_secs_f64(seconds * REPRO);
    let mut tracer = Tracer::on();
    let (mut traced_s, mut plain_s) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    let t0 = Instant::now();
    let mut pass = 0;
    while t0.elapsed() < budget || pass < 4 {
        // Alternate traced and untraced passes over the same inputs.
        let order = gen::experiment_order(seed, pass);
        for (on, walls) in [(true, &mut traced_s), (false, &mut plain_s)] {
            let t = Instant::now();
            let out = if on {
                paper_repro::pass(order, pass, &mut tracer)
            } else {
                paper_repro::pass(order, pass, &mut Tracer::off())
            };
            walls.push(t.elapsed().as_secs_f64());
            if let Err(e) = out {
                errors.push(e);
            }
        }
        pass += 1;
    }
    for (layer, name) in paper_repro::LAYERS.iter().zip(crate::pins::EXPERIMENTS) {
        let (us, n) = self_us(&tracer, layer);
        emit(
            report,
            &format!("paper_repro.experiments.{name}_ms"),
            us / 1e3,
            n,
            "mean per call, traced passes",
        );
    }
    emit(
        report,
        "paper_repro.trace.overhead_pct",
        overhead_pct(median(&traced_s), median(&plain_s)),
        pass as usize,
        "median traced vs untraced pass",
    );

    // The finite-volume reference on the calibration set and the §IV-E
    // unit cell, with a fresh reference so the counts are exact.
    let fem = FemReference::new();
    let mut scenarios = block_training_scenarios().map_err(|e| e.to_string())?;
    scenarios.push(
        CaseStudy::paper()
            .unit_cell_scenario()
            .map_err(|e| e.to_string())?,
    );
    let (mut solve_ms, mut iterations) = (Vec::new(), 0);
    for s in &scenarios {
        let t = Instant::now();
        let solution = fem.solve(s).map_err(|e| e.to_string())?;
        solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
        iterations += solution.iterations();
    }
    emit(
        report,
        "paper_repro.fem.solve_ms",
        mean(&solve_ms),
        solve_ms.len(),
        "mean FemReference::solve",
    );
    emit(
        report,
        "paper_repro.fem.pcg_iterations",
        iterations as f64,
        solve_ms.len(),
        "summed iterations()",
    );
    emit(
        report,
        "paper_repro.fem.multigrid_builds",
        fem.multigrid_builds() as f64,
        solve_ms.len(),
        "FemReference::multigrid_builds",
    );
    tracer
        .write(&Path::new(".bench_run").join(format!("spans-paper_repro-seed{seed}.jsonl")))
        .map_err(|e| format!("write spans: {e}"))?;
    report.count(2 * pass, errors.len() as u64, errors);
    Ok(())
}

/// The traced run: every per-layer metric, whichever workload is named.
pub fn measure(
    serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    stream_layers(serve_bin, seed, seconds, report)?;
    churn_layers(serve_bin, seed, seconds, report)?;
    repro_layers(seed, seconds, report)
}
