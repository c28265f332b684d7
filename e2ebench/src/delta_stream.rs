//! `delta_stream`: the warm serving hot path against the `serve` binary.
//!
//! Closed loop, 2 connections, one 24×24×3 `segments:[10,1000]` session
//! each, journal on at the default fsync policy, 2-tile `updates` with
//! seeded continuous watts and the default delta responses.

use std::path::Path;
use std::time::{Duration, Instant};

use ttsv_chip::ChipEngine;
use ttsv_serve::client::Client;
use ttsv_serve::protocol;

use crate::gen::{self, UpdateStream};
use crate::serve_proc::{check_accounting, scratch_dir, secs, Metrics, ServeProc};
use crate::{stats, Report};

/// Connections (= client threads = sessions); at most `nproc` on the
/// 2-core host the benchmark was defined on.
pub const CONNECTIONS: usize = 2;
/// Set-ups per server; `setup_s` is the median over all of them.
pub const SETUPS: usize = 3;
/// Fresh `serve` processes per end-to-end run, each measured for an
/// equal share of the run: pooling several processes averages out how
/// the scheduler happened to place one process's threads.
pub const SERVERS: usize = 3;

/// The engine exactly as `serve` builds it with default settings
/// (`ServerConfig::default`: scenario cap 2^16, matrix cap 2^10, one
/// worker per evaluation).
pub fn server_engine() -> ChipEngine {
    ChipEngine::new()
        .with_workers(1)
        .with_scenario_cache_cap(1 << 16)
        .with_matrix_cache_cap(1 << 10)
}

/// The wire bytes [`Client::request`] sends for one request.
pub fn wire(method: &str, path: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nhost: ttsv\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// Splits a `201` registration answer into the session id and its full
/// report JSON.
pub fn split_register(body: &str) -> Option<(u64, &str)> {
    let rest = body.strip_prefix("{\"session\":")?;
    let (id, report) = rest.split_once(",\"report\":")?;
    Some((id.parse().ok()?, report.strip_suffix('}')?))
}

/// One connection's share of a run.
struct Conn {
    client: Client,
    stream: UpdateStream,
    log: Log,
    latencies_us: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// What the output check needs from one connection.
struct Log {
    id: u64,
    register_body: String,
    register_report: String,
    /// Update bodies the server answered 200, in order.
    applied: Vec<String>,
    /// Their delta responses.
    deltas: Vec<String>,
}

/// What one server run measured.
pub struct StreamRun {
    pub setup_s: Vec<f64>,
    /// Cold 24×24 registrations, one per session per set-up.
    pub register_ms: Vec<f64>,
    pub latencies_us: Vec<f64>,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rss_mb: f64,
    /// `/metrics` just before and just after the timed window.
    pub before: Metrics,
    pub after: Metrics,
    pub errors: Vec<String>,
}

/// One set-up: spawn `serve`, connect, register both sessions. Also
/// returns each registration's round trip in ms.
fn setup(serve_bin: &Path, seed: u64) -> Result<(ServeProc, Vec<Conn>, f64, Vec<f64>), String> {
    let state = scratch_dir("delta_stream");
    let t0 = Instant::now();
    let proc = ServeProc::spawn(serve_bin, &state)?;
    let mut conns = Vec::new();
    let mut register_ms = Vec::new();
    for c in 0..CONNECTIONS {
        let mut client = proc.connect()?;
        let body = gen::stream_register(seed, c);
        let t = Instant::now();
        let (status, answer) = client
            .request("POST", "/sessions", &body)
            .map_err(|e| format!("register: {e}"))?;
        register_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let (id, report) = split_register(&answer)
            .filter(|_| status == 201)
            .ok_or_else(|| format!("register answered {status}: {answer:.120}"))?;
        conns.push(Conn {
            client,
            stream: UpdateStream::new(seed, c),
            log: Log {
                id,
                register_report: report.to_string(),
                register_body: body,
                applied: Vec::new(),
                deltas: Vec::new(),
            },
            latencies_us: Vec::new(),
            attempted: 0,
            failed: 0,
        });
    }
    Ok((proc, conns, secs(t0), register_ms))
}

fn drive(conn: &mut Conn, deadline: Instant) {
    let path = format!("/sessions/{}/power", conn.log.id);
    while Instant::now() < deadline {
        let body = conn.stream.next().expect("endless stream");
        let t = Instant::now();
        let answer = conn.client.request("POST", &path, &body);
        let us = t.elapsed().as_secs_f64() * 1e6;
        conn.attempted += 1;
        match answer {
            Ok((200, delta)) => {
                conn.latencies_us.push(us);
                conn.log.applied.push(body);
                conn.log.deltas.push(delta);
            }
            _ => {
                // A failed update misses every latency limit.
                conn.latencies_us.push(f64::INFINITY);
                conn.failed += 1;
            }
        }
    }
}

/// Rebuilds every full report from the deltas with
/// [`protocol::apply_delta`] and compares the last one bitwise with an
/// in-process [`ChipEngine::evaluate_factored`] of the same inputs; then
/// checks the final `?full=1` answer the same way.
fn verify(conn: &Log, final_body: &str, final_full: &str) -> Result<(), String> {
    let mut full = conn.register_report.clone();
    for delta in &conn.deltas {
        full = protocol::apply_delta(&full, delta).map_err(|e| format!("apply_delta: {e}"))?;
    }
    let mut spec = protocol::parse_register(conn.register_body.as_bytes()).map_err(|e| e.0)?;
    let engine = server_engine();
    for body in &conn.applied {
        let (plane, map) =
            protocol::parse_power_update(body.as_bytes(), &spec.plan).map_err(|e| e.0)?;
        spec.plan
            .update_power_map(plane, map)
            .map_err(|e| e.to_string())?;
    }
    let direct = engine
        .evaluate_factored(&spec.plan, &spec.model)
        .map_err(|e| e.to_string())?;
    if direct.to_json() != full {
        return Err(format!(
            "session {}: report rebuilt from {} deltas differs from direct evaluation",
            conn.id,
            conn.deltas.len()
        ));
    }
    let (plane, map) =
        protocol::parse_power_update(final_body.as_bytes(), &spec.plan).map_err(|e| e.0)?;
    spec.plan
        .update_power_map(plane, map)
        .map_err(|e| e.to_string())?;
    let direct = engine
        .evaluate_factored(&spec.plan, &spec.model)
        .map_err(|e| e.to_string())?;
    if direct.to_json() != final_full {
        return Err(format!(
            "session {}: ?full=1 answer differs from direct evaluation",
            conn.id
        ));
    }
    Ok(())
}

/// Runs the workload against a fresh `serve` for `seconds` of updates.
pub fn run(serve_bin: &Path, seed: u64, seconds: f64) -> Result<StreamRun, String> {
    let mut setup_s = Vec::new();
    let mut register_ms = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let (proc, conns, s, ms) = setup(serve_bin, seed)?;
        setup_s.push(s);
        register_ms.extend(ms);
        if i + 1 == SETUPS {
            kept = Some((proc, conns));
        }
    }
    let (mut proc, mut conns) = kept.expect("at least one set-up");
    let before = proc.metrics()?;

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for conn in &mut conns {
            s.spawn(move || drive(conn, deadline));
        }
    });
    let window_s = secs(t0);
    let after = proc.metrics()?;

    let mut errors = Vec::new();
    let mut finals = Vec::new();
    for conn in &mut conns {
        let body = conn.stream.next().expect("endless stream");
        conn.attempted += 1;
        match conn.client.request(
            "POST",
            &format!("/sessions/{}/power?full=1", conn.log.id),
            &body,
        ) {
            Ok((200, full)) => finals.push((body, full)),
            other => {
                conn.failed += 1;
                errors.push(format!("final ?full=1 update: {other:?}"));
            }
        }
    }
    let sent: u64 = conns.iter().map(|c| c.attempted + 1).sum();
    let end = proc.metrics()?;
    if let Err(e) = check_accounting(&end, sent, proc.metrics_reads) {
        errors.push(e);
    }
    let rss_mb = proc.peak_rss_mb();
    proc.kill();

    let mut attempted = 0;
    let mut failed = 0;
    let mut latencies_us = Vec::new();
    if finals.len() == conns.len() {
        let checks: Vec<Result<(), String>> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter()
                .zip(&finals)
                .map(|(conn, (body, full))| {
                    let log = &conn.log;
                    s.spawn(move || verify(log, body, full))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("verifier thread"))
                .collect()
        });
        for e in checks.into_iter().filter_map(Result::err) {
            failed += 1;
            errors.push(e);
        }
    }
    for conn in conns {
        attempted += conn.attempted;
        failed += conn.failed;
        latencies_us.extend(conn.latencies_us);
    }
    Ok(StreamRun {
        setup_s,
        register_ms,
        latencies_us,
        window_s,
        attempted,
        failed,
        rss_mb,
        before,
        after,
        errors,
    })
}

/// The untraced end-to-end run: every metric the workload reports.
pub fn measure(
    serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut runs = Vec::new();
    for _ in 0..SERVERS {
        runs.push(run(serve_bin, seed, seconds / SERVERS as f64)?);
    }
    let run = runs
        .into_iter()
        .reduce(|mut a, b| {
            a.setup_s.extend(b.setup_s);
            a.register_ms.extend(b.register_ms);
            a.latencies_us.extend(b.latencies_us);
            a.window_s += b.window_s;
            a.attempted += b.attempted;
            a.failed += b.failed;
            a.rss_mb = a.rss_mb.max(b.rss_mb);
            a.errors.extend(b.errors);
            a
        })
        .expect("at least one server");
    let us = &run.latencies_us;
    let ms: Vec<f64> = us.iter().map(|us| us / 1e3).collect();
    let ok = us.iter().filter(|v| v.is_finite()).count();
    let rate = ok as f64 / run.window_s;
    report.setup(&run.setup_s);
    report.pct("p50_ms", &ms, 0.5, "ms", "update round trip");
    report.metric(
        "ops_per_s",
        rate,
        "1/s",
        ok,
        "updates answered 200 per second",
    );
    report.pct(
        "cold_ms",
        &run.register_ms,
        0.5,
        "ms",
        "cold 24x24x3 registration round trip",
    );
    report.metric(
        "rss_mb",
        run.rss_mb,
        "MB",
        SERVERS,
        "peak RSS (VmHWM), largest serve process",
    );
    report.extra(
        "update_p50_us",
        stats::percentile(us, 0.5),
        "us",
        us.len(),
        "p50",
    );
    report.extra(
        "update_p99_us",
        stats::percentile(us, 0.99),
        "us",
        us.len(),
        "p99",
    );
    report.extra("updates_per_s", rate, "1/s", ok, "mean over the window");
    report.count(run.attempted, run.failed, run.errors);
    Ok(())
}
