//! `session_churn`: the cold and write side of the serving layers.
//!
//! Open loop at a fixed rate, 2 connections, 12×12×3 sessions with a
//! fresh via density each: register, one whole-plane `tiles`
//! replacement per plane, one `GET`, then a coin-flip `DELETE` (the rest
//! are left to the default 64-session quota's LRU eviction). The run
//! ends with `kill -9`, a restart on the same state directory, and a
//! bitwise comparison of recovered sessions with their pre-kill reads.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ttsv_serve::client::Client;

use crate::delta_stream::split_register;
use crate::gen::{ChurnOp, ChurnStream};
use crate::serve_proc::{check_accounting, scratch_dir, secs, Metrics, ServeProc};
use crate::{stats, Report};

/// Connections (= client threads).
pub const CONNECTIONS: usize = 2;
/// Offered load in operations per second, over both connections: about
/// a sixth of the ~700/s the 2-core host sustained closed-loop when the
/// benchmark was defined (see README). Nearer that capacity the host's
/// own speed swings turned into queueing, and the latencies stopped
/// repeating from run to run.
pub const RATE_OPS_PER_S: f64 = 120.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 15;
/// Surviving sessions read before the kill and compared after restart.
pub const CHECKED_SESSIONS: usize = 4;
/// Restarts after the kill; `cold_ms` is their median recovery time.
pub const RESTARTS: usize = 5;

/// Operation kinds, for per-kind latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Register,
    Plane,
    Get,
    Delete,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: Kind,
    /// Due time → answer, in ms (infinite when the operation failed).
    pub latency_ms: f64,
    /// Due time → send, in ms: how late the generator ran.
    pub lag_ms: f64,
}

struct Conn {
    client: Client,
    stream: ChurnStream,
    current: Option<u64>,
    /// Sessions this connection registered and never deleted, oldest first.
    kept: Vec<u64>,
    samples: Vec<Sample>,
    failed: u64,
    sent: u64,
}

/// What one run measured.
pub struct ChurnRun {
    pub setup_s: Vec<f64>,
    pub samples: Vec<Sample>,
    pub window_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub rss_mb: f64,
    /// Restart spawn → first correct read, once per restart.
    pub recovery_s: Vec<f64>,
    pub before: Metrics,
    pub after: Metrics,
    /// The directory holding the journal as the kill left it.
    pub killed_journal: PathBuf,
    pub errors: Vec<String>,
}

fn drive(conn: &mut Conn, conn_index: usize, t0: Instant, deadline: Instant) {
    let interval = Duration::from_secs_f64(CONNECTIONS as f64 / RATE_OPS_PER_S);
    // Stagger the connections by half an interval.
    let mut due = t0 + interval * conn_index as u32 / CONNECTIONS as u32;
    // Ops due before the deadline but not yet sent when it passes are
    // dropped: the generator's lag already shows that backlog.
    while due < deadline && Instant::now() < deadline {
        let op = conn.stream.next().expect("endless stream");
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let lag_ms = sent.saturating_duration_since(due).as_secs_f64() * 1e3;
        let (kind, outcome) = match (&op, conn.current) {
            (ChurnOp::Register(body), _) => {
                conn.sent += 1;
                let answer = conn.client.request("POST", "/sessions", body);
                conn.current = match &answer {
                    Ok((201, text)) => split_register(text).map(|(id, _)| id),
                    _ => None,
                };
                conn.kept.extend(conn.current);
                (Kind::Register, conn.current.is_some())
            }
            (ChurnOp::Plane(body), Some(id)) => {
                conn.sent += 1;
                let answer = conn
                    .client
                    .request("POST", &format!("/sessions/{id}/power"), body);
                (Kind::Plane, matches!(answer, Ok((200, _))))
            }
            (ChurnOp::Get, Some(id)) => {
                conn.sent += 1;
                let answer = conn.client.request("GET", &format!("/sessions/{id}"), "");
                (Kind::Get, matches!(answer, Ok((200, _))))
            }
            (ChurnOp::Delete, Some(id)) => {
                conn.sent += 1;
                let answer = conn
                    .client
                    .request("DELETE", &format!("/sessions/{id}"), "");
                let ok = matches!(answer, Ok((204, _)));
                if ok {
                    conn.current = None;
                    conn.kept.pop();
                }
                (Kind::Delete, ok)
            }
            // The cycle's registration failed: its later steps fail too.
            (ChurnOp::Plane(_), None) => (Kind::Plane, false),
            (ChurnOp::Get, None) => (Kind::Get, false),
            (ChurnOp::Delete, None) => (Kind::Delete, false),
        };
        let latency_ms = if outcome {
            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3
        } else {
            conn.failed += 1;
            f64::INFINITY
        };
        conn.samples.push(Sample {
            kind,
            latency_ms,
            lag_ms,
        });
        due += interval;
    }
}

/// Runs the workload against a fresh `serve` for `seconds` of offered
/// load, then kills it and restarts it [`RESTARTS`] times.
pub fn run(serve_bin: &Path, seed: u64, seconds: f64) -> Result<ChurnRun, String> {
    let state = scratch_dir("session_churn");
    let mut setup_s = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let _ = std::fs::remove_dir_all(&state);
        let t0 = Instant::now();
        let proc = ServeProc::spawn(serve_bin, &state)?;
        let clients = (0..CONNECTIONS)
            .map(|_| proc.connect())
            .collect::<Result<Vec<_>, _>>()?;
        setup_s.push(secs(t0));
        if i + 1 == SETUPS {
            kept = Some((proc, clients));
        }
    }
    let (mut proc, clients) = kept.expect("at least one set-up");
    let mut conns: Vec<Conn> = clients
        .into_iter()
        .enumerate()
        .map(|(c, client)| Conn {
            client,
            stream: ChurnStream::new(seed, c),
            current: None,
            kept: Vec::new(),
            samples: Vec::new(),
            failed: 0,
            sent: 0,
        })
        .collect();
    let before = proc.metrics()?;

    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for (c, conn) in conns.iter_mut().enumerate() {
            s.spawn(move || drive(conn, c, t0, deadline));
        }
    });
    let window_s = secs(t0);
    let after = proc.metrics()?;
    let mut errors = Vec::new();

    // The most recent surviving sessions are certainly within the quota.
    let mut survivors: Vec<u64> = conns.iter().flat_map(|c| c.kept.iter().copied()).collect();
    survivors.sort_unstable();
    let checked: Vec<u64> = survivors
        .iter()
        .rev()
        .take(CHECKED_SESSIONS)
        .copied()
        .collect();
    let mut reads = Vec::new();
    let mut client = proc.connect()?;
    for &id in &checked {
        match client.request("GET", &format!("/sessions/{id}"), "") {
            Ok((200, body)) => reads.push((id, body)),
            other => errors.push(format!("pre-kill GET /sessions/{id}: {other:?}")),
        }
    }
    let sent = conns.iter().map(|c| c.sent).sum::<u64>() + checked.len() as u64;
    let end = proc.metrics()?;
    if let Err(e) = check_accounting(&end, sent, proc.metrics_reads) {
        errors.push(e);
    }
    let rss_mb = proc.peak_rss_mb();
    proc.kill();

    // The journal as the kill left it; every restart recovers a fresh
    // copy of it, so each is the same crash.
    let killed = scratch_dir("churn-killed");
    std::fs::copy(state.join("journal.ttsv"), killed.join("journal.ttsv"))
        .map_err(|e| format!("copy journal: {e}"))?;
    let mut recovery_s = Vec::new();
    let mut failed_checks = 0;
    let mut restart_reads = 0;
    for _ in 0..RESTARTS {
        let dir = scratch_dir("churn-restart");
        std::fs::copy(killed.join("journal.ttsv"), dir.join("journal.ttsv"))
            .map_err(|e| format!("copy journal: {e}"))?;
        // recovery_s runs from the spawn to the first recovered session
        // read back bitwise equal to its pre-kill read.
        let t = Instant::now();
        let mut restarted = ServeProc::spawn(serve_bin, &dir)?;
        let mut client = restarted.connect()?;
        for (i, (id, want)) in reads.iter().enumerate() {
            restart_reads += 1;
            match client.request("GET", &format!("/sessions/{id}"), "") {
                Ok((200, got)) if &got == want => {
                    if i == 0 {
                        recovery_s.push(secs(t));
                    }
                }
                other => {
                    failed_checks += 1;
                    errors.push(format!(
                        "session {id} after restart: {:?} differs from its pre-kill read",
                        other.map(|(s, b)| (s, b.chars().take(80).collect::<String>()))
                    ));
                }
            }
        }
        let recovered = restarted.metrics()?;
        if let Err(e) = check_accounting(&recovered, reads.len() as u64, restarted.metrics_reads) {
            errors.push(e);
        }
        if recovered.num("persistence.recovered_sessions") < reads.len() as f64 {
            errors.push("restart recovered fewer sessions than were checked".into());
        }
        restarted.kill();
    }
    if reads.is_empty() {
        errors.push("no surviving session to check after restart".into());
    }

    let mut samples = Vec::new();
    let mut failed = failed_checks;
    for conn in conns {
        failed += conn.failed;
        samples.extend(conn.samples);
    }
    Ok(ChurnRun {
        setup_s,
        attempted: samples.len() as u64 + restart_reads,
        samples,
        window_s,
        failed,
        rss_mb,
        recovery_s,
        before,
        after,
        killed_journal: killed,
        errors,
    })
}

fn latencies(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| kind.is_none_or(|k| s.kind == k))
        .map(|s| s.latency_ms)
        .collect()
}

/// The untraced end-to-end run: every metric the workload reports.
pub fn measure(
    serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let run = run(serve_bin, seed, seconds)?;
    let all = latencies(&run.samples, None);
    let ok = all.iter().filter(|v| v.is_finite()).count();
    report.setup(&run.setup_s);
    report.pct(
        "p50_ms",
        &all,
        0.5,
        "ms",
        "churn operation, from its due time",
    );
    report.metric(
        "ops_per_s",
        ok as f64 / run.window_s,
        "1/s",
        ok,
        "operations answered per second",
    );
    let recovery_ms: Vec<f64> = run.recovery_s.iter().map(|s| s * 1e3).collect();
    report.pct(
        "cold_ms",
        &recovery_ms,
        0.5,
        "ms",
        "kill -9 recoveries: restart spawn to first correct GET",
    );
    report.metric("rss_mb", run.rss_mb, "MB", 1, "peak RSS (VmHWM) of serve");
    for (name, kind) in [
        ("register_p50_ms", Kind::Register),
        ("plane_update_p50_ms", Kind::Plane),
        ("get_p50_ms", Kind::Get),
        ("delete_p50_ms", Kind::Delete),
    ] {
        let l = latencies(&run.samples, Some(kind));
        report.extra(name, stats::median(&l), "ms", l.len(), "p50, from due time");
    }
    report.extra(
        "churn_op_p99_ms",
        stats::percentile(&all, 0.99),
        "ms",
        all.len(),
        "p99, from due time",
    );
    report.extra(
        "recovery_s",
        stats::median(&run.recovery_s),
        "s",
        run.recovery_s.len(),
        "p50, restart spawn to first correct GET",
    );
    let lag: Vec<f64> = run.samples.iter().map(|s| s.lag_ms).collect();
    report.extra(
        "gen_lag_p99_ms",
        stats::percentile(&lag, 0.99),
        "ms",
        lag.len(),
        "p99",
    );
    report.count(run.attempted, run.failed, run.errors);
    Ok(())
}
