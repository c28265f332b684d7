//! The `serve` process under test: spawn, address discovery, `/metrics`
//! reads, the accounting cross-check, peak RSS, and `kill -9`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use serde::json::Value;
use ttsv_serve::client::Client;

/// A running `serve` child. Dropping it kills and reaps the process.
pub struct ServeProc {
    child: Child,
    pub addr: String,
    /// `GET /metrics` requests this benchmark sent to this process.
    pub metrics_reads: u64,
}

impl ServeProc {
    /// Spawns `bin --addr 127.0.0.1:0 --state-dir state_dir` (every other
    /// setting at its default) and waits for its `listening on` line.
    pub fn spawn(bin: &Path, state_dir: &Path) -> Result<Self, String> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .env_remove("TTSV_SERVE_STATE_DIR")
            .env_remove("TTSV_SERVE_READINESS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("listening on ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve did not report its address (got {line:?})"));
            }
        };
        Ok(Self {
            child,
            addr,
            metrics_reads: 0,
        })
    }

    pub fn connect(&self) -> Result<Client, String> {
        Client::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// One `GET /metrics` on a fresh connection, parsed.
    pub fn metrics(&mut self) -> Result<Metrics, String> {
        let mut client = self.connect()?;
        self.metrics_reads += 1;
        let (status, body) = client
            .request("GET", "/metrics", "")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if status != 200 {
            return Err(format!("GET /metrics answered {status}"));
        }
        serde::json::from_str(&body)
            .map(Metrics)
            .map_err(|e| format!("/metrics is not JSON: {e}"))
    }

    /// Peak resident set size in MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// `kill -9` and reap.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        self.reap();
    }
}

/// `VmHWM` of a process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A parsed `/metrics` document.
pub struct Metrics(Value);

impl Metrics {
    /// The number at a `block.field` path (`"requests"`, `"overload.shed_503"`).
    pub fn num(&self, path: &str) -> f64 {
        path.split('.')
            .try_fold(&self.0, |v, key| v.get(key))
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN)
    }

    /// `later − self` at `path`.
    pub fn delta(&self, later: &Metrics, path: &str) -> f64 {
        later.num(path) - self.num(path)
    }
}

/// The accounting cross-check every server run ends with: the server's
/// request classes and latency samples add up, it counted exactly the
/// requests this benchmark sent, and at the seed nothing was shed,
/// rate-limited, timed out, or lost to a journal write error.
pub fn check_accounting(m: &Metrics, client_sent: u64, metrics_reads: u64) -> Result<(), String> {
    let requests = m.num("requests");
    let classes =
        m.num("responses.ok_2xx") + m.num("responses.client_4xx") + m.num("responses.server_5xx");
    let samples = m.num("latency_ns.samples");
    if requests != classes || requests != samples {
        return Err(format!(
            "accounting: requests {requests} vs classes {classes} vs latency samples {samples}"
        ));
    }
    // The /metrics read that produced `m` is not yet counted in it.
    let expected = (client_sent + metrics_reads - 1) as f64;
    if requests != expected {
        return Err(format!(
            "accounting: server counted {requests} requests, benchmark sent {expected}"
        ));
    }
    for path in [
        "overload.shed_503",
        "overload.rate_limited_429",
        "overload.timeouts_408",
        "persistence.write_errors",
    ] {
        if m.num(path) != 0.0 {
            return Err(format!("accounting: {path} = {} (expected 0)", m.num(path)));
        }
    }
    Ok(())
}

/// A scratch directory `.bench_run/<pid>/<name>` in the checkout,
/// emptied first; the run removes `.bench_run/<pid>` when it ends.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".bench_run")
        .join(std::process::id().to_string())
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("the checkout is writable");
    dir
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
