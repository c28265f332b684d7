//! `paper_repro`: repeated in-process passes of the nine paper
//! experiments at `Fidelity::Full`, each output checked against the
//! pins. The only workload that runs `fem`/`linalg` and `model_a`; it
//! never touches `serve`.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use ttsv_core::CoreError;
use ttsv_validate::experiments::{self, Fidelity};
use ttsv_validate::report::Report as ExperimentReport;

use crate::serve_proc::{peak_rss_mb, secs};
use crate::trace::Tracer;
use crate::{gen, pins, Report};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

type Experiment = fn(Fidelity) -> Result<ExperimentReport, CoreError>;

/// The experiments, in `pins::EXPERIMENTS` order.
const RUNS: [Experiment; 9] = [
    experiments::fig4,
    experiments::fig5,
    experiments::table1,
    experiments::fig6,
    experiments::fig7,
    experiments::case_study,
    experiments::calibration,
    experiments::sensitivity,
    experiments::nplanes,
];

/// One pass: the nine experiments in `order`, each checked against its
/// pins after its timed call. Returns the summed call time in ms, or the
/// first failure. With a tracer, each call is a span under one root span
/// (request id `pass`).
pub fn pass(order: [usize; 9], pass: u64, tracer: &mut Tracer) -> Result<f64, String> {
    let root = tracer.open(pass, "repro.pass", None);
    let mut total = Duration::ZERO;
    let mut first_error = None;
    for i in order {
        let span = tracer.open(pass, LAYERS[i], Some(root));
        let t = Instant::now();
        let out = RUNS[i](Fidelity::Full);
        total += t.elapsed();
        tracer.close(span);
        let checked = out
            .map_err(|e| e.to_string())
            .and_then(|report| pins::check(pins::EXPERIMENTS[i], &report));
        if let Err(e) = checked {
            first_error.get_or_insert(format!("{}: {e}", pins::EXPERIMENTS[i]));
        }
    }
    tracer.close(root);
    first_error.map_or(Ok(total.as_secs_f64() * 1e3), Err)
}

/// Span layer names, in `pins::EXPERIMENTS` order.
pub const LAYERS: [&str; 9] = [
    "experiments.fig4",
    "experiments.fig5",
    "experiments.table1",
    "experiments.fig6",
    "experiments.fig7",
    "experiments.case_study",
    "experiments.calibration",
    "experiments.sensitivity",
    "experiments.nplanes",
];

/// The set-up a run pays before its first timed pass: process start and
/// one cold pass (which fills the calibration cache), in the listed
/// order so that every seed pays the same cold work. Run as a child
/// process (`--setup-probe`) so each set-up is cold; returns the cold
/// pass in ms.
pub fn setup_probe() -> Result<f64, String> {
    pass([0, 1, 2, 3, 4, 5, 6, 7, 8], u64::MAX, &mut Tracer::off())
}

/// One cold set-up in a child process: (set-up s, cold pass ms).
fn timed_setup(exe: &Path) -> Result<(f64, f64), String> {
    let t = Instant::now();
    let out = Command::new(exe)
        .arg("--setup-probe")
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn set-up probe: {e}"))?;
    let setup_s = secs(t);
    match (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).trim().parse(),
    ) {
        (true, Ok(ms)) => Ok((setup_s, ms)),
        _ => Err(format!("set-up probe failed: {}", out.status)),
    }
}

/// The untraced end-to-end run: every metric the workload reports.
///
/// The run is cut into `SETUPS` slices, each one cold set-up followed by
/// timed passes, so that the set-ups sample the host over the whole run
/// rather than its first second (the host's speed moves in streaks of a
/// few seconds). Set-ups are outside the timed window.
pub fn measure(
    _serve_bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut setup_s, mut cold_ms) = (Vec::new(), Vec::new());
    setup_probe()?;
    let mut passes = Vec::new();
    let mut errors = Vec::new();
    let mut window_s = 0.0;
    let mut n = 0;
    for _ in 0..SETUPS {
        let (s, ms) = timed_setup(&exe)?;
        setup_s.push(s);
        cold_ms.push(ms);
        let t0 = Instant::now();
        let deadline = t0 + Duration::from_secs_f64(seconds / SETUPS as f64);
        while Instant::now() < deadline {
            match pass(gen::experiment_order(seed, n), n, &mut Tracer::off()) {
                Ok(ms) => passes.push(ms),
                Err(e) => {
                    passes.push(f64::INFINITY);
                    errors.push(e);
                }
            }
            n += 1;
        }
        window_s += secs(t0);
    }
    let ok = passes.iter().filter(|v| v.is_finite()).count();
    report.setup(&setup_s);
    report.pct(
        "p50_ms",
        &passes,
        0.5,
        "ms",
        "full pass of the nine experiments",
    );
    report.metric(
        "ops_per_s",
        ok as f64 / window_s,
        "1/s",
        ok,
        "passes per second",
    );
    report.pct(
        "cold_ms",
        &cold_ms,
        0.5,
        "ms",
        "first pass of a fresh process",
    );
    report.metric(
        "rss_mb",
        peak_rss_mb(std::process::id()),
        "MB",
        1,
        "peak RSS (VmHWM) of the benchmark",
    );
    report.extra(
        "repro_suite_p90_ms",
        crate::stats::percentile(&passes, 0.9),
        "ms",
        passes.len(),
        "p90",
    );
    report.extra(
        "repro_suite_ms",
        crate::stats::median(&passes),
        "ms",
        passes.len(),
        "p50",
    );
    report.count(n, errors.len() as u64, errors);
    Ok(())
}
