//! The repository's end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload delta_stream|session_churn|paper_repro --seed N \
//!          --seconds S --trace 0|1 --serve-bin PATH
//! ```
//!
//! `run.sh` builds the release `serve` binary and this program and
//! passes `--serve-bin`. `e2ebench --setup-probe` is internal: the
//! `paper_repro` set-up, run in a child process, printing its cold pass
//! in ms. With `--trace 0` the run measures the named
//! workload untraced and reports its end-to-end metrics; with
//! `--trace 1` it runs the traced per-layer suite (see `layers.rs`). The
//! last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. The lines before it print every
//! metric by name with its unit, sample count and statistic, plus the
//! run's provenance.

mod delta_stream;
mod gen;
mod layers;
mod paper_repro;
mod pins;
mod serve_proc;
mod session_churn;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

/// The workloads, by the names `BENCHMARK.json` and later changes cite.
pub const WORKLOADS: [&str; 3] = ["delta_stream", "session_churn", "paper_repro"];

/// The end-to-end metrics every `--trace 0` run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cold_ms", "ms"),
    ("rss_mb", "MB"),
];

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub samples: usize,
    /// Which statistic of the samples this is.
    pub stat: String,
}

/// Everything a run reports: the metrics of the result line, the
/// further named figures printed above it, and the operation counts.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub extras: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check and accounting failures; any makes `correct` false.
    pub errors: Vec<String>,
}

impl Report {
    fn make(name: &str, value: f64, unit: &str, samples: usize, stat: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples,
            stat: stat.to_string(),
        }
    }

    /// A metric of the result line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str, samples: usize, stat: &str) {
        self.metrics
            .push(Self::make(name, value, unit, samples, stat));
    }

    /// A figure printed above the result line only.
    pub fn extra(&mut self, name: &str, value: f64, unit: &str, samples: usize, stat: &str) {
        self.extras
            .push(Self::make(name, value, unit, samples, stat));
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup(&mut self, setup_s: &[f64]) {
        let stat = format!("median of {} set-ups", setup_s.len());
        self.metric("setup_s", stats::median(setup_s), "s", setup_s.len(), &stat);
    }

    /// Percentile `q` of `samples`.
    pub fn pct(&mut self, name: &str, samples: &[f64], q: f64, unit: &str, what: &str) {
        let stat = format!("p{} of {what}", (q * 100.0).round());
        self.metric(
            name,
            stats::percentile(samples, q),
            unit,
            samples.len(),
            &stat,
        );
    }

    /// Adds operations attempted and failed, and check failures.
    pub fn count(&mut self, attempted: u64, failed: u64, errors: Vec<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: PathBuf,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        serve_bin: PathBuf::new(),
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value:?} is not valid");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--serve-bin" => args.serve_bin = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.setup_probe {
        return Ok(args);
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if !args.serve_bin.is_file() {
        return Err(format!(
            "--serve-bin {} is not a file",
            args.serve_bin.display()
        ));
    }
    Ok(args)
}

/// FNV-1a over the repository's sources (crates, vendored stand-ins,
/// lock file, this benchmark): identifies the measured code where the
/// checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p
                .extension()
                .is_some_and(|x| x == "rs" || x == "toml" || x == "lock")
            {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "e2ebench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend([PathBuf::from("Cargo.lock"), PathBuf::from("Cargo.toml")]);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        for b in f
            .to_string_lossy()
            .bytes()
            .chain(std::fs::read(&f).unwrap_or_default())
        {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // A failed operation's infinite latency: past every limit.
        "1e308".into()
    }
}

fn print_result(args: &Args, report: &mut Report) {
    let expected: Vec<(&str, &str)> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = expected.iter().map(|(n, _)| *n).collect();
    if names.len() != want.len() || want.iter().any(|n| !names.contains(n)) {
        report
            .errors
            .push(format!("metrics reported {names:?}, expected {want:?}"));
    }
    if let Some(m) = report.metrics.iter().find(|m| m.value.is_nan()) {
        report
            .errors
            .push(format!("metric {} is not a number", m.name));
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.extra(
        "fail_ratio",
        fail_ratio,
        "ratio",
        report.attempted as usize,
        "failed / attempted",
    );

    println!(
        "e2ebench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (kind, list) in [("metric", &report.metrics), ("extra", &report.extras)] {
        for m in list {
            println!(
                "{kind} {} = {} {}  (n={}, {})",
                m.name,
                json_num(m.value),
                m.unit,
                m.samples,
                m.stat
            );
        }
    }
    for e in &report.errors {
        println!("check-failed {e}");
        eprintln!("e2ebench: check failed: {e}");
    }
    let per_metric: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"samples\":{},\"stat\":{}}}",
                json_str(&m.name),
                m.samples,
                json_str(&m.stat)
            )
        })
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "provenance {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"commit\":{},\"source_digest\":{},\"metrics\":{{{}}}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&commit()),
        json_str(&source_digest()),
        per_metric.join(",")
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.errors.is_empty(),
        report.attempted,
        report.failed,
        metrics.join(",")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    if args.setup_probe {
        match paper_repro::setup_probe() {
            Ok(ms) => println!("{ms}"),
            Err(e) => {
                eprintln!("e2ebench: set-up probe: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let mut report = Report::default();
    let measured = if args.trace {
        layers::measure(&args.serve_bin, args.seed, args.seconds, &mut report)
    } else {
        match args.workload.as_str() {
            "delta_stream" => {
                delta_stream::measure(&args.serve_bin, args.seed, args.seconds, &mut report)
            }
            "session_churn" => {
                session_churn::measure(&args.serve_bin, args.seed, args.seconds, &mut report)
            }
            _ => paper_repro::measure(&args.serve_bin, args.seed, args.seconds, &mut report),
        }
    };
    let _ = std::fs::remove_dir_all(Path::new(".bench_run").join(std::process::id().to_string()));
    if let Err(e) = measured {
        eprintln!("e2ebench: {e}");
        std::process::exit(1);
    }
    print_result(&args, &mut report);
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::Value;

    fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let field = |f: &str| {
                    m.get(f)
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::from_str(&text).expect("BENCHMARK.json is JSON");
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(names(&doc, "per_layer"), owned(layers::PER_LAYER));
        let workloads: Vec<String> = names(&doc, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
