//! In-memory spans around the calls into each layer, self times, and the
//! reconciliation of per-layer times with the end-to-end median.
//!
//! A span records its request id, layer name, start, end and parent.
//! Spans stay in memory and are written out when the run ends. A span's
//! self time is its duration minus the durations of its children (child
//! spans are sequential and nested inside their parent).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub req: u64,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder; [`Tracer::off`] records nothing and costs nothing
/// but a branch, so traced and untraced replays run the same code.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn on() -> Self {
        Self {
            origin: Instant::now(),
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Self {
            on: false,
            ..Self::on()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle.
    pub fn open(&mut self, req: u64, layer: &'static str, parent: Option<usize>) -> usize {
        if !self.on {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            req,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        if self.on {
            self.spans[span].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        req: u64,
        layer: &'static str,
        parent: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        let span = self.open(req, layer, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Per layer: (summed self time in ns, span count).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, usize)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.layer).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(child);
            e.1 += 1;
        }
        out
    }

    /// Summed duration of the root spans (no parent) in ns, and their count.
    pub fn root_total(&self) -> (u64, usize) {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .fold((0, 0), |(ns, n), s| (ns + s.end_ns - s.start_ns, n + 1))
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"req\":{},\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.layer, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Largest relative disagreement the reconciliation accepts between the
/// per-layer self times plus transport and the end-to-end median.
pub const RECONCILE_BOUND: f64 = 0.01;

/// What [`reconcile`] derives from one traced replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reconciled {
    /// Traced requests (root spans).
    pub requests: usize,
    /// Σ per-layer mean self times: the in-process cost of one request.
    pub stage_sum_us: f64,
    /// Mean root span: the same cost measured around the whole request.
    pub root_us: f64,
    /// End-to-end median minus the root span: socket, event loop, pool
    /// queue and scheduling.
    pub transport_us: f64,
    /// |Σ self + transport − e2e| / e2e, in percent.
    pub error_pct: f64,
}

/// Reconciles a traced replay with the untraced end-to-end median.
pub fn reconcile(tracer: &Tracer, e2e_median_us: f64) -> Reconciled {
    let (root_ns, requests) = tracer.root_total();
    let per_req = |ns: u64| ns as f64 / 1e3 / requests.max(1) as f64;
    let stage_sum_us: f64 = tracer
        .self_times()
        .values()
        .map(|&(ns, _)| per_req(ns))
        .sum();
    let root_us = per_req(root_ns);
    let transport_us = e2e_median_us - root_us;
    Reconciled {
        requests,
        stage_sum_us,
        root_us,
        transport_us,
        error_pct: ((stage_sum_us + transport_us) - e2e_median_us).abs() / e2e_median_us * 100.0,
    }
}

impl Reconciled {
    /// The per-layer mean self times must add up to the mean root span
    /// (self times partition each request: children nest inside parents
    /// and do not overlap), and the in-process stages must fit inside the
    /// end-to-end median (`transport_us ≥ 0`). Then per-layer self times
    /// plus transport equal the end-to-end median within
    /// [`RECONCILE_BOUND`].
    pub fn check(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("reconcile: no traced requests".into());
        }
        if self.error_pct.is_nan() || self.error_pct > RECONCILE_BOUND * 100.0 {
            return Err(format!(
                "reconcile: layer self times sum to {:.3} us per request but the root spans average {:.3} us",
                self.stage_sum_us, self.root_us
            ));
        }
        if self.transport_us < 0.0 {
            return Err(format!(
                "reconcile: in-process stages ({:.3} us) exceed the end-to-end median ({:.3} us)",
                self.root_us,
                self.root_us + self.transport_us
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        req: u64,
        layer: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            req,
            layer,
            start_ns,
            end_ns,
            parent,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on: true,
            spans,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = tracer(vec![
            span(0, "root", 0, 100_000, None),
            span(0, "a", 10_000, 40_000, Some(0)),
            span(0, "b", 40_000, 90_000, Some(0)),
            span(1, "root", 200_000, 260_000, None),
            span(1, "a", 200_000, 260_000, Some(3)),
        ]);
        let st = t.self_times();
        assert_eq!(st["root"], (20_000, 2));
        assert_eq!(st["a"], (90_000, 2));
        assert_eq!(st["b"], (50_000, 1));
        assert_eq!(t.root_total(), (160_000, 2));
    }

    #[test]
    fn layers_plus_transport_reconcile_with_the_median() {
        let t = tracer(vec![
            span(0, "root", 0, 100_000, None),
            span(0, "a", 10_000, 40_000, Some(0)),
            span(1, "root", 200_000, 300_000, None),
            span(1, "a", 210_000, 260_000, Some(2)),
        ]);
        let r = reconcile(&t, 150.0);
        r.check().unwrap();
        assert!((r.stage_sum_us - 100.0).abs() < 1e-9);
        assert!((r.transport_us - 50.0).abs() < 1e-9);
        assert!(r.error_pct < 1e-9);
    }

    #[test]
    fn overlapping_children_fail_reconciliation() {
        // Two children covering the same interval double-count it.
        let t = tracer(vec![
            span(0, "root", 0, 100_000, None),
            span(0, "a", 0, 80_000, Some(0)),
            span(0, "b", 0, 80_000, Some(0)),
        ]);
        assert!(reconcile(&t, 200.0).check().is_err());
    }

    #[test]
    fn stages_longer_than_the_median_fail_reconciliation() {
        let t = tracer(vec![span(0, "root", 0, 300_000, None)]);
        assert!(reconcile(&t, 200.0).check().is_err());
    }

    #[test]
    fn no_traced_requests_fail_reconciliation() {
        assert!(reconcile(&Tracer::on(), 200.0).check().is_err());
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open(0, "root", None);
        t.leaf(0, "a", root, || ());
        t.close(root);
        assert_eq!(t.root_total(), (0, 0));
        assert!(t.self_times().is_empty());
    }
}
