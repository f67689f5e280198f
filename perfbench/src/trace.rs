//! The traced run's instruments: an in-memory span recorder around the
//! benchmark's calls into each layer, and a [`PhaseSink`] that totals the
//! engine's own `gdf_core::phase` spans.
//!
//! Spans stay in memory while the workload runs and are written out once
//! at the end, as a Chrome trace-event document (`chrome://tracing`,
//! Perfetto). Nothing here is used by an untraced run.

use gdf_core::PhaseSink;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Handle on an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Spans of one request (one served job, one circuit) share this.
    request: Option<u64>,
    start: Duration,
    end: Option<Duration>,
}

/// Records spans: name, start, end, the span that caused it, and the
/// request it belongs to.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Opens the root span of request `request`.
    pub fn open_request(&self, name: &'static str, request: u64) -> SpanId {
        self.push(name, None, Some(request))
    }

    /// Opens a span caused by `parent` (a root span when `None`); it
    /// belongs to the parent's request.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let request = parent.and_then(|p| self.lock()[p.0].request);
        self.push(name, parent.map(|p| p.0), request)
    }

    fn push(&self, name: &'static str, parent: Option<usize>, request: Option<u64>) -> SpanId {
        let start = self.epoch.elapsed();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            parent,
            request,
            start,
            end: None,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes `id` and returns its duration.
    pub fn close(&self, id: SpanId) -> Duration {
        let end = self.epoch.elapsed();
        let mut spans = self.lock();
        let span = &mut spans[id.0];
        span.end = Some(end);
        end - span.start
    }

    /// Runs `work` inside a span named `name` under `parent`; returns its
    /// result and the span's duration in seconds.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        work: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(name, parent);
        let out = work();
        (out, self.close(id).as_secs_f64())
    }

    /// Durations, in seconds, of the closed spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.end.map(|end| (end - s.start).as_secs_f64()))
            .collect()
    }

    /// Number of closed spans.
    pub fn len(&self) -> usize {
        self.lock().iter().filter(|s| s.end.is_some()).count()
    }

    /// Writes every closed span as a Chrome trace-event document.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.lock();
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (id, span) in spans.iter().enumerate() {
            let Some(end) = span.end else { continue };
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{},\"request\":{}}}}}",
                span.name,
                span.request.unwrap_or(0),
                span.start.as_secs_f64() * 1e6,
                (end - span.start).as_secs_f64() * 1e6,
                span.parent.map_or("null".into(), |p| p.to_string()),
                span.request.map_or("null".into(), |r| r.to_string()),
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span recorder poisoned")
    }
}

/// Per-phase totals of the engine's `gdf_core::phase` spans.
#[derive(Debug, Default)]
pub struct PhaseTotals {
    totals: Mutex<BTreeMap<&'static str, (u64, Duration)>>,
}

impl PhaseTotals {
    /// `(spans, summed seconds)` of `phase` so far.
    pub fn get(&self, phase: &str) -> (u64, f64) {
        self.lock()
            .get(phase)
            .map_or((0, 0.0), |&(n, d)| (n, d.as_secs_f64()))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, (u64, Duration)>> {
        self.totals.lock().expect("phase totals poisoned")
    }
}

impl PhaseSink for PhaseTotals {
    fn record(&self, phase: &'static str, _started: Instant, duration: Duration) {
        let mut totals = self.lock();
        let entry = totals.entry(phase).or_default();
        entry.0 += 1;
        entry.1 += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_share_their_request_and_total_by_name() {
        let tracer = Tracer::default();
        let root = tracer.open_request("job", 42);
        let child = tracer.open("submit", Some(root));
        tracer.close(child);
        let ((), secs) = tracer.span("fetch", Some(root), || ());
        tracer.close(root);
        assert_eq!(tracer.len(), 3);
        assert_eq!(tracer.durations("submit").len(), 1);
        assert_eq!(tracer.durations("fetch"), vec![secs]);
        let spans = tracer.lock();
        assert_eq!(spans[child.0].parent, Some(root.0));
        assert_eq!(spans[child.0].request, Some(42));
    }

    #[test]
    fn phase_totals_accumulate_per_phase() {
        let totals = PhaseTotals::default();
        let now = Instant::now();
        totals.record("fsim", now, Duration::from_millis(3));
        totals.record("fsim", now, Duration::from_millis(2));
        totals.record("fill", now, Duration::from_millis(1));
        let (n, secs) = totals.get("fsim");
        assert_eq!(n, 2);
        assert!((secs - 0.005).abs() < 1e-9);
        assert_eq!(totals.get("generate"), (0, 0.0));
    }
}
