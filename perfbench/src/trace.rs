//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, named `<layer>.<call>`. It records its
//! start and end, the span that caused it, and the operation it served
//! (design index, request id or district). Spans stay in memory while the
//! workload runs and are written out once it ends. A layer's self time is
//! its span's duration minus the part its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The operation the call served.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Offset from the tracer's creation.
    pub start: Duration,
    /// Offset from the tracer's creation.
    pub end: Duration,
}

impl Span {
    fn ms(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64() * 1e3
    }
}

/// Records spans when enabled. When disabled, [`Tracer::span`] only runs
/// its closure, so set-up code can be shared between traced and untraced
/// runs without recording anything in the latter.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed();
        out
    }

    /// Records an interval timed by the caller, for calls that overlap
    /// one another (requests in flight in the service at the same time).
    pub fn record(&mut self, name: &'static str, op: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start: start.saturating_duration_since(self.t0),
            end: end.saturating_duration_since(self.t0),
        });
    }

    /// Total duration of the spans named `name`, in ms.
    pub fn sum_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Mean duration of the spans named `name`, in ms (0 when none ran).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.sum_ms(name) / n as f64,
        }
    }

    /// Durations of the spans named `name` that served operation `op`, in ms.
    pub fn op_ms(&self, name: &str, op: u64) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.op == op)
            .map(Span::ms)
            .sum()
    }

    /// Self time of every span: its duration minus the time its children
    /// cover. Children recorded with [`Tracer::span`] nest inside their
    /// parent and do not overlap one another.
    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own
    }

    /// Self time summed per layer (the part of a span's name before the
    /// first dot), in ms.
    pub fn layer_self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ms()) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0.0) += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::new();
        for (i, (s, own)) in self.spans.iter().zip(self.self_ms()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{},\"name\":\"{}\",\"op\":{},\"parent\":{},\"start_us\":{},\"end_us\":{},\"self_us\":{:.1}}}",
                i,
                s.name,
                s.op,
                parent,
                s.start.as_micros(),
                s.end.as_micros(),
                own * 1e3,
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.span("a.outer", 1, |tr| {
            std::thread::sleep(Duration::from_millis(5));
            tr.span("b.inner", 1, |_| {
                std::thread::sleep(Duration::from_millis(20))
            });
        });
        let layers = tr.layer_self_ms();
        assert!(layers["b"] >= 20.0);
        assert!(layers["a"] >= 5.0 && layers["a"] < 20.0, "{layers:?}");
        assert_eq!(tr.count("b.inner"), 1);
        assert!(tr.op_ms("a.outer", 1) >= 25.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let v = tr.span("a.x", 0, |_| 7);
        assert_eq!(v, 7);
        assert_eq!(tr.count("a.x"), 0);
    }
}
