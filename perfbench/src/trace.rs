//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around calls into
//! each crate's public functions. They stay in memory until the run ends
//! and are then written once as Chrome trace-event JSON, which Perfetto
//! and `chrome://tracing` open.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: name, start and end (ns since the tracer started),
/// and the index of the span that was open when it began.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `dft.tpi_grade`.
    pub name: &'static str,
    /// Start, ns since [`Tracer::new`].
    pub start_ns: u64,
    /// End, ns since [`Tracer::new`].
    pub end_ns: u64,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on the calling thread, plus named values (counts,
/// ratios, utilizations) taken at the same boundaries. A disabled tracer
/// runs the closures and records nothing.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: BTreeMap<&'static str, f64>,
}

/// Wall clock and process CPU seconds at a stage start.
#[derive(Clone, Copy, Debug)]
pub struct Mark {
    wall: Instant,
    cpu_s: f64,
}

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// A tracer that records nothing (the untraced iterations).
    pub fn disabled() -> Self {
        Tracer { enabled: false, ..Tracer::new() }
    }

    /// `true` for a recording tracer.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records the value `name` (the last write wins).
    pub fn record(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.values.insert(name, value);
        }
    }

    /// Every recorded value.
    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }

    /// Wall clock and process CPU time now, for [`Tracer::record_util`]
    /// (`None` when disabled, so untraced runs never read `/proc`).
    pub fn mark(&self) -> Option<Mark> {
        self.enabled.then(|| Mark { wall: Instant::now(), cpu_s: crate::host::cpu_seconds() })
    }

    /// Records the CPU utilization of the `threads`-wide pool since `mark`.
    pub fn record_util(&mut self, name: &'static str, mark: Option<Mark>, threads: usize) {
        if let Some(m) = mark {
            let cpu_s = crate::host::cpu_seconds() - m.cpu_s;
            let capacity_s = m.wall.elapsed().as_secs_f64() * threads as f64;
            self.record(name, cpu_s / capacity_s.max(1e-9));
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name in seconds: each span's duration minus
    /// the time its direct children cover, summed over spans of a name.
    /// Children run on the same thread inside their parent and never
    /// overlap, so the covered time is the sum of their durations.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, &covered) in self.spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0.0) +=
                s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
        }
        out
    }

    /// Share of the first `name` span's duration covered by its direct
    /// children, in percent.
    pub fn child_coverage_pct(&self, name: &str) -> f64 {
        let Some(root) = self.spans.iter().position(|s| s.name == name) else { return 0.0 };
        let covered: u64 =
            self.spans.iter().filter(|s| s.parent == Some(root)).map(Span::duration_ns).sum();
        covered as f64 / self.spans[root].duration_ns().max(1) as f64 * 100.0
    }

    /// The spans as Chrome trace-event JSON (complete `X` events, µs),
    /// with `metadata` written as the top-level `otherData` object.
    pub fn to_chrome_json(&self, metadata: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push_str("],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (k, v)) in metadata.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":{}", json_string(v));
        }
        out.push_str("}}\n");
        out
    }
}

/// `s` as a JSON string literal (quotes and backslashes escaped; the
/// benchmark's own strings hold no control characters).
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("root", |t| {
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            t.span("a", |_| std::thread::sleep(std::time::Duration::from_millis(5)));
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        let st = t.self_times();
        assert!(st["a"] >= 0.010, "{st:?}");
        assert!(st["root"] >= 0.002 && st["root"] < st["a"], "{st:?}");
        assert!(t.child_coverage_pct("root") > 50.0);
        assert_eq!(t.spans()[1].parent, Some(0));
        let json = t.to_chrome_json(&[("k", "v\"q".to_string())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"otherData\":{\"k\":\"v\\\"q\"}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("x", |_| 7), 7);
        assert!(t.spans().is_empty());
    }
}
