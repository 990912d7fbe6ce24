//! Snapshot export: a frozen view of a registry, serializable to JSON
//! (and parseable back — the round-trip is property-tested) or to
//! Prometheus text exposition format.

use crate::metrics::{bucket_upper_bound, NUM_BUCKETS};
use std::fmt::Write as _;

/// A frozen histogram: total count, wrapping sum, and the non-empty
/// buckets as `(bucket index, count)` pairs in ascending index order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Total number of recorded values (wrapping).
    pub count: u64,
    /// Wrapping sum of recorded values.
    pub sum: u64,
    /// `(bucket index, count)` for every non-empty bucket; index `i`
    /// covers `[2^(i-1), 2^i - 1]` (index 0 covers exactly `{0}`).
    pub buckets: Vec<(u32, u64)>,
}

/// A point-in-time view of every metric in a [`crate::Registry`],
/// sorted by name within each kind.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, i64)>,
    /// Every histogram.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The counter `name`'s value, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The gauge `name`'s value, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serializes to a JSON object:
    ///
    /// ```json
    /// {
    ///   "counters": { "exec.shard_retries": 12 },
    ///   "gauges": { "serve.queue_depth": 3 },
    ///   "histograms": {
    ///     "grading.fill_ns": { "count": 8, "sum": 91235, "buckets": [[14, 8]] }
    ///   }
    /// }
    /// ```
    ///
    /// Metric names are registry-validated to need no JSON escaping, so
    /// the output is plain-text stable.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{name}\": {v}");
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, h) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{ \"count\": {}, \"sum\": {}, \"buckets\": [",
                h.name, h.count, h.sum
            );
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{idx}, {n}]");
            }
            out.push_str("] }");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }

    /// Parses the JSON produced by [`Snapshot::to_json`] (any
    /// whitespace layout). Unknown top-level keys are rejected so a
    /// truncated or foreign file fails loudly rather than reading as an
    /// empty snapshot.
    pub fn from_json(text: &str) -> Result<Snapshot, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let snap = p.snapshot()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(snap)
    }

    /// Serializes to Prometheus text exposition format. Names are
    /// prefixed `lbist_` with `.`/`-` mapped to `_`; histograms emit
    /// cumulative `_bucket{le="..."}` series plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
        }
        for (name, v) in &self.gauges {
            let name = prom_name(name);
            let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
        }
        for h in &self.histograms {
            let name = prom_name(&h.name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for &(idx, n) in &h.buckets {
                cumulative = cumulative.wrapping_add(n);
                let le = bucket_upper_bound(idx as usize);
                if le == u64::MAX {
                    // The top bucket's bound is +Inf in Prometheus terms;
                    // the explicit +Inf series below already covers it.
                    continue;
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 6);
    out.push_str("lbist_");
    for b in name.bytes() {
        out.push(if b == b'.' || b == b'-' { '_' } else { b as char });
    }
    out
}

/// Minimal recursive-descent parser for the restricted JSON grammar
/// [`Snapshot::to_json`] emits: objects with unescaped string keys,
/// integer values, and `[index, count]` bucket pairs.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'"' {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                if s.bytes().any(|b| b == b'\\') {
                    return Err("escape sequences are not supported".to_string());
                }
                self.pos += 1;
                return Ok(s.to_string());
            }
            self.pos += 1;
        }
        Err("unterminated string".to_string())
    }

    fn uint(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(format!("expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|e| format!("bad integer at byte {start}: {e}"))
    }

    fn int(&mut self) -> Result<i64, String> {
        self.skip_ws();
        let neg = self.bytes.get(self.pos) == Some(&b'-');
        if neg {
            self.pos += 1;
        }
        let magnitude = self.uint()?;
        if neg {
            if magnitude > i64::MAX as u64 + 1 {
                return Err("integer out of i64 range".to_string());
            }
            Ok((magnitude as i64).wrapping_neg())
        } else {
            i64::try_from(magnitude).map_err(|_| "integer out of i64 range".to_string())
        }
    }

    /// Parses `{ "key": value, ... }`, calling `entry` per pair.
    fn object(
        &mut self,
        mut entry: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entry(self, key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn histogram(&mut self, name: String) -> Result<HistogramSnapshot, String> {
        let mut h = HistogramSnapshot { name, ..Default::default() };
        self.object(|p, key| match key.as_str() {
            "count" => {
                h.count = p.uint()?;
                Ok(())
            }
            "sum" => {
                h.sum = p.uint()?;
                Ok(())
            }
            "buckets" => {
                p.expect(b'[')?;
                if p.peek() == Some(b']') {
                    p.pos += 1;
                    return Ok(());
                }
                loop {
                    p.expect(b'[')?;
                    let idx = p.uint()?;
                    if idx >= NUM_BUCKETS as u64 {
                        return Err(format!("bucket index {idx} out of range"));
                    }
                    p.expect(b',')?;
                    let n = p.uint()?;
                    p.expect(b']')?;
                    h.buckets.push((idx as u32, n));
                    match p.peek() {
                        Some(b',') => p.pos += 1,
                        Some(b']') => {
                            p.pos += 1;
                            return Ok(());
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", p.pos)),
                    }
                }
            }
            other => Err(format!("unknown histogram field {other:?}")),
        })?;
        Ok(h)
    }

    fn snapshot(&mut self) -> Result<Snapshot, String> {
        let mut snap = Snapshot::default();
        self.object(|p, key| match key.as_str() {
            "counters" => p.object(|p, name| {
                let v = p.uint()?;
                snap.counters.push((name, v));
                Ok(())
            }),
            "gauges" => p.object(|p, name| {
                let v = p.int()?;
                snap.gauges.push((name, v));
                Ok(())
            }),
            "histograms" => p.object(|p, name| {
                let h = p.histogram(name)?;
                snap.histograms.push(h);
                Ok(())
            }),
            other => Err(format!("unknown snapshot field {other:?}")),
        })?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![("exec.steals".into(), 12), ("grading.batches".into(), 40)],
            gauges: vec![("serve.queue_depth".into(), -3)],
            histograms: vec![HistogramSnapshot {
                name: "grading.fill_ns".into(),
                count: 9,
                sum: 91235,
                buckets: vec![(0, 1), (14, 8)],
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let snap = sample();
        let parsed = Snapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn empty_round_trip() {
        let snap = Snapshot::default();
        assert_eq!(Snapshot::from_json(&snap.to_json()).unwrap(), snap);
    }

    #[test]
    fn rejects_garbage_and_unknown_fields() {
        assert!(Snapshot::from_json("").is_err());
        assert!(Snapshot::from_json("{}{}").is_err());
        assert!(Snapshot::from_json("{\"bogus\": {}}").is_err());
        assert!(Snapshot::from_json("{\"counters\": {\"x\": }}").is_err());
    }

    #[test]
    fn negative_gauges_survive() {
        let text = "{\"counters\":{},\"gauges\":{\"g\":-9223372036854775808},\"histograms\":{}}";
        let snap = Snapshot::from_json(text).unwrap();
        assert_eq!(snap.gauge("g"), Some(i64::MIN));
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("# TYPE lbist_exec_steals counter"));
        assert!(text.contains("lbist_exec_steals 12"));
        assert!(text.contains("# TYPE lbist_serve_queue_depth gauge"));
        assert!(text.contains("lbist_serve_queue_depth -3"));
        assert!(text.contains("# TYPE lbist_grading_fill_ns histogram"));
        // Bucket 0 (le=0) holds 1; cumulative through bucket 14 is 9.
        assert!(text.contains("lbist_grading_fill_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("lbist_grading_fill_ns_bucket{le=\"16383\"} 9"));
        assert!(text.contains("lbist_grading_fill_ns_bucket{le=\"+Inf\"} 9"));
        assert!(text.contains("lbist_grading_fill_ns_sum 91235"));
        assert!(text.contains("lbist_grading_fill_ns_count 9"));
    }
}
