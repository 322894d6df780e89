//! Spans recorded by the benchmark around its calls into each layer.
//! They are kept in memory and written out when the run ends; a span's
//! self time is its duration minus that of its children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.contained`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the parent span in the same log, if any.
    pub parent: Option<usize>,
    /// The request (or replayed item) the span belongs to.
    pub req: u64,
}

impl Span {
    /// Duration in µs.
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// The shared clock spans are measured against.
pub struct Tracer {
    epoch: Instant,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A finished span.
    pub fn span(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Span {
        Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        }
    }
}

/// An append-only span log for single-threaded replays, where spans
/// nest.
pub struct SpanLog<'t> {
    tracer: &'t Tracer,
    /// The recorded spans, parents before their children are closed.
    pub spans: Vec<Span>,
}

impl<'t> SpanLog<'t> {
    /// An empty log on `tracer`'s clock.
    pub fn new(tracer: &'t Tracer) -> SpanLog<'t> {
        SpanLog {
            tracer,
            spans: Vec::new(),
        }
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = Instant::now();
        self.spans
            .push(self.tracer.span(name, now, now, parent, req));
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.tracer.ns(Instant::now());
    }

    /// Runs `f` inside a span named `name` and returns its result.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, req);
        let r = f();
        self.close(id);
        r
    }
}

/// Per-name totals: count, mean duration and mean self time, µs.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanStat {
    /// Spans with this name.
    pub count: u64,
    /// Mean duration, µs.
    pub mean_us: f64,
    /// Mean self time (duration minus children), µs.
    pub self_us: f64,
}

/// Aggregates `spans` (parent indices refer into the same slice).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanStat> {
    let mut child_us = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut acc: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = acc.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_us();
        e.2 += s.dur_us() - child_us[i];
    }
    acc.into_iter()
        .map(|(k, (n, tot, own))| {
            (
                k,
                SpanStat {
                    count: n,
                    mean_us: tot / n as f64,
                    self_us: own / n as f64,
                },
            )
        })
        .collect()
}

/// Writes `spans` as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            f,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.req
        )?;
    }
    f.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "a",
                start_ns: 0,
                end_ns: 10_000,
                parent: None,
                req: 0,
            },
            Span {
                name: "b",
                start_ns: 1_000,
                end_ns: 4_000,
                parent: Some(0),
                req: 0,
            },
            Span {
                name: "b",
                start_ns: 5_000,
                end_ns: 6_000,
                parent: Some(0),
                req: 0,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["a"].count, 1);
        assert!((s["a"].self_us - 6.0).abs() < 1e-9);
        assert!((s["b"].mean_us - 2.0).abs() < 1e-9);
    }
}
