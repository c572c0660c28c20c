//! Benchmark-side span recorder.
//!
//! Spans are recorded by the benchmark's own code around each public call
//! into a layer of the program (name, start, end, parent, and the run id
//! every span of one run shares). They are kept in memory and written out
//! once, when the run ends. A disabled tracer records nothing and reads no
//! clock, so the untraced pass that produces the end-to-end metrics pays
//! one branch per span site.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (unique within the run, never 0).
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Layer-qualified name, e.g. `cfd.physics_solve`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Counts recorded at the same boundary (iterations, cells, ...).
    pub attrs: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Value of a recorded count (0 when absent).
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// In-memory span store for one run.
pub struct Tracer {
    enabled: bool,
    run_id: u64,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recording tracer; `run_id` tags every span it writes out.
    pub fn new(run_id: u64) -> Tracer {
        Tracer {
            enabled: true,
            run_id,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(0)
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under `parent` (0 = root); it ends when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                span: None,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        SpanGuard {
            tracer: self,
            span: Some(Span {
                id,
                parent,
                name,
                start_ns,
                end_ns: start_ns,
                attrs: Vec::new(),
            }),
        }
    }

    /// Record a span whose interval was measured elsewhere (an open-loop
    /// request runs from its due time to its reply, across two threads).
    pub fn record(&self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.push(Span {
            id,
            parent,
            name,
            start_ns: at(start),
            end_ns: at(end),
            attrs: Vec::new(),
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking benchmark thread")
            .push(span);
    }

    /// Every finished span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking benchmark thread")
            .clone()
    }

    /// Finished spans called `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans()
            .into_iter()
            .filter(|s| s.name == name)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.named(name).iter().map(Span::seconds).sum()
    }

    /// Sum of the count `key` over spans called `name`.
    pub fn attr_sum(&self, name: &str, key: &str) -> f64 {
        self.named(name).iter().map(|s| s.attr(key)).sum()
    }

    /// Self time of the spans called `name`: their duration minus the
    /// part of it their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let spans = self.spans();
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered: u64 = spans
                    .iter()
                    .filter(|c| c.parent == s.id)
                    .map(|c| {
                        c.end_ns
                            .min(s.end_ns)
                            .saturating_sub(c.start_ns.max(s.start_ns))
                    })
                    .sum();
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9
            })
            .sum()
    }

    /// Write every span as one JSON object per line after a `header`
    /// line, creating the parent directory if needed.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for s in self.spans() {
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", crate::report::json_num(*v)))
                .collect();
            writeln!(
                out,
                "{{\"run\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{{}}}}}",
                self.run_id,
                s.id,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                attrs.join(",")
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    span: Option<Span>,
}

impl SpanGuard<'_> {
    /// This span's id, to parent child spans under it (0 when disabled).
    pub fn id(&self) -> u64 {
        self.span.as_ref().map_or(0, |s| s.id)
    }

    /// Record a count at this boundary.
    pub fn attr(&mut self, key: &'static str, value: f64) {
        if let Some(s) = &mut self.span {
            s.attrs.push((key, value));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.end_ns = self.tracer.now_ns();
            // Never panic in drop: a poisoned store just loses the span.
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let mut s = t.span("core.plan", 0);
            s.attr("patches", 3.0);
            assert_eq!(s.id(), 0);
        }
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(7);
        let t0 = t.epoch;
        let ms = std::time::Duration::from_millis;
        let root = t.record("amr.run", 0, t0, t0 + ms(10));
        t.record("cfd.solve", root, t0 + ms(1), t0 + ms(7));
        t.record("amr.indicator", root, t0 + ms(7), t0 + ms(8));
        assert!((t.self_s("amr.run") - 0.003).abs() < 1e-9);
        assert!((t.total_s("cfd.solve") - 0.006).abs() < 1e-9);
    }
}
