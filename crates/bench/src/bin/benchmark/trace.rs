//! Spans recorded from the benchmark's own files, around the calls into
//! each layer: name, start, end, the span that caused it, and the
//! workload+repetition (or probe input) they share as `group`. Kept in
//! memory and written out when the run ends. A disabled tracer records
//! nothing, so untraced runs pay one branch per call site.

use crate::json::obj;
use serde_json::Value;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub group: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span and return its result with the elapsed
    /// nanoseconds. The clock is read either way, so traced and untraced
    /// runs time the same thing; only the recording is conditional.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        group: &str,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        if self.enabled {
            let start_ns = (start - self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: self.spans.len() as u32,
                parent,
                name,
                group: group.to_string(),
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        (out, ns)
    }

    /// Open a span that other spans nest under; closed by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, group: &str, parent: Option<u32>) -> Option<u32> {
        self.enabled.then(|| {
            let id = self.spans.len() as u32;
            let now = self.origin.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent,
                name,
                group: group.to_string(),
                start_ns: now,
                end_ns: now,
            });
            id
        })
    }

    pub fn close(&mut self, id: Option<u32>) {
        if let Some(span) = id.and_then(|id| self.spans.get_mut(id as usize)) {
            span.end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`, in recording order —
    /// which is input order for the probes, so two names recorded over
    /// the same inputs pair up index by index.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    obj(vec![
                        ("id", Value::U64(u64::from(s.id))),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::U64(u64::from(p))),
                        ),
                        ("name", Value::String(s.name.into())),
                        ("group", Value::String(s.group.clone())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}
