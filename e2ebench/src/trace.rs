//! In-memory span recording for the traced in-process replay.
//!
//! A span is `(name, op, parent, start, end)`; spans of one op share the op
//! index.  Spans stay in memory and are written out once, at exit.  With
//! recording off, [`Tracer::time`] only runs the closure, so the untraced
//! replay pays nothing for the instrumentation.

use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::close`].  `None` when off.
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    /// Renames an open or closed span (a layer known only after the call).
    pub fn rename(&mut self, id: Option<usize>, name: &'static str) {
        if let Some(id) = id {
            self.spans[id].name = name;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, op, parent);
        let result = f();
        self.close(id);
        result
    }

    /// Per-name total duration (ns) of the direct children of span `parent`.
    /// Call it when `parent` has just closed: only its descendants follow it.
    pub fn child_totals(&self, parent: Option<usize>) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        let Some(parent) = parent else {
            return totals;
        };
        for span in self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent))
        {
            let ns = span.end_ns - span.start_ns;
            match totals.iter_mut().find(|(name, _)| *name == span.name) {
                Some((_, total)) => *total += ns,
                None => totals.push((span.name, ns)),
            }
        }
        totals
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, out: &mut impl Write) -> io::Result<()> {
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                span.name, span.op, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
