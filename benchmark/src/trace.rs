//! In-memory spans recorded by the driver around its calls into each
//! layer. Nothing is written until the run ends.
//!
//! A span has a name, start and end (ns since the tracer's epoch), the
//! span that caused it, and the round it belongs to. A layer's self
//! time is its span minus the part its children cover.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub round: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records nothing and reads no clock.
    pub fn off() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on() -> Self {
        Self {
            on: true,
            ..Self::off()
        }
    }

    /// Switches recording; the driver alternates traced and untraced
    /// blocks of rounds to price the tracing itself.
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// The clock reading a span starts at (0 when off).
    pub fn start(&self) -> u64 {
        if self.on {
            self.epoch.elapsed().as_nanos() as u64
        } else {
            0
        }
    }

    /// Opens a span that will have children; close it with
    /// [`Self::close`]. Returns its id ([`NO_PARENT`] when off).
    pub fn open(&mut self, name: &'static str, parent: u32, round: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start = self.start();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            round,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn close(&mut self, id: u32) {
        if self.on && id != NO_PARENT {
            self.spans[id as usize].end = self.start();
        }
    }

    /// Records a leaf span that began at `start` and ends now.
    pub fn leaf(&mut self, name: &'static str, start: u64, parent: u32, round: u64) {
        if self.on {
            let end = self.start();
            self.spans.push(Span {
                name,
                start,
                end,
                parent,
                round,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_owned()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"round\": {}}}",
                s.name, s.start, s.end, s.round
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
}

/// Totals by span name. Children are attributed to their direct parent
/// only, so self times over a tree sum to the root's duration.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (id, s) in spans.iter().enumerate() {
        let t = out.entry(s.name).or_default();
        let dur = s.end - s.start;
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns[id]);
    }
    out
}

/// Share of root-span time that direct children explain: the "no
/// unexplained layer" figure (1.0 = every nanosecond of every `root`
/// span lies inside one of its children).
pub fn explained_share(spans: &[Span], root: &'static str) -> f64 {
    let mut root_ns = 0u64;
    let mut child_ns = 0u64;
    for s in spans {
        if s.name == root {
            root_ns += s.end - s.start;
        } else if s.parent != NO_PARENT && spans[s.parent as usize].name == root {
            child_ns += s.end - s.start;
        }
    }
    if root_ns == 0 {
        return 0.0;
    }
    child_ns as f64 / root_ns as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("inject", 0, 30, 0),
            span("control", 30, 70, 0),
            span("diff", 30, 40, 2),
            span("apply", 40, 68, 2),
            span("drain", 70, 98, 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["round"].self_ns, 2, "100 - (30 + 40 + 28)");
        assert_eq!(t["control"].self_ns, 2, "40 - (10 + 28)");
        assert_eq!(t["control"].total_ns, 40);
        assert_eq!(t["inject"].self_ns, 30);
        // Self times over the tree sum to the root's duration.
        let sum: u64 = t.values().map(|n| n.self_ns).sum();
        assert_eq!(sum, 100);
        // Grandchildren do not count toward the root's explained share.
        assert_eq!(explained_share(&spans, "round"), 0.98);
        assert_eq!(explained_share(&spans, "missing"), 0.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut tr = Tracer::off();
        let id = tr.open("round", NO_PARENT, 1);
        let s = tr.start();
        tr.leaf("inject", s, id, 1);
        tr.close(id);
        assert_eq!((id, s), (NO_PARENT, 0));
        assert!(tr.spans().is_empty());
        tr.set(true);
        let id = tr.open("round", NO_PARENT, 2);
        let s = tr.start();
        tr.leaf("inject", s, id, 2);
        tr.close(id);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, 0);
        assert!(tr.spans()[0].end >= tr.spans()[1].end);
    }
}
