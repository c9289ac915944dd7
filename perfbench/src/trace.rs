//! Bench-side span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a layer's
//! public functions: name (`layer.operation`), start, end, parent, and the
//! request or app id they belong to. They stay in memory and are written
//! out as JSON lines when the run ends. A layer's self time is its spans'
//! durations minus the part of each interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records nested spans on one thread. A disabled tracer records nothing
/// and costs one branch per call.
pub struct Tracer {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

/// Ends its span when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let now = self.tracer.now_ns();
            let mut inner = self.tracer.inner.borrow_mut();
            inner.spans[index].end_ns = now;
            if let Some(pos) = inner.open.iter().rposition(|&i| i == index) {
                inner.open.remove(pos);
            }
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Nanoseconds since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn span(&self, name: &'static str, id: u64) -> Guard<'_> {
        if !self.on {
            return Guard {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let index = inner.spans.len();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        inner.open.push(index);
        Guard {
            tracer: self,
            index: Some(index),
        }
    }

    /// Record an already-finished interval under the innermost open span
    /// (used for client-side request spans measured by the load generator).
    pub fn record(&self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let parent = inner.open.last().copied();
        inner.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.borrow().spans.clone()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.inner.borrow().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time summed per layer over the spans `keep` selects, in ns.
pub fn self_by_layer(spans: &[Span], keep: &[bool]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for ((s, t), _) in spans
        .iter()
        .zip(self_times(spans))
        .zip(keep)
        .filter(|(_, k)| **k)
    {
        *out.entry(s.layer()).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70).
        let spans = vec![
            span("root.run", None, 0, 100),
            span("a.step", Some(0), 10, 40),
            span("a.inner", Some(1), 15, 25),
            span("b.step", Some(0), 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let layers = self_by_layer(&spans, &[true; 4]);
        assert_eq!(layers["root"], 50);
        assert_eq!(layers["a"], 30);
        assert_eq!(layers["b"], 20);
        // Self times partition the root's wall time exactly.
        assert_eq!(layers.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("p.x", None, 0, 100),
            span("c.x", Some(0), 10, 60),
            span("c.y", Some(0), 40, 80),
            // Spills past the parent's end: clipped.
            span("c.z", Some(0), 90, 130),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70 - 10);
    }

    #[test]
    fn tracer_nests_by_scope_and_records_external_spans() {
        let tracer = Tracer::new(true);
        {
            let _outer = tracer.span("outer.a", 1);
            {
                let _inner = tracer.span("inner.b", 2);
            }
            tracer.record("client.req", 3, 5, 6);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[2].dur_ns(), 1);

        let off = Tracer::new(false);
        {
            let _g = off.span("x.y", 0);
            off.record("x.z", 0, 0, 1);
        }
        assert!(off.spans().is_empty());
    }
}
