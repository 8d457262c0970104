//! Spans recorded from the benchmark's own files, around the calls
//! into each layer, and the per-layer table aggregated from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The request this span belongs to (index into the replayed
    /// script).
    pub request: u32,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; nothing is written until the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn set_request(&mut self, request: u32) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            request: self.request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Per span name: how many, their total time, and their self time
    /// (duration minus the part covered by child spans).
    pub fn table(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let row = rows.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            row.count += 1;
            row.total_ns += total;
            row.self_ns += total.saturating_sub(covered);
        }
        rows
    }

    /// One JSON object per line: the raw spans.
    pub fn dump_spans(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.request, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct LayerRow {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// The aggregated table as aligned text, widest self time first.
pub fn render_table(rows: &BTreeMap<&'static str, LayerRow>, requests: usize) -> String {
    let mut sorted: Vec<_> = rows.iter().collect();
    sorted.sort_by_key(|(_, r)| std::cmp::Reverse(r.self_ns));
    let mut out = format!(
        "{:<28} {:>8} {:>14} {:>14} {:>12}\n",
        "span", "count", "total_us", "self_us", "self_us/req"
    );
    for (name, r) in sorted {
        let _ = writeln!(
            out,
            "{:<28} {:>8} {:>14.1} {:>14.1} {:>12.2}",
            name,
            r.count,
            r.total_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3,
            r.self_ns as f64 / 1e3 / requests.max(1) as f64
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new();
        tr.span("outer", |tr| {
            tr.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            tr.span("inner", |_| ());
        });
        let table = tr.table();
        let (outer, inner) = (table["outer"], table["inner"]);
        assert_eq!((outer.count, inner.count), (1, 2));
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[0].parent, None);
    }
}
