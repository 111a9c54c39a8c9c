//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name, a start, an end, the span that caused it and the id
//! of the op it belongs to; op spans (`op.read`, `op.event`, …) are the
//! roots, and every call the op makes into the library is a child.  With
//! tracing off every method returns at its first branch, so the untraced
//! run that yields the end-to-end metrics pays one predictable branch per
//! call.  Spans are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// Busy time and call count of every span name.
#[derive(Clone, Copy, Default)]
pub struct Busy {
    pub calls: u64,
    pub ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Busy {
    /// Mean duration per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
    }

    /// Opens a root span with a fresh op id.
    pub fn begin_op(&mut self, name: &'static str) {
        if self.on {
            self.op += 1;
            self.open_span(name);
        }
    }

    /// Opens a child span of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if self.on {
            self.open_span(name);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if self.on {
            let end_ns = self.now_ns();
            let i = self.open.pop().expect("end() without a matching begin()");
            self.spans[i as usize].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a child span called `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Busy time per span name, self time included.
    pub fn busy(&self) -> BTreeMap<&'static str, Busy> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut busy: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let ns = span.end_ns - span.start_ns;
            let entry = busy.entry(span.name).or_default();
            entry.calls += 1;
            entry.ns += ns;
            entry.self_ns += ns.saturating_sub(child);
        }
        busy
    }

    /// Writes every span as one tab-separated line:
    /// `id parent op name start_ns end_ns` (`parent` is `-` for roots).
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(out, "{id}\t{parent}\t{}\t{}\t{}\t{}", s.op, s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.begin_op("op.read");
        tr.call("serving.query_totals", || std::thread::sleep(std::time::Duration::from_millis(2)));
        tr.end();
        let busy = tr.busy();
        let op = busy["op.read"];
        let call = busy["serving.query_totals"];
        assert_eq!((op.calls, call.calls), (1, 1));
        assert!(call.ns >= 2_000_000);
        assert_eq!(op.self_ns, op.ns - call.ns);

        let mut off = Tracer::new(false);
        off.begin_op("op.read");
        off.call("serving.query_totals", || ());
        off.end();
        assert!(off.busy().is_empty());
    }
}
