//! In-memory spans recorded by the benchmark around calls into each
//! layer's public functions. Spans are kept in memory while the run is
//! measured and written out once it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: the layer call it wraps, the request it belongs
/// to, and the span that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub trace_id: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span in microseconds (0 when none ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean self time per span in microseconds.
    pub fn mean_self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A single-threaded span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its handle.
    pub fn begin(&mut self, name: &'static str, trace_id: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trace_id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records an already-measured interval (e.g. a client call timed on
    /// another thread), relative to this tracer's epoch.
    pub fn record(&mut self, name: &'static str, trace_id: u64, start: Instant, end: Instant) {
        let start_ns = crate::util::nanos_since(self.epoch, start);
        let end_ns = crate::util::nanos_since(self.epoch, end);
        self.spans.push(Span {
            name,
            trace_id,
            parent: None,
            start_ns,
            end_ns,
        });
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        trace_id: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, trace_id, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Totals per span name, self time included.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                // Children of one span run one after another here, so
                // their union is their sum (clamped to the parent).
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as CSV (`id,parent,trace_id,name,start_ns,end_ns`), at
    /// most `limit` rows, for writing out after the run.
    pub fn to_csv(&self, limit: usize) -> String {
        let mut out = String::from("id,parent,trace_id,name,start_ns,end_ns\n");
        for (i, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i},{parent},{},{},{},{}",
                s.trace_id, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
