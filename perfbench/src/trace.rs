//! In-memory span recorder for the traced run.
//!
//! The benchmark brackets each call it makes into a layer's public API with
//! a span: a name (`<layer>.<call>`), a start, an end, a parent and the
//! number of layer operations inside it (a batch span around 1 024
//! `EventQueue::schedule_at`+`pop` pairs has `ops = 1024`). Threads record
//! into their own [`SpanBuf`] and hand the spans to the shared [`Tracer`]
//! when the buffer drops; the tracer writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u32,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    /// `<layer>.<call>[.<qualifier>]`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Layer operations the span covers (1 for a single call).
    pub ops: u32,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Shared span store of one traced run.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// A per-thread buffer feeding this tracer.
    pub fn buf(self: &Arc<Self>) -> SpanBuf {
        SpanBuf {
            tracer: Arc::clone(self),
            spans: Vec::new(),
        }
    }

    /// Every span handed in so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// A thread's span buffer; spans reach the tracer when it drops.
pub struct SpanBuf {
    tracer: Arc<Tracer>,
    spans: Vec<Span>,
}

impl SpanBuf {
    /// Reserve an id for a span whose children are recorded before it ends.
    pub fn open(&self) -> u32 {
        self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a span under a reserved id.
    pub fn close(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        ops: u32,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.tracer.ns(start),
            end_ns: self.tracer.ns(end),
            ops,
        });
    }

    /// Record a leaf span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        ops: u32,
    ) -> u32 {
        let id = self.open();
        self.close(id, name, parent, start, end, ops);
        id
    }
}

impl Drop for SpanBuf {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned store still takes the spans.
        let mut store = match self.tracer.spans.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        };
        store.append(&mut self.spans);
    }
}

/// Record through an optional buffer (tracing off: nothing, id 0).
pub fn rec(
    buf: &mut Option<SpanBuf>,
    name: &'static str,
    parent: u32,
    start: Instant,
    end: Instant,
    ops: u32,
) -> u32 {
    match buf {
        Some(b) => b.record(name, parent, start, end, ops),
        None => 0,
    }
}

/// Per-operation durations (ns) of every span called `name`.
pub fn per_op_ns(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && s.ops > 0)
        .map(|s| s.dur_ns() / f64::from(s.ops))
        .collect()
}

/// Self time per layer, in seconds: each span's duration minus the part
/// of it that its child spans cover, summed by layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
        *out.entry(s.layer()).or_default() += own as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// Write every span as one tab-separated line:
/// `id parent name start_ns end_ns ops`.
pub fn write_tsv(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\tname\tstart_ns\tend_ns\tops")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.ops
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let t = Tracer::new();
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        {
            let mut b = t.buf();
            let root = b.open();
            // Two overlapping children cover 2..7 = 5 ms of the 10 ms root.
            b.record("rt.put", root, at(2), at(5), 1);
            b.record("rt.wait", root, at(4), at(7), 1);
            b.close(root, "bench.block", 0, at(0), at(10), 1);
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        let st = self_time_by_layer(&spans);
        assert!((st["bench"] - 0.005).abs() < 1e-9);
        assert!((st["rt"] - 0.006).abs() < 1e-9);
        assert_eq!(per_op_ns(&spans, "rt.put"), vec![3e6]);
    }
}
