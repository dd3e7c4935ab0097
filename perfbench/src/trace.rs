//! In-memory spans recorded around the benchmark's calls into the
//! program, written out once when the run ends.
//!
//! A span has a name, the layer (crate) the call enters, a start and an
//! end, its parent span and the id of the operation it belongs to.
//! Allocation bytes and calls come from the program's own allocator
//! ledger (`tpiin::obs::alloc::checkpoint`/`consume`), which is
//! per-thread: work a call fans out to other threads is not counted.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tpiin::obs::alloc;

/// Operation id of spans recorded by the per-layer sweep rather than by
/// a workload operation.
pub const SWEEP_OP: u64 = 0;

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub op: u64,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub alloc_bytes: u64,
    pub allocs: u64,
}

impl SpanRecord {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans from any number of threads.
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; `f` gets the span's id to parent the
    /// spans it opens itself.
    pub fn span<R>(
        &self,
        op: u64,
        parent: u64,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let ledger = alloc::checkpoint();
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let used = alloc::consume(ledger);
        self.spans
            .lock()
            .expect("no span recorder panicked while holding the lock")
            .push(SpanRecord {
                id,
                parent,
                op,
                layer,
                name,
                start_ns: start,
                end_ns: end,
                alloc_bytes: used.alloc_bytes,
                allocs: used.allocs,
            });
        out
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .expect("no span recorder panicked while holding the lock")
            .clone()
    }
}

/// Writes spans as one JSON object per line.
pub fn write_jsonl(spans: &[SpanRecord], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"alloc_bytes\":{},\"allocs\":{}}}",
            s.id, s.parent, s.op, s.layer, s.name, s.start_ns, s.end_ns, s.alloc_bytes, s.allocs
        )?;
    }
    out.flush()
}

/// Runs `f` inside a span when tracing, or directly (with parent id 0)
/// when not — the untraced path adds no clock reads.
pub fn traced<R>(
    tracer: Option<&Tracer>,
    op: u64,
    parent: u64,
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce(u64) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(op, parent, layer, name, f),
        None => f(0),
    }
}

/// Self time per layer, in ms: each span's duration minus the time its
/// child spans cover, summed by layer, over the spans `keep` selects.
/// Children of one span run one after another on its thread, so their
/// durations do not overlap.
pub fn self_time_by_layer(
    spans: &[SpanRecord],
    keep: impl Fn(&SpanRecord) -> bool,
) -> BTreeMap<&'static str, f64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s) && s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| keep(s)) {
        let own = s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *by_layer.entry(s.layer).or_default() += own as f64 / 1e6;
    }
    by_layer
}
