//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark itself, around its calls into each
//! layer's public functions; nothing is added inside the program. Every
//! span carries the id of the operation (solve, request, trace) it belongs
//! to and the id of the span that caused it. A layer's self time is its
//! spans' duration minus the part covered by their child spans.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique span id (never 0).
    pub id: u64,
    /// Id of the causing span, 0 for an operation's root span.
    pub parent: u64,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer boundary name, e.g. `candidates.enumerate`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Per-thread span buffer. Threads of one traced run share an epoch and
/// use disjoint id ranges, so their buffers merge without renumbering.
pub struct Recorder {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder for thread number `thread` of a run started at `epoch`.
    pub fn new(epoch: Instant, thread: u64) -> Self {
        Self {
            epoch,
            next_id: (thread << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserves a span id, for a span opened before its children.
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a closed span under a reserved id.
    pub fn record(
        &mut self,
        id: u64,
        parent: u64,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &mut self,
        parent: u64,
        op: u64,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, op, name, start, Instant::now());
        out
    }

    /// Moves every span of `other` into this buffer.
    pub fn absorb(&mut self, other: Recorder) {
        self.spans.extend(other.spans);
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` inside a span when tracing, or just runs it (no clock read)
/// when `rec` is `None`.
pub fn maybe<R>(
    rec: &mut Option<&mut Recorder>,
    parent: u64,
    op: u64,
    name: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => r.span(parent, op, name, f),
        None => f(),
    }
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Summed self time (duration minus child spans), nanoseconds.
    pub self_ns: u64,
}

/// Self time and span count per span name.
pub fn layer_times(spans: &[Span]) -> HashMap<&'static str, LayerTime> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, LayerTime> = HashMap::new();
    for s in spans {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes the spans as JSON lines (`trace`-style: name, op, id, parent,
/// start and duration in microseconds).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"op\":{},\"id\":{},\"parent\":{},\"start_us\":{:.3},\"dur_us\":{:.3}}}",
            s.name,
            s.op,
            s.id,
            s.parent,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mk = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        };
        let spans = vec![
            mk(1, 0, "root", 0, 100),
            mk(2, 1, "a", 10, 40),
            mk(3, 1, "b", 50, 70),
            mk(4, 2, "c", 15, 20),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].self_ns, 25);
        assert_eq!(t["b"].self_ns, 20);
        assert_eq!(t["c"].self_ns, 5);
    }
}
