//! Spans recorded from outside: the harness opens one around each call
//! it makes into a layer's public function.
//!
//! Each load thread owns a [`Tracer`]. Spans go into a buffer allocated
//! before the measured phase; once it is full, later spans are only
//! aggregated (count, total and self time per name), so the numbers cover
//! the whole phase while the trace file stays bounded. Self time is a
//! span's duration minus the duration of the spans opened inside it. With
//! tracing off, `open` and `close` read no clock and touch no memory.

use std::io::Write;
use std::time::Instant;

/// Span names; a span stores the index.
pub const NAMES: [&str; 15] = [
    "bench.op",
    "bench.verify",
    "core.run_txn",
    "core.open_dir",
    "core.crash",
    "checkpoint.begin",
    "checkpoint.step",
    "shard.read_committed",
    "shard.run_txn",
    "shard.open_dir",
    "server.get_rt",
    "server.batch_rt",
    "server.batch_cross_rt",
    "server.shutdown",
    "setup.build",
];

/// Index into [`NAMES`].
pub type Name = u16;

/// Looks a span name up; panics on a name that is not in the table.
pub fn name(s: &str) -> Name {
    NAMES
        .iter()
        .position(|n| *n == s)
        .unwrap_or_else(|| panic!("span name {s} is not in trace::NAMES")) as Name
}

const NO_PARENT: u32 = u32::MAX;

/// Spans kept per thread for the trace file.
pub const SPAN_CAPACITY: usize = 150_000;

struct Span {
    name: Name,
    parent: u32,
    seq: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: Name,
    index: u32,
    start_ns: u64,
    children_ns: u64,
}

/// Count, total time and self time of one span name.
#[derive(Clone, Copy, Default)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of durations minus child spans, ns.
    pub self_ns: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    on: bool,
    thread: usize,
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    agg: [Agg; NAMES.len()],
    stack: Vec<Open>,
    top_level_ns: u64,
}

impl Tracer {
    /// A recorder for load thread `thread`; `epoch` is shared by all
    /// threads of a run so their spans line up.
    pub fn new(on: bool, thread: usize, epoch: Instant) -> Tracer {
        Tracer {
            on,
            thread,
            epoch,
            spans: Vec::with_capacity(if on { SPAN_CAPACITY } else { 0 }),
            dropped: 0,
            agg: [Agg::default(); NAMES.len()],
            stack: Vec::with_capacity(8),
            top_level_ns: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, 0, Instant::now())
    }

    /// Opens a span; `seq` is the op sequence number its spans share.
    #[inline]
    pub fn open(&mut self, name: Name, seq: u64) {
        if !self.on {
            return;
        }
        let index = if self.spans.len() < SPAN_CAPACITY {
            let parent = self.stack.last().map_or(NO_PARENT, |o| o.index);
            self.spans.push(Span {
                name,
                parent,
                seq,
                start_ns: 0,
                end_ns: 0,
            });
            (self.spans.len() - 1) as u32
        } else {
            self.dropped += 1;
            NO_PARENT
        };
        self.stack.push(Open {
            name,
            index,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            children_ns: 0,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let open = self.stack.pop().expect("close without open");
        let dur = end_ns - open.start_ns;
        let a = &mut self.agg[open.name as usize];
        a.count += 1;
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(open.children_ns);
        match self.stack.last_mut() {
            Some(parent) => parent.children_ns += dur,
            None => self.top_level_ns += dur,
        }
        if open.index != NO_PARENT {
            let s = &mut self.spans[open.index as usize];
            s.start_ns = open.start_ns;
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: Name, seq: u64, f: impl FnOnce() -> R) -> R {
        self.open(name, seq);
        let r = f();
        self.close();
        r
    }

    /// Time covered by this thread's top-level spans, ns.
    pub fn top_level_ns(&self) -> u64 {
        self.top_level_ns
    }

    /// Forgets the aggregates and coverage (the spans stay), so a phase
    /// can be measured on its own.
    pub fn reset_aggregates(&mut self) {
        self.agg = [Agg::default(); NAMES.len()];
        self.top_level_ns = 0;
    }

    /// The aggregate of one span name.
    #[cfg(test)]
    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }
}

/// Sums the aggregates of several threads.
pub fn merged(tracers: &[Tracer]) -> [Agg; NAMES.len()] {
    let mut out = [Agg::default(); NAMES.len()];
    for t in tracers {
        for (o, a) in out.iter_mut().zip(t.agg.iter()) {
            o.count += a.count;
            o.total_ns += a.total_ns;
            o.self_ns += a.self_ns;
        }
    }
    out
}

/// Writes every kept span as one JSON object per line, after a header
/// line. Span ids are `<thread>:<index>`; `op` is the shared op number.
pub fn write_jsonl(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    tracers: &[Tracer],
) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let kept: usize = tracers.iter().map(|t| t.spans.len()).sum();
    let dropped: u64 = tracers.iter().map(|t| t.dropped).sum();
    writeln!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"threads\":{},\"spans_kept\":{kept},\"spans_aggregated_only\":{dropped}}}",
        tracers.len()
    )?;
    for t in tracers {
        for (i, s) in t.spans.iter().enumerate() {
            write!(
                w,
                "{{\"id\":\"{}:{i}\",\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}",
                t.thread, NAMES[s.name as usize], s.seq, s.start_ns, s.end_ns
            )?;
            if s.parent != NO_PARENT {
                write!(w, ",\"parent\":\"{}:{}\"", t.thread, s.parent)?;
            }
            writeln!(w, "}}")?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true, 0, Instant::now());
        let (op, child) = (name("bench.op"), name("core.run_txn"));
        t.open(op, 1);
        t.span(child, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close();
        let (a_op, a_child) = (t.agg(op), t.agg(child));
        assert_eq!((a_op.count, a_child.count), (1, 1));
        assert!(a_child.total_ns >= 5_000_000);
        assert_eq!(a_op.self_ns, a_op.total_ns - a_child.total_ns);
        assert_eq!(t.top_level_ns(), a_op.total_ns);
        assert_eq!(t.spans[1].parent, 0);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        t.span(name("bench.op"), 1, || ());
        assert_eq!(t.agg(name("bench.op")).count, 0);
        assert!(t.spans.is_empty());
    }
}
