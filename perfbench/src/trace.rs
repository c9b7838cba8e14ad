//! The traced run's recorder: one span per call into a layer's public
//! function, grouped under the client operation that made the call.
//!
//! Untraced rounds construct the recorder switched off; every method then
//! returns at its first branch, so end-to-end numbers carry no tracing cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use dss_pmem::StatsSnapshot;

use crate::hist::Hist;

/// Spans kept in memory per recorder. Layer percentiles use every call;
/// the span log keeps the first calls up to this cap so a traced run's
/// memory and output file stay bounded.
pub const SPAN_CAP: usize = 100_000;

/// Marks a span with no parent.
const ROOT: u32 = u32::MAX;

/// One timed call: a layer call, or the client operation that groups them.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The layer function (or client operation) name.
    pub name: &'static str,
    /// The client operation this span belongs to.
    pub op: u64,
    /// Index of the parent span in the same recorder, or `u32::MAX`.
    pub parent: u32,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Per-thread span recorder and per-layer aggregates.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    /// Kept spans, in start order of their client operations.
    pub spans: Vec<Span>,
    /// Latency of every call, per layer function.
    pub calls: BTreeMap<&'static str, Hist>,
    /// pmem primitive counts and operation count per operation class.
    pub counts: BTreeMap<&'static str, (StatsSnapshot, u64)>,
    /// Self time of each client operation: its span minus its children.
    pub op_self: Hist,
    /// Time inside layer calls.
    pub layer_ns: u64,
    /// Time in the measured loops outside every layer call: the
    /// benchmark loop's own work (op choice, checks, bookkeeping).
    pub loop_self_ns: u64,
    /// Client operations run in the measured loops.
    pub loop_ops: u64,
    op_seq: u64,
    open: Option<(u32, Instant, u64)>,
}

impl Tracer {
    /// A recorder; `on == false` makes every method a no-op.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            calls: BTreeMap::new(),
            counts: BTreeMap::new(),
            op_self: Hist::default(),
            layer_ns: 0,
            loop_self_ns: 0,
            loop_ops: 0,
            op_seq: 0,
            open: None,
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether this recorder records.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens the span of a client operation; layer calls until
    /// [`end_op`](Self::end_op) become its children.
    #[inline]
    pub fn begin_op(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.op_seq += 1;
        let now = Instant::now();
        let idx = if self.spans.len() < SPAN_CAP {
            let start_ns = self.ns(now);
            self.spans.push(Span { name, op: self.op_seq, parent: ROOT, start_ns, end_ns: 0 });
            (self.spans.len() - 1) as u32
        } else {
            ROOT
        };
        self.open = Some((idx, now, 0));
    }

    /// Closes the open client operation and records its self time.
    #[inline]
    pub fn end_op(&mut self) {
        if !self.on {
            return;
        }
        let Some((idx, start, child_ns)) = self.open.take() else { return };
        let now = Instant::now();
        let total = now.duration_since(start).as_nanos() as u64;
        self.op_self.record(total.saturating_sub(child_ns));
        if idx != ROOT {
            self.spans[idx as usize].end_ns = self.ns(now);
        }
    }

    /// Runs `f` as one call into a layer, timing it as a span.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        let d = t1.duration_since(t0).as_nanos() as u64;
        self.calls.entry(name).or_default().record(d);
        self.layer_ns += d;
        let parent = match &mut self.open {
            Some((idx, _, child_ns)) => {
                *child_ns += d;
                *idx
            }
            None => ROOT,
        };
        if self.spans.len() < SPAN_CAP {
            let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
            let op = if parent == ROOT { 0 } else { self.op_seq };
            self.spans.push(Span { name, op, parent, start_ns, end_ns });
        }
        r
    }

    /// Adds `ops` operations of `class` that executed `delta` pmem
    /// primitives.
    pub fn count(&mut self, class: &'static str, delta: StatsSnapshot, ops: u64) {
        if !self.on {
            return;
        }
        let e = self.counts.entry(class).or_default();
        add_stats(&mut e.0, &delta);
        e.1 += ops;
    }

    /// Adds a measured loop of `ops` client operations that lasted `ns`
    /// and started when [`layer_ns`](Self::layer_ns) read `layer_ns0`.
    pub fn add_loop(&mut self, ns: u64, ops: u64, layer_ns0: u64) {
        if self.on {
            self.loop_self_ns += ns.saturating_sub(self.layer_ns - layer_ns0);
            self.loop_ops += ops;
        }
    }

    /// Folds another recorder's aggregates and spans into this one.
    pub fn merge(&mut self, other: Tracer) {
        self.on |= other.on;
        for (name, h) in &other.calls {
            self.calls.entry(name).or_default().merge(h);
        }
        for (class, (s, n)) in &other.counts {
            let e = self.counts.entry(class).or_default();
            add_stats(&mut e.0, s);
            e.1 += n;
        }
        self.op_self.merge(&other.op_self);
        self.layer_ns += other.layer_ns;
        self.loop_self_ns += other.loop_self_ns;
        self.loop_ops += other.loop_ops;
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        let base = self.spans.len() as u32;
        let op_base = self.op_seq;
        self.op_seq += other.op_seq;
        self.spans.extend(other.spans.into_iter().take(room).map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            if s.op != 0 {
                s.op += op_base;
            }
            s
        }));
    }

    /// Writes the span log as CSV (`name,op,parent,start_ns,end_ns`;
    /// parent is a 0-based row index, empty for a root span).
    pub fn write_spans(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name,op,parent,start_ns,end_ns")?;
        for s in &self.spans {
            let parent = if s.parent == ROOT { String::new() } else { s.parent.to_string() };
            writeln!(out, "{},{},{},{},{}", s.name, s.op, parent, s.start_ns, s.end_ns)?;
        }
        Ok(())
    }
}

/// Counter-wise `acc += d`.
pub fn add_stats(acc: &mut StatsSnapshot, d: &StatsSnapshot) {
    acc.loads += d.loads;
    acc.stores += d.stores;
    acc.cas_ok += d.cas_ok;
    acc.cas_fail += d.cas_fail;
    acc.flushes += d.flushes;
    acc.flushes_coalesced += d.flushes_coalesced;
    acc.fences += d.fences;
}
