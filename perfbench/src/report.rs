//! Metric names, units and values, and the result line.
//!
//! Every workload reports every metric: an end-to-end metric whose
//! operation a workload's main loop lacks comes from that workload's
//! per-round probe (see `NOTES.md`); a per-layer metric of a layer the
//! workload never calls reads 0.

use std::time::Instant;

use dss_pmem::{PAddr, PmemPool, StatsSnapshot};

use crate::hist::median;
use crate::{Kind, Outcome, FAST, FLUSH_PENALTY};

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Layer calls timed per call, and the percentiles reported for each.
const OP_CALLS: [&str; 9] = [
    "queue.prep_enqueue_us",
    "queue.exec_enqueue_us",
    "queue.prep_dequeue_us",
    "queue.exec_dequeue_us",
    "queue.peek_front_us",
    "map.get_us",
    "map.prep_put_us",
    "map.exec_put_us",
    "map.load_put_us",
];
const OP_PCTS: [(&str, f64); 4] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p99.9", 0.999)];
const RECOVERY_CALLS: [&str; 12] = [
    "queue.recover_us",
    "queue.begin_recovery_us",
    "queue.adopt_us",
    "queue.recover_one_us",
    "queue.resolve_us",
    "queue.rebuild_allocator_us",
    "map.begin_recovery_us",
    "map.adopt_orphans_us",
    "map.adopt_us",
    "map.resolve_us",
    "map.rebuild_allocator_us",
    "pmem.crash_us",
];
const RECOVERY_PCTS: [(&str, f64); 3] = [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)];
/// Operation classes the pmem counts are split by.
const CLASSES: [&str; 5] = ["queue", "read", "put", "recover_central", "recover_independent"];
const COUNTERS: [&str; 7] =
    ["loads", "stores", "cas_ok", "cas_fail", "flushes", "flushes_paid", "fences"];

fn counter(s: &StatsSnapshot, name: &str) -> u64 {
    match name {
        "loads" => s.loads,
        "stores" => s.stores,
        "cas_ok" => s.cas_ok,
        "cas_fail" => s.cas_fail,
        "flushes" => s.flushes,
        "flushes_paid" => s.flushes - s.flushes_coalesced,
        "fences" => s.fences,
        _ => unreachable!("unknown counter {name}"),
    }
}

/// Every end-to-end metric name, in report order.
pub fn end_to_end_names() -> Vec<String> {
    end_to_end(&Outcome::new(Instant::now()), 0.0).into_iter().map(|x| x.name).collect()
}

/// Every per-layer metric name, in report order.
pub fn per_layer_names() -> Vec<String> {
    per_layer(&Outcome::new(Instant::now()), 0.0).into_iter().map(|x| x.name).collect()
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(out: &Outcome, peak_rss_mb: f64) -> Vec<Metric> {
    let mut v = vec![
        m("setup_s", median(&out.setup_s), "s"),
        m("throughput_ops_s", out.throughput(), "ops/s"),
    ];
    for (name, kind) in [
        ("latency", Kind::Op),
        ("read", Kind::Read),
        ("update", Kind::Update),
        ("recover_central", Kind::Central),
        ("recover_independent", Kind::Independent),
    ] {
        let (p50, p90) = out.latency_us(kind);
        v.push(m(format!("{name}_p50_us"), p50, "us"));
        v.push(m(format!("{name}_p90_us"), p90, "us"));
    }
    v.push(m("ok_ratio", out.ok_ratio(), "ratio"));
    v.push(m("peak_rss_mb", peak_rss_mb, "MB"));
    v
}

/// The per-layer metrics of a traced run; `flush_us` is one flush's cost
/// ([`flush_us`]).
pub fn per_layer(out: &Outcome, flush_us: f64) -> Vec<Metric> {
    let tr = &out.tracer;
    let mut v = Vec::new();
    for (calls, pcts) in [(&OP_CALLS[..], &OP_PCTS[..]), (&RECOVERY_CALLS[..], &RECOVERY_PCTS[..])]
    {
        for call in calls {
            for (label, q) in pcts {
                let us = tr.calls.get(call).map_or(0.0, |h| h.quantile_us(*q));
                v.push(m(format!("{call}.{label}"), us, "us"));
            }
        }
    }
    v.push(m("queue.alloc_fail", out.alloc_fail as f64, "count"));
    let empty = (StatsSnapshot::default(), 0);
    for class in CLASSES {
        let (s, n) = tr.counts.get(class).unwrap_or(&empty);
        let per_op = |c: &str| counter(s, c) as f64 / (*n).max(1) as f64;
        for c in COUNTERS {
            v.push(m(format!("pmem.{c}_per_op.{class}"), per_op(c), "count/op"));
        }
        // 1 when the class ran but never CASed; 0 when it never ran.
        let cas = s.cas_ok + s.cas_fail;
        let ok_ratio = match (cas, n) {
            (0, 0) => 0.0,
            (0, _) => 1.0,
            _ => s.cas_ok as f64 / cas as f64,
        };
        v.push(m(format!("pmem.cas_ok_ratio.{class}"), ok_ratio, "ratio"));
        // The class's typical op: a queue class mixes enqueues and
        // dequeues evenly, so it takes the mean of their p50s.
        let p50 = match class {
            "queue" => (out.latency_us(Kind::Op).0 + out.latency_us(Kind::Update).0) / 2.0,
            "read" => out.latency_us(Kind::Read).0,
            "put" => out.latency_us(Kind::Update).0,
            "recover_central" => out.latency_us(Kind::Central).0,
            _ => out.latency_us(Kind::Independent).0,
        };
        let share = if p50 > 0.0 { per_op("flushes_paid") * flush_us / p50 } else { 0.0 };
        v.push(m(format!("pmem.flush_share.{class}"), share, "ratio"));
    }
    v.push(m("pmem.flush_us", flush_us, "us"));
    let loop_us = tr.loop_self_ns as f64 / tr.loop_ops.max(1) as f64 / 1e3;
    v.push(m("bench.loop_us", loop_us, "us"));
    v.push(m("bench.op_self_us", tr.op_self.quantile_us(0.5), "us"));
    let overhead = out.op_traced.fast_us(FAST).0 - out.latency_us(Kind::Op).0;
    v.push(m("bench.trace_overhead_us", overhead, "us"));
    v
}

/// The cost of one `PmemPool::flush` of a dirty line at the workloads'
/// penalty, on a separate small pool: (store + flush) − store, per pair, as the
/// median of several batches.
pub fn flush_us() -> f64 {
    const N: u32 = 20_000;
    let pool = PmemPool::with_capacity(64);
    pool.set_flush_penalty(FLUSH_PENALTY);
    let a = PAddr::from_index(8);
    let batch = |flush: bool| {
        let t = Instant::now();
        for i in 0..N {
            pool.store(a, u64::from(i));
            if flush {
                pool.flush(a);
            }
        }
        t.elapsed().as_secs_f64() * 1e6 / f64::from(N)
    };
    let diffs: Vec<f64> = (0..9).map(|_| batch(true) - batch(false)).collect();
    median(&diffs)
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", x.name, num(x.value), x.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// keeps.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}
