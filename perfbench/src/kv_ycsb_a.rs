//! `kv-ycsb-a`: YCSB workload A on the detectable map. One client issues
//! 50% plain `get` and 50% detectable put (`prep_put` + `exec_put`) over
//! 1024 keys drawn from zipf(0.99), in a closed loop. Every answer is
//! checked against a `KvSpec` shadow of each key. One client keeps the op
//! sequence, and with it the pmem counts, exactly repeatable per seed.
//!
//! After the loop each round probes the end state with crash-and-recover
//! cycles, then checks the whole map against the shadow.

use std::time::Instant;

use dss_core::{DetectableMap, ResolvedMap};
use dss_pmem::{ThreadHandle, WritebackAdversary};
use dss_spec::types::{KvOp, KvResp, KvSpec};
use dss_spec::SequentialSpec;

use crate::hist::WINDOW;
use crate::trace::Tracer;
use crate::{ns_since, Kind, Outcome, Rng, RunCfg, FLUSH_PENALTY, RECOVERY_PROBE};

const KEYS: u64 = 1024;
const BUCKETS: u64 = 256;
const NODES_PER_THREAD: u64 = 4096;
const READ_FRACTION: f64 = 0.5;
const ZIPF_THETA: f64 = 0.99;

/// Zipf over ranks `0..n`: weight of rank `r` is `1 / (r + 1)^theta`,
/// sampled by binary search of the precomputed CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: u64, theta: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(theta);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Zipf(cdf)
    }

    fn sample(&self, u: f64) -> u64 {
        (self.0.partition_point(|&p| p <= u) as u64).min(self.0.len() as u64 - 1)
    }
}

/// The oracle's answer to `op` on `key`, advancing the shadow.
fn oracle(shadow: &mut [Option<u64>], key: u64, op: KvOp) -> KvResp {
    let (s, r) = KvSpec.apply(&shadow[key as usize], &op, 0).expect("KvSpec is total");
    shadow[key as usize] = s;
    r
}

fn resp_word(r: KvResp) -> u64 {
    match r {
        KvResp::Ok => 1,
        KvResp::Absent => 2,
        KvResp::Value(v) => v.wrapping_mul(4) | 3,
    }
}

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new(Instant::now());
    let mut rng = Rng::new(cfg.seed);
    let zipf = Zipf::new(KEYS, ZIPF_THETA);
    let run_start = Instant::now();
    for round in (0..).take_while(|&r| cfg.more_rounds(run_start, r)) {
        let traced = out.begin_round(cfg, round);
        let mut tr = Tracer::new(traced, out.tracer.epoch());
        let mut shadow = vec![None; KEYS as usize];

        let t0 = Instant::now();
        let m = DetectableMap::new(1, NODES_PER_THREAD, BUCKETS);
        m.pool().set_flush_penalty(FLUSH_PENALTY);
        let mut h = m.register_thread().expect("one registry slot for the client");
        for key in 0..KEYS {
            let v = rng.next_u64() >> 2;
            let got = tr.call("map.load_put_us", || m.put(h, key, v));
            if got != oracle(&mut shadow, key, KvOp::Put(v)) {
                out.failed += 1;
            }
            out.attempted += 1;
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let mut last = ResolvedMap { op: None, resp: None };
        let (mut ops, mut ok, mut seq) = (0u64, 0u64, 0u64);
        let layer_ns0 = tr.layer_ns;
        let start = Instant::now();
        loop {
            let key = zipf.sample(rng.unit());
            let s0 = traced.then(|| m.pool().stats());
            if rng.unit() < READ_FRACTION {
                tr.begin_op("map.read");
                let t = Instant::now();
                let mut got = tr.call("map.get_us", || m.get(h, key));
                let d = ns_since(t);
                tr.end_op();
                if let Some(s0) = s0 {
                    tr.count("read", m.pool().stats().since(&s0), 1);
                }
                out.record(Kind::Read, d);
                if cfg.corrupt_get_every > 0 && ops % cfg.corrupt_get_every == 0 {
                    got = KvResp::Value(resp_word(got) ^ 1);
                }
                out.digest(&[0, key, resp_word(got)]);
                if got == oracle(&mut shadow, key, KvOp::Get) {
                    ok += 1;
                } else {
                    out.failed += 1;
                }
            } else {
                let v = rng.next_u64() >> 2;
                seq += 1;
                tr.begin_op("map.update");
                let t = Instant::now();
                tr.call("map.prep_put_us", || m.prep_put(h, key, v, seq));
                let got = tr.call("map.exec_put_us", || m.exec_put(h));
                let d = ns_since(t);
                tr.end_op();
                if let Some(s0) = s0 {
                    tr.count("put", m.pool().stats().since(&s0), 1);
                }
                out.record(Kind::Op, d);
                out.record(Kind::Update, d);
                last = ResolvedMap { op: Some((key, KvOp::Put(v), seq)), resp: Some(KvResp::Ok) };
                out.digest(&[1, key, v, resp_word(got)]);
                if got == oracle(&mut shadow, key, KvOp::Put(v)) {
                    ok += 1;
                } else {
                    out.failed += 1;
                }
            }
            ops += 1;
            if cfg.budget.done(start, Instant::now(), ops) {
                break;
            }
        }
        let elapsed = start.elapsed();
        out.attempted += ops;
        out.rates.push(ok as f64 / elapsed.as_secs_f64());
        tr.add_loop(elapsed.as_nanos() as u64, ops, layer_ns0);

        for cycle in 0..RECOVERY_PROBE {
            let adversary = WritebackAdversary::Random { seed: rng.next_u64(), prob: 0.5 };
            tr.call("pmem.crash_us", || m.pool().crash(&adversary));
            let central = (cycle / WINDOW as u64).is_multiple_of(2);
            let (handles, resolved, ns) = recover_map(&m, central, &mut tr);
            out.record(if central { Kind::Central } else { Kind::Independent }, ns);
            out.attempted += 1;
            if resolved != [last] {
                out.failed += 1;
            }
            if let Some(&h2) = handles.first() {
                h = h2;
            }
        }
        out.attempted += 1;
        let content = m.snapshot();
        let want = shadow.iter().enumerate().filter_map(|(k, v)| v.map(|v| (k as u64, v)));
        if !content.into_iter().eq(want) {
            out.failed += 1;
        }
        out.end_round(m.pool(), tr);
    }
    out
}

/// One timed post-crash recovery of the map, through `resolve` of every
/// adopted slot and `rebuild_allocator`. The map has no repair phase:
/// central adopts every orphan at once, independent adopts slot by slot.
fn recover_map(
    m: &DetectableMap,
    central: bool,
    tr: &mut Tracer,
) -> (Vec<ThreadHandle>, Vec<ResolvedMap>, u64) {
    let class = if central { "recover_central" } else { "recover_independent" };
    let s0 = tr.on().then(|| m.pool().stats());
    tr.begin_op(class);
    let t = Instant::now();
    tr.call("map.begin_recovery_us", || m.begin_recovery());
    let handles = if central {
        tr.call("map.adopt_orphans_us", || m.adopt_orphans())
    } else {
        (0..m.nthreads())
            .filter_map(|slot| tr.call("map.adopt_us", || m.adopt(slot)).ok())
            .collect()
    };
    let resolved = handles.iter().map(|&h| tr.call("map.resolve_us", || m.resolve(h))).collect();
    tr.call("map.rebuild_allocator_us", || m.rebuild_allocator());
    let ns = ns_since(t);
    tr.end_op();
    if let Some(s0) = s0 {
        tr.count(class, m.pool().stats().since(&s0), 1);
    }
    (handles, resolved, ns)
}
