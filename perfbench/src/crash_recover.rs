//! `crash-recover`: one thread drives two registry slots of a DSS queue
//! held at 4096 items. Each cycle runs a short balanced churn, leaves one
//! slot prepared but not executed, cuts the other slot's operation at a
//! seeded pmem step, crashes the pool under a seeded random writeback
//! adversary, and times one recovery: central (Figure 6) and independent
//! (§3.3) take turns, one latency window of each at a time. Every `resolve`
//! verdict is checked against the queue contents measured after recovery.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dss_core::{DssQueue, Resolved, ResolvedOp};
use dss_pmem::{CrashSignal, ThreadHandle, WritebackAdversary};
use dss_spec::types::QueueResp;

use crate::hist::WINDOW;
use crate::trace::Tracer;
use crate::{ns_since, Kind, Outcome, Rng, RunCfg, FLUSH_PENALTY, READ_PROBE};

const SLOTS: usize = 2;
const NODES_PER_SLOT: u64 = 4096;
/// Items the queue holds; the churn steers back toward it.
const ITEMS: usize = 4096;
/// Dequeue + enqueue pairs per slot in each cycle's churn.
const CHURN_PAIRS: usize = 4;
/// The cut lands on one of the first `CUT_MAX` pmem steps of a prep + exec
/// (a few points lie past the operation's end, so some cuts complete).
const CUT_MAX: u64 = 48;

/// Runs the workload.
pub fn run(cfg: &RunCfg) -> Outcome {
    let mut out = Outcome::new(Instant::now());
    let mut rng = Rng::new(cfg.seed);
    let mut next_val = 1u64;
    let run_start = Instant::now();
    for round in (0..).take_while(|&r| cfg.more_rounds(run_start, r)) {
        let traced = out.begin_round(cfg, round);
        let mut tr = Tracer::new(traced, out.tracer.epoch());

        let t0 = Instant::now();
        let q = DssQueue::new(SLOTS, NODES_PER_SLOT);
        q.pool().set_flush_penalty(FLUSH_PENALTY);
        let mut hs: Vec<ThreadHandle> = (0..SLOTS)
            .map(|_| q.register_thread().expect("one registry slot per client"))
            .collect();
        let mut model = VecDeque::with_capacity(ITEMS + 64);
        for i in 0..ITEMS {
            let v = next_val;
            next_val += 1;
            q.enqueue(hs[i % SLOTS], v).expect("the initial load fits the node pool");
            model.push_back(v);
        }
        out.setup_s.push(t0.elapsed().as_secs_f64());

        let (mut churn_ns, mut churn_ok) = (0u64, 0u64);
        let start = Instant::now();
        let mut cycles = 0u64;
        let mut last = [Resolved { op: None, resp: None }; SLOTS];
        loop {
            let a = rng.below(SLOTS as u64) as usize;
            let b = 1 - a;

            // Churn: slot b first, so slot a's last completed op is an
            // enqueue and a resolved dequeue can only be the cut one.
            let layer_ns0 = tr.layer_ns;
            let c0 = Instant::now();
            let s0 = traced.then(|| q.pool().stats());
            let mut plan: Vec<(usize, bool)> = Vec::with_capacity(4 * CHURN_PAIRS + 1);
            if model.len() != ITEMS {
                plan.push((b, model.len() < ITEMS));
            }
            for slot in [b, a] {
                for _ in 0..CHURN_PAIRS {
                    plan.push((slot, false));
                    plan.push((slot, true));
                }
            }
            for &(slot, enq) in &plan {
                let v = next_val;
                next_val += 1;
                let (ok, d, r) = queue_op(&q, hs[slot], enq, v, &mut out.alloc_fail, &mut tr);
                out.attempted += 1;
                if !ok {
                    out.failed += 1;
                    continue;
                }
                out.record(if enq { Kind::Update } else { Kind::Op }, d);
                if enq {
                    model.push_back(v);
                    last[slot] = Resolved { op: Some(ResolvedOp::Enqueue(v)), resp: Some(r) };
                } else {
                    let want = model.pop_front().map_or(QueueResp::Empty, QueueResp::Value);
                    if r != want {
                        out.failed += 1;
                        continue;
                    }
                    last[slot] = Resolved { op: Some(ResolvedOp::Dequeue), resp: Some(r) };
                }
                out.digest(&[slot as u64, enq as u64, resp_word(r)]);
                churn_ok += 1;
            }
            let ops = plan.len() as u64;
            if let Some(s0) = s0 {
                tr.count("queue", q.pool().stats().since(&s0), ops);
            }
            let d = ns_since(c0);
            churn_ns += d;
            tr.add_loop(d, ops, layer_ns0);

            // Slot b: prepared, never executed.
            let b_enq = rng.below(2) == 0;
            let vb = next_val;
            next_val += 1;
            let want_b = if !b_enq {
                q.prep_dequeue(hs[b]);
                Resolved { op: Some(ResolvedOp::Dequeue), resp: None }
            } else if q.prep_enqueue(hs[b], vb).is_ok() {
                Resolved { op: Some(ResolvedOp::Enqueue(vb)), resp: None }
            } else {
                out.alloc_fail += 1;
                out.failed += 1;
                last[b]
            };

            // Slot a: cut at a seeded step.
            let a_enq = rng.below(2) == 0;
            let va = next_val;
            next_val += 1;
            let k = 1 + rng.below(CUT_MAX);
            q.pool().arm_crash_after(k);
            let cut = catch_unwind(AssertUnwindSafe(|| {
                if a_enq {
                    q.prep_enqueue(hs[a], va).is_ok().then(|| q.exec_enqueue(hs[a]));
                } else {
                    q.prep_dequeue(hs[a]);
                    q.exec_dequeue(hs[a]);
                }
            }));
            q.pool().disarm_crash();
            if let Err(p) = cut {
                if p.downcast_ref::<CrashSignal>().is_none() {
                    resume_unwind(p);
                }
            }

            let adversary = WritebackAdversary::Random { seed: rng.next_u64(), prob: 0.5 };
            tr.call("pmem.crash_us", || q.pool().crash(&adversary));
            let central = (cycles / WINDOW as u64).is_multiple_of(2);
            let (handles, resolved, ns) = recover_queue(&q, central, &mut tr);
            out.record(if central { Kind::Central } else { Kind::Independent }, ns);

            // The verdicts must agree with the recovered contents.
            out.attempted += 1;
            let mut good = handles.len() == SLOTS && resolved.get(b) == Some(&want_b);
            match resolved.get(a).copied() {
                Some(r) if r == last[a] => {}
                Some(Resolved { op: Some(ResolvedOp::Enqueue(v)), resp }) if v == va && a_enq => {
                    if resp == Some(QueueResp::Ok) {
                        model.push_back(va);
                    }
                }
                Some(Resolved { op: Some(ResolvedOp::Dequeue), resp }) if !a_enq => match resp {
                    None => {}
                    Some(QueueResp::Value(x)) if model.front() == Some(&x) => {
                        model.pop_front();
                    }
                    Some(_) => good = false,
                },
                _ => good = false,
            }
            let after = q.snapshot_values();
            good &= after.len() == model.len() && after.iter().eq(model.iter());
            if !good {
                out.failed += 1;
                model = after.into_iter().collect();
            }
            out.digest(&[a as u64, a_enq as u64, k, model.len() as u64]);
            if handles.len() == SLOTS {
                hs = handles;
                last = [resolved[0], resolved[1]];
            }

            cycles += 1;
            if cfg.budget.done(start, Instant::now(), cycles) {
                break;
            }
        }
        out.rates.push(churn_ok as f64 / (churn_ns as f64 / 1e9));

        read_probe(&q, hs[0], model.front().copied(), &mut out, &mut tr);
        out.end_round(q.pool(), tr);
    }
    out
}

/// How long one enqueue retries `QueueFull` before it counts as failed.
/// With two threads, `prep_enqueue` can return `QueueFull` while the nodes
/// it lacks sit in the other thread's EBR limbo (NOTES.md, known defects),
/// for as long as that thread stays descheduled inside an operation; the
/// client yields and retries, as an application holding a near-empty queue
/// would. Only an enqueue refused for this long, far past any scheduling
/// stall, counts as failed.
const ENQ_RETRY_FOR: Duration = Duration::from_secs(10);

/// One detectable queue op (prep + exec) as a traced client operation:
/// returns whether it ran (`false` = `QueueFull` until [`ENQ_RETRY_FOR`]
/// ran out), its latency in ns including retries, and its response. An
/// enqueue refused at least once adds one to `alloc_fail`.
pub(crate) fn queue_op(
    q: &DssQueue,
    h: ThreadHandle,
    enq: bool,
    v: u64,
    alloc_fail: &mut u64,
    tr: &mut Tracer,
) -> (bool, u64, QueueResp) {
    let t = Instant::now();
    if enq {
        tr.begin_op("queue.enqueue");
        let mut refused = false;
        let ok = loop {
            if tr.call("queue.prep_enqueue_us", || q.prep_enqueue(h, v)).is_ok() {
                break true;
            }
            *alloc_fail += u64::from(!refused);
            refused = true;
            if t.elapsed() > ENQ_RETRY_FOR {
                break false;
            }
            std::thread::yield_now();
        };
        if ok {
            tr.call("queue.exec_enqueue_us", || q.exec_enqueue(h));
        }
        let d = ns_since(t);
        tr.end_op();
        (ok, d, QueueResp::Ok)
    } else {
        tr.begin_op("queue.dequeue");
        tr.call("queue.prep_dequeue_us", || q.prep_dequeue(h));
        let r = tr.call("queue.exec_dequeue_us", || q.exec_dequeue(h));
        let d = ns_since(t);
        tr.end_op();
        (true, d, r)
    }
}

/// One timed post-crash recovery of `q`, through `resolve` of every slot
/// and `rebuild_allocator`: central runs `recover()`; independent runs
/// `begin_recovery` and then `adopt` + `recover_one` per slot. Returns the
/// new handles, the verdicts by slot, and the time in ns.
pub(crate) fn recover_queue(
    q: &DssQueue,
    central: bool,
    tr: &mut Tracer,
) -> (Vec<ThreadHandle>, Vec<Resolved>, u64) {
    let class = if central { "recover_central" } else { "recover_independent" };
    let s0 = tr.on().then(|| q.pool().stats());
    tr.begin_op(class);
    let t = Instant::now();
    let mut handles = Vec::new();
    let mut resolved = Vec::new();
    if central {
        handles = tr.call("queue.recover_us", || q.recover());
        for &h in &handles {
            resolved.push(tr.call("queue.resolve_us", || q.resolve(h)));
        }
    } else {
        tr.call("queue.begin_recovery_us", || q.begin_recovery());
        for slot in 0..q.nthreads() {
            if let Ok(h) = tr.call("queue.adopt_us", || q.adopt(slot)) {
                tr.call("queue.recover_one_us", || q.recover_one(h));
                resolved.push(tr.call("queue.resolve_us", || q.resolve(h)));
                handles.push(h);
            }
        }
    }
    tr.call("queue.rebuild_allocator_us", || q.rebuild_allocator());
    let ns = ns_since(t);
    tr.end_op();
    if let Some(s0) = s0 {
        tr.count(class, q.pool().stats().since(&s0), 1);
    }
    (handles, resolved, ns)
}

/// `READ_PROBE` timed `peek_front` calls, each checked against `front`.
pub(crate) fn read_probe(
    q: &DssQueue,
    h: ThreadHandle,
    front: Option<u64>,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    let s0 = tr.on().then(|| q.pool().stats());
    for _ in 0..READ_PROBE {
        tr.begin_op("queue.read");
        let t = Instant::now();
        let got = tr.call("queue.peek_front_us", || q.peek_front(h));
        let d = ns_since(t);
        tr.end_op();
        out.record(Kind::Read, d);
        out.attempted += 1;
        if got != front {
            out.failed += 1;
        }
    }
    if let Some(s0) = s0 {
        tr.count("read", q.pool().stats().since(&s0), READ_PROBE);
    }
}

/// A response as one word for the op-sequence digest.
pub(crate) fn resp_word(r: QueueResp) -> u64 {
    match r {
        QueueResp::Ok => 1,
        QueueResp::Empty => 2,
        QueueResp::Value(v) => v.wrapping_mul(4) | 3,
    }
}
