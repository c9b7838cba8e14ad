//! Regression tests: a crash after a long run must not lose or invent
//! items because of a recycled node.
//!
//! The DSS queue never flushes its head on the dequeue path and the DSS
//! stack never flushes its top on the pop path (Figure 4's discipline:
//! recovery recomputes them from the persisted values). The persisted
//! root can therefore name a node removed long ago. If epoch reclamation
//! recycles that node, recovery walks from its new incarnation: the
//! queue dropped every item queued before it, and the stack resurrected
//! a prepared push that never executed. Both structures now persist the
//! root before any retired node is reused.
//!
//! The queue test runs two clients, as in the paper's Figure 5, so line
//! flushes also race each other; it stops both, crashes with no
//! spontaneous writebacks, recovers, and checks that every value is
//! either dequeued (exactly once) or still queued.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::time::Duration;

use dss_core::{DssQueue, DssStack};
use dss_pmem::{ThreadHandle, WritebackAdversary};
use dss_spec::types::QueueResp;

const CLIENTS: u64 = 2;
const PREFILL: u64 = 16;
const ROUNDS: u64 = 20;
const ROUND_TIME: Duration = Duration::from_millis(150);

/// One client's enqueue/dequeue pairs until `stop`: returns the values it
/// enqueued and the values it dequeued.
fn client(q: &DssQueue, h: ThreadHandle, id: u64, stop: &AtomicBool) -> (Vec<u64>, Vec<u64>) {
    let (mut enqueued, mut dequeued) = (Vec::new(), Vec::new());
    while !stop.load(Relaxed) {
        let v = id << 32 | enqueued.len() as u64;
        // A refused enqueue waits for the other client's EBR epoch.
        while q.prep_enqueue(h, v).is_err() {
            std::thread::yield_now();
        }
        q.exec_enqueue(h);
        enqueued.push(v);
        q.prep_dequeue(h);
        match q.exec_dequeue(h) {
            QueueResp::Value(d) => dequeued.push(d),
            other => panic!("a queue holding {PREFILL}+ items answered {other:?}"),
        }
    }
    (enqueued, dequeued)
}

#[test]
fn queue_pairs_then_crash_lose_no_item() {
    let mut lossy_rounds = Vec::new();
    for round in 0..ROUNDS {
        let q = DssQueue::new(CLIENTS as usize, 4096);
        q.pool().set_flush_penalty(20);
        let hs: Vec<_> = (0..CLIENTS).map(|_| q.register_thread().unwrap()).collect();
        let mut expected: Vec<u64> = (0..PREFILL).map(|s| CLIENTS << 32 | s).collect();
        for &v in &expected {
            q.enqueue(hs[0], v).unwrap();
        }
        let stop = AtomicBool::new(false);
        let mut seen = Vec::new();
        std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|id| {
                    let (q, h, stop) = (&q, hs[id as usize], &stop);
                    s.spawn(move || client(q, h, id, stop))
                })
                .collect();
            std::thread::sleep(ROUND_TIME);
            stop.store(true, Relaxed);
            for c in clients {
                let (enqueued, dequeued) = c.join().unwrap();
                expected.extend(enqueued);
                seen.extend(dequeued);
            }
        });

        q.pool().crash(&WritebackAdversary::None);
        q.recover();
        q.rebuild_allocator();
        seen.extend(q.snapshot_values());
        expected.sort_unstable();
        seen.sort_unstable();
        if seen != expected {
            let lost = expected.iter().filter(|v| seen.binary_search(v).is_err()).count();
            lossy_rounds.push((round, lost, seen.len() as i64 - expected.len() as i64));
        }
    }
    assert!(
        lossy_rounds.is_empty(),
        "(round, values lost, net count change) after crash + recovery: {lossy_rounds:?}"
    );
}

#[test]
fn stack_unexecuted_push_is_not_resurrected_after_recycling() {
    let mut resurrected = Vec::new();
    for round in 0..200u64 {
        let s = DssStack::new(1, 4);
        let h = s.register_thread().unwrap();
        let mut depth = 0u64;
        // Churn until the free list runs dry and retired nodes recycle:
        // one push for every two pops while anything is stacked.
        for (i, v) in (0..50 + round).zip(1..) {
            if i % 3 == 2 || depth == 0 {
                s.prep_push(h, v).unwrap();
                s.exec_push(h);
                depth += 1;
            } else {
                s.prep_pop(h);
                s.exec_pop(h);
                depth -= 1;
            }
        }
        // Pops leave the persisted top naming a popped node.
        for _ in 0..depth {
            s.prep_pop(h);
            s.exec_pop(h);
        }
        // Prepared, never executed: it must not be on the stack after a
        // crash, and resolve must not report it as having taken effect.
        s.prep_push(h, u64::MAX).unwrap();
        s.pool().crash(&WritebackAdversary::None);
        s.recover();
        s.rebuild_allocator();
        let after = s.snapshot_values();
        if !after.is_empty() || s.resolve(h).resp.is_some() {
            resurrected.push((round, after));
        }
    }
    assert!(resurrected.is_empty(), "(round, stack after recovery): {resurrected:?}");
}
