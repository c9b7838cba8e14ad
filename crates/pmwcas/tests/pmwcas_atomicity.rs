//! Regression test: a PMwCAS that succeeds updates every entry.
//!
//! Two threads race 2-word PMwCAS operations that add 2 to both words of
//! a pair. Helpers install reservations on each other's descriptors; a
//! helper that found the descriptor decided right after its own install
//! used to undo that install even when the decision was SUCCEEDED and had
//! counted it, so one word kept its old value while the other moved on.
//! The `CasWithEffectQueue` dequeue then saw a head and a tail on
//! different chains and dereferenced a NULL successor.

use std::sync::Arc;

use dss_pmem::{PAddr, PmemPool};
use dss_pmwcas::PmwcasArena;

#[test]
fn concurrent_pair_updates_stay_atomic() {
    for round in 0..20 {
        let pool = Arc::new(PmemPool::with_capacity(4096));
        let arena = PmwcasArena::new(Arc::clone(&pool), PAddr::from_index(1024), 64, 2);
        // The two words sit on different cache lines.
        let (a, b) = (PAddr::from_index(16), PAddr::from_index(200));
        let successes: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|tid| {
                    let arena = &arena;
                    s.spawn(move || {
                        let mut won = 0;
                        for _ in 0..5_000 {
                            let (x, y) = (arena.read(tid, a), arena.read(tid, b));
                            if x == y && arena.pmwcas(tid, &[(a, x, x + 2), (b, y, y + 2)], &[]) {
                                won += 1;
                            }
                        }
                        won
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).sum()
        });
        let (x, y) = (arena.read(0, a), arena.read(0, b));
        assert!(
            x == y && x == 2 * successes,
            "round {round}: a = {x}, b = {y}, {successes} commits"
        );
    }
}
