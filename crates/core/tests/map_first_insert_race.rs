//! Regression test: concurrent first inserts of one key must create one
//! entry node.
//!
//! An insert walks the key's chains, then links a fresh entry at the
//! newest level's bucket head. If the link CAS compared against a head
//! re-read after the walk, a same-key insert landing between the walk and
//! the re-read went unseen and the key gained a second entry: a later
//! update reaches only the newest entry, and `snapshot()`, which walks the
//! whole chain, lets the stale duplicate overwrite the fresh value.
//!
//! Run it under real parallelism and on one CPU (`taskset -c 0`).

use dss_core::DetectableMap;
use dss_spec::types::KvResp;
use std::sync::{Arc, Barrier};

// Race threads on the FIRST insert of the same key, sliding their start
// offsets so one thread's walk straddles another thread's successful
// prepend of the same key.
#[test]
fn first_insert_race_creates_no_duplicate_entries() {
    let nthreads = 4usize;
    for round in 0..30_000u64 {
        let m = Arc::new(DetectableMap::new(nthreads, 64, 4));
        let hs: Vec<_> = (0..nthreads).map(|_| m.register_thread().unwrap()).collect();
        let bar = Arc::new(Barrier::new(nthreads));
        let key = 7u64;
        let threads: Vec<_> = (0..nthreads)
            .map(|tid| {
                let m = Arc::clone(&m);
                let bar = Arc::clone(&bar);
                let h = hs[tid];
                std::thread::spawn(move || {
                    bar.wait();
                    // Slide each thread's start by a round- and tid-
                    // dependent number of spins to scan interleavings.
                    let spins =
                        (round.wrapping_mul(2654435761).wrapping_add(tid as u64 * 977)) % 2000;
                    for _ in 0..spins {
                        std::hint::spin_loop();
                    }
                    m.put(h, key, tid as u64 + 1);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Now a single overwrite; both get and snapshot must agree.
        m.put(hs[0], key, 999);
        assert_eq!(m.get(hs[1], key), KvResp::Value(999), "round {round}");
        let snap = m.snapshot();
        assert_eq!(
            snap.get(&key),
            Some(&999),
            "round {round}: snapshot sees a stale duplicate entry"
        );
    }
}
