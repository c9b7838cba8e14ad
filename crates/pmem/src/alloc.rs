//! Fixed-size node allocation with per-thread pools.
//!
//! The paper's evaluation pre-allocates "a fixed size pool of queue nodes at
//! initialization" per thread. [`NodePool`] manages a contiguous region of a
//! [`PmemPool`](crate::PmemPool) as an array of equal-sized nodes, with one
//! free list per thread (work-stealing when a thread's own list runs dry).
//!
//! The allocator's metadata (the free lists) is deliberately **volatile** —
//! it lives in ordinary Rust memory and is lost at a crash, just like a real
//! in-DRAM allocator. After a crash, recovery code determines the set of
//! *live* nodes (reachable from the data structure or referenced by
//! detectability state) and calls [`NodePool::rebuild`], which is how the
//! paper's recovery procedure is "extended straightforwardly to prevent
//! memory leaks" (§4).

use crate::sync::Mutex;

use crate::{Ebr, PAddr};

/// Reclamation rounds [`NodePool::alloc_with_reclaim_guarded`] spends
/// yielding before it needs retired nodes in limbo to keep waiting.
const RECLAIM_YIELDS: u32 = 64;

/// How long [`NodePool::alloc_with_reclaim_guarded`] waits at most for a
/// pinned thread to release retired nodes.
const RECLAIM_PATIENCE: std::time::Duration = std::time::Duration::from_secs(1);

/// A region of persistent memory carved into fixed-size nodes, with
/// per-thread free lists.
///
/// # Examples
///
/// ```
/// use dss_pmem::{NodePool, PAddr};
///
/// // 2 threads, 4 nodes each, 3 words per node, region starting at word 10.
/// let pool = NodePool::new(PAddr::from_index(10), 3, 4, 2);
/// assert_eq!(pool.region_words(), 2 * 4 * 3);
/// let n = pool.alloc(0).expect("fresh pool has free nodes");
/// assert!(pool.contains(n));
/// pool.free(0, n);
/// ```
#[derive(Debug)]
pub struct NodePool {
    base: u64,
    node_words: u64,
    total_nodes: u64,
    free: Box<[Mutex<Vec<PAddr>>]>,
}

impl NodePool {
    /// Creates a pool of `nodes_per_thread * nthreads` nodes of
    /// `node_words` words each, starting at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `node_words`, `nodes_per_thread`, or `nthreads` is zero, or
    /// if `base` is NULL.
    pub fn new(base: PAddr, node_words: u64, nodes_per_thread: u64, nthreads: usize) -> Self {
        assert!(node_words > 0, "nodes must have at least one word");
        assert!(nodes_per_thread > 0, "each thread needs at least one node");
        assert!(nthreads > 0, "need at least one thread");
        assert!(!base.is_null(), "node region cannot start at NULL");
        let total_nodes = nodes_per_thread * nthreads as u64;
        let free: Box<[Mutex<Vec<PAddr>>]> = (0..nthreads)
            .map(|t| {
                let t = t as u64;
                Mutex::new(
                    (t * nodes_per_thread..(t + 1) * nodes_per_thread)
                        .map(|i| PAddr::from_index(base.index() + i * node_words))
                        .collect(),
                )
            })
            .collect();
        NodePool { base: base.index(), node_words, total_nodes, free }
    }

    /// Total words spanned by the node region (for pool sizing).
    pub fn region_words(&self) -> u64 {
        self.total_nodes * self.node_words
    }

    /// First word of the region.
    pub fn base(&self) -> PAddr {
        PAddr::from_index(self.base)
    }

    /// Words per node.
    pub fn node_words(&self) -> u64 {
        self.node_words
    }

    /// Total number of nodes (free and allocated).
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    /// Returns `true` if `addr` is the base address of a node in this
    /// region.
    pub fn contains(&self, addr: PAddr) -> bool {
        let i = addr.index();
        i >= self.base
            && i < self.base + self.region_words()
            && (i - self.base).is_multiple_of(self.node_words)
    }

    /// Allocates a node for thread `tid`, stealing from other threads'
    /// free lists if its own is empty. Returns `None` when the region is
    /// exhausted.
    ///
    /// The node's contents are whatever its previous use left behind;
    /// callers initialize (and flush) fields themselves, as the paper's
    /// `new Node(val)` does.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc(&self, tid: usize) -> Option<PAddr> {
        if let Some(a) = self.free[tid].lock().pop() {
            return Some(a);
        }
        for (t, list) in self.free.iter().enumerate() {
            if t != tid {
                if let Some(a) = list.lock().pop() {
                    return Some(a);
                }
            }
        }
        None
    }

    /// Allocates a node for thread `tid`, retrying through epoch-based
    /// reclamation when the free lists run dry: collect every node `ebr`
    /// has quiesced, return it to the free lists, and try again, yielding
    /// between rounds (another thread may hold the missing nodes pinned
    /// until it passes through an unpinned state). After 64 rounds it keeps
    /// waiting, sleeping between rounds, only while retired nodes sit in
    /// limbo — they are held back by a thread pinned in an older epoch,
    /// which may be descheduled for a whole time slice — and for at most a
    /// second. Returns `None` when the region is genuinely over-committed.
    ///
    /// This is the one retry-through-EBR dance every structure in the
    /// workspace shares; callers map `None` onto their own full-pool error.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc_with_reclaim(&self, tid: usize, ebr: &Ebr) -> Option<PAddr> {
        self.alloc_with_reclaim_guarded(tid, ebr, Vec::new)
    }

    /// [`alloc_with_reclaim`](Self::alloc_with_reclaim) with a
    /// detectability guard: `protected` returns the nodes that must not be
    /// recycled yet even though the epochs have quiesced them — typically
    /// the nodes a structure's per-thread detectability words still
    /// reference, which `resolve` may dereference arbitrarily long after
    /// the operation completed (the crash-free counterpart of the liveness
    /// rule recovery's allocator rebuild applies). Protected nodes are
    /// re-retired and become reclaimable once no longer protected.
    ///
    /// `protected` is consulted once per reclamation round, *after* the
    /// epoch check has quiesced the candidates: any thread that could
    /// still publish a reference to a candidate was pinned when the
    /// candidate was retired, so its announcement store precedes the epoch
    /// advance that released the candidate, and a post-collect read
    /// observes it.
    ///
    /// # Panics
    ///
    /// Panics if `tid` is out of range.
    pub fn alloc_with_reclaim_guarded<F: FnMut() -> Vec<PAddr>>(
        &self,
        tid: usize,
        ebr: &Ebr,
        mut protected: F,
    ) -> Option<PAddr> {
        if let Some(a) = self.alloc(tid) {
            return Some(a);
        }
        let start = std::time::Instant::now();
        for round in 0.. {
            let collected = ebr.collect_all(tid);
            if !collected.is_empty() {
                let guard: std::collections::HashSet<PAddr> = protected().into_iter().collect();
                for a in collected {
                    if guard.contains(&a) {
                        ebr.retire(tid, a);
                    } else {
                        self.free(tid, a);
                    }
                }
            }
            if let Some(a) = self.alloc(tid) {
                return Some(a);
            }
            if round < RECLAIM_YIELDS {
                std::thread::yield_now();
            } else if ebr.limbo_len() > 0 && start.elapsed() < RECLAIM_PATIENCE {
                std::thread::sleep(std::time::Duration::from_micros(50));
            } else {
                return None;
            }
        }
        unreachable!("the reclamation loop only exits by returning")
    }

    /// Returns `addr` to thread `tid`'s free list.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a node base address of this region (double
    /// frees are *not* detected; use the type system or EBR discipline for
    /// that).
    pub fn free(&self, tid: usize, addr: PAddr) {
        assert!(self.contains(addr), "freeing {addr:?} which is not a node of this region");
        self.free[tid].lock().push(addr);
    }

    /// Number of currently free nodes (approximate under concurrency).
    pub fn free_count(&self) -> u64 {
        self.free.iter().map(|l| l.lock().len() as u64).sum()
    }

    /// The currently free nodes, across every thread's list (a snapshot,
    /// for conservation checks; approximate under concurrency).
    pub fn free_nodes(&self) -> Vec<PAddr> {
        self.free.iter().flat_map(|l| l.lock().clone()).collect()
    }

    /// Rebuilds the free lists after a crash: every node *not* in `live`
    /// becomes free, distributed round-robin over the per-thread lists.
    ///
    /// `live` entries that are not node base addresses of this region are
    /// ignored (detectability words often hold tagged pointers to nodes
    /// plus sentinel values; callers can pass them through unfiltered).
    pub fn rebuild<I: IntoIterator<Item = PAddr>>(&self, live: I) {
        let live: std::collections::HashSet<PAddr> =
            live.into_iter().filter(|a| self.contains(*a)).collect();
        let nthreads = self.free.len();
        let mut lists: Vec<Vec<PAddr>> = vec![Vec::new(); nthreads];
        for i in 0..self.total_nodes {
            let a = PAddr::from_index(self.base + i * self.node_words);
            if !live.contains(&a) {
                lists[(i as usize) % nthreads].push(a);
            }
        }
        for (slot, list) in self.free.iter().zip(lists) {
            *slot.lock() = list;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> NodePool {
        NodePool::new(PAddr::from_index(8), 3, 2, 2)
    }

    #[test]
    fn geometry() {
        let p = pool();
        assert_eq!(p.region_words(), 12);
        assert_eq!(p.total_nodes(), 4);
        assert_eq!(p.node_words(), 3);
        assert_eq!(p.base(), PAddr::from_index(8));
    }

    #[test]
    fn contains_only_node_bases() {
        let p = pool();
        assert!(p.contains(PAddr::from_index(8)));
        assert!(p.contains(PAddr::from_index(11)));
        assert!(!p.contains(PAddr::from_index(9)), "mid-node address");
        assert!(!p.contains(PAddr::from_index(20)), "past the region");
        assert!(!p.contains(PAddr::from_index(5)), "before the region");
    }

    #[test]
    fn alloc_free_round_trip() {
        let p = pool();
        let a = p.alloc(0).unwrap();
        let b = p.alloc(0).unwrap();
        assert_ne!(a, b);
        p.free(0, a);
        p.free(0, b);
        assert_eq!(p.free_count(), 4);
    }

    #[test]
    fn alloc_steals_when_own_list_empty() {
        let p = pool();
        // Drain thread 0's two nodes, then two more must come from thread 1.
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(p.alloc(0).expect("steals from thread 1"));
        }
        assert_eq!(p.alloc(0), None, "region exhausted");
        assert_eq!(p.alloc(1), None);
        got.sort();
        got.dedup();
        assert_eq!(got.len(), 4, "no node handed out twice");
    }

    #[test]
    fn rebuild_frees_exactly_the_dead_nodes() {
        let p = pool();
        let live = PAddr::from_index(11);
        p.rebuild([live, PAddr::from_index(9) /* ignored: not a base */]);
        assert_eq!(p.free_count(), 3);
        // The live node is never handed out again.
        let mut handed = Vec::new();
        while let Some(a) = p.alloc(0) {
            handed.push(a);
        }
        assert!(!handed.contains(&live));
        assert_eq!(handed.len(), 3);
    }

    #[test]
    #[should_panic(expected = "not a node")]
    fn free_rejects_foreign_address() {
        pool().free(0, PAddr::from_index(100));
    }
}
