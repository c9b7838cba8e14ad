//! A detectable recoverable hash map (`D⟨map⟩`) built on the extracted
//! [`DetectableCore`].
//!
//! The map is the "new object family" test of the core extraction: bucket
//! chains over the [`Memory`] backend, with the register/CAS value-node
//! indirection idiom applied per key. Two node kinds share one
//! [`NodePool`]:
//!
//! * **Entry nodes** `{key, vptr, next}` — one per *key*, prepended to a
//!   bucket chain when the key first appears and never reclaimed
//!   (immortal), so chain walks need no generation checks.
//! * **Value nodes** `{key, value, seq, flags}` — one per *write*
//!   (put or remove), immutable except for the `flags` word. An installer
//!   marks the incumbent's `SUPERSEDED` flag (persisted) before swinging
//!   the entry's `vptr`, so a writer can prove its write took effect —
//!   across crashes and later overwrites — exactly as the detectable
//!   register does. A remove installs a value node with the `TOMBSTONE`
//!   flag; the key's entry stays, the binding reads as absent.
//!
//! Buckets grow **crash-atomically** by whole levels: level `k` holds
//! `buckets0 · 2ᵏ` head words, level bases are derivable from the layout
//! and `k` alone, and [`grow`](DetectableMap::grow) first materializes the
//! new level's segments ([`Memory::reserve`]; fresh words read 0 = empty
//! chains) and then publishes the new level count with a single persisted
//! word store. A crash before the publish leaves the old table; after it,
//! the new level of empty chains — never a torn table.
//!
//! Like the register and CAS object, the map recovers *independently*
//! (§3.3): no recovery phase exists — [`resolve`](DetectableMap::resolve)
//! answers from persisted state alone.
//!
//! **Reclamation** costs O(1) per write and keeps no per-thread side
//! lists. Ownership lives in the structure itself:
//!
//! * the thread whose CAS swings an entry's `vptr` off a value node
//!   retires that node to EBR on the spot — exactly one CAS can unlink a
//!   given node, so it is retired exactly once;
//! * a node that is never linked (a remove of an absent key, a prepared
//!   write replaced by the next prep without an exec) is retired by its
//!   owner when it becomes dead;
//! * allocation never recycles a node some `X` word still names, so
//!   `resolve` can dereference `X` however long ago its write was
//!   superseded — such a node waits in limbo until `X` moves on (the
//!   queue's `x_referenced_nodes` guard);
//! * a crash discards EBR state, so
//!   [`rebuild_allocator`](DetectableMap::rebuild_allocator) re-retires
//!   the `X`-named nodes that are dead but whose retirement the crash
//!   erased.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use dss_pmem::{
    tag, AppKind, AttachError, Backoff, FlushGranularity, Memory, NodePool, PAddr, PmemPool,
    Registry, SlotError, ThreadHandle, WORDS_PER_LINE,
};
use dss_spec::types::{KvOp, KvResp};

use crate::detect::DetectableCore;

// Entry-node layout (4 words; nodes never straddle lines because the node
// region is NODE_WORDS-aligned and NODE_WORDS divides WORDS_PER_LINE).
const E_KEY: u64 = 0;
const E_VPTR: u64 = 1;
const E_NEXT: u64 = 2;

// Value-node layout (same pool, same width).
const V_KEY: u64 = 0;
const V_VALUE: u64 = 1;
const V_SEQ: u64 = 2;
const V_FLAGS: u64 = 3;
const NODE_WORDS: u64 = 4;

/// `flags` bit: a later write replaced this node as its key's binding.
const FLAG_SUPERSEDED: u64 = 1;
/// `flags` bit: this node is a remove — the binding reads as absent.
const FLAG_TOMBSTONE: u64 = 2;

// Map-local X tags (bit positions shared with the queue's enqueue tags;
// the objects never share an X word, so reuse is safe).
const M_PREP: u64 = tag::ENQ_PREP;
const M_COMPL: u64 = tag::ENQ_COMPL;

// Fixed layout head: [0:NULL][directory line][n X lines][level-0 buckets]
// [node region][registry][extension levels...].
const A_NLEVELS: u64 = WORDS_PER_LINE;
const A_X_BASE: u64 = 2 * WORDS_PER_LINE;

/// Hard cap on bucket levels: level `MAX_LEVELS - 1` already holds
/// `2^(MAX_LEVELS-1)` times the initial bucket count.
pub const MAX_LEVELS: u64 = 8;

/// Structure-kind word a file-backed map records in its pool superblock.
pub const KIND_DETECTABLE_MAP: u64 = AppKind::DetectableMap.word();

/// The map's pool layout, derived from `(nthreads, nodes_per_thread,
/// buckets0)` alone. Extension levels live past the registry so the
/// initial pool stays compact and growth exercises the segment machinery.
struct MapLayout {
    buckets_base: u64,
    region: u64,
    reg_base: u64,
    /// First word past the registry (line-aligned): base of level 1.
    ext_base: u64,
    /// Initial pool size — the layout through the registry.
    words: u64,
}

impl MapLayout {
    fn new(nthreads: usize, nodes_per_thread: u64, buckets0: u64) -> Self {
        assert!(nthreads > 0 && nodes_per_thread > 0);
        assert!(buckets0.is_power_of_two(), "bucket count must be a power of two");
        let x_end = A_X_BASE + nthreads as u64 * WORDS_PER_LINE;
        let buckets_base = x_end.next_multiple_of(WORDS_PER_LINE);
        let region = (buckets_base + buckets0).next_multiple_of(NODE_WORDS);
        // Two nodes per op slot: a put of a fresh key consumes an entry
        // node and a value node.
        let node_end = region + 2 * nodes_per_thread * nthreads as u64 * NODE_WORDS;
        let reg_base = node_end.next_multiple_of(WORDS_PER_LINE);
        let words = reg_base + Registry::<PmemPool>::region_words(nthreads);
        let ext_base = words.next_multiple_of(WORDS_PER_LINE);
        MapLayout { buckets_base, region, reg_base, ext_base, words }
    }
}

/// The outcome reported by [`DetectableMap::resolve`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ResolvedMap {
    /// The prepared operation as `(key, op, seq)` — `op` is `Put(v)` or
    /// `Remove`, `seq` the application's §2.1 disambiguation tag — if one
    /// was ever prepared.
    pub op: Option<(u64, KvOp, u64)>,
    /// `Some(Ok)` if the operation took effect.
    pub resp: Option<KvResp>,
}

/// A detectable recoverable hash map (`D⟨map⟩`), keyed by `u64` with `u64`
/// values.
///
/// Detectable writes go through [`prep_put`](Self::prep_put) /
/// [`exec_put`](Self::exec_put) and [`prep_remove`](Self::prep_remove) /
/// [`exec_remove`](Self::exec_remove); plain [`put`](Self::put),
/// [`remove`](Self::remove), and [`get`](Self::get) are the
/// non-detectable operations (Axiom 4). After a crash no recovery phase is
/// needed: [`resolve`](Self::resolve) inspects persisted state only.
///
/// # Examples
///
/// ```
/// use dss_core::DetectableMap;
/// use dss_spec::types::{KvOp, KvResp};
///
/// let m = DetectableMap::new(2, 16, 8);
/// let h0 = m.register_thread().unwrap();
/// let h1 = m.register_thread().unwrap();
/// m.prep_put(h0, 7, 42, 0);
/// assert_eq!(m.exec_put(h0), KvResp::Ok);
/// assert_eq!(m.get(h1, 7), KvResp::Value(42));
/// let r = m.resolve(h0);
/// assert_eq!(r.op, Some((7, KvOp::Put(42), 0)));
/// assert_eq!(r.resp, Some(KvResp::Ok));
/// ```
pub struct DetectableMap<M: Memory = PmemPool> {
    /// The shared detectability skeleton: pool, registry, EBR, backoff,
    /// and the per-thread `X` words (see [`DetectableCore`]).
    core: DetectableCore<M>,
    /// Entry and value nodes. Entry nodes are immortal; a value node is
    /// retired by the write that unlinks it (or by its owner, if it was
    /// never linked) and is not recycled while an `X` word names it.
    nodes: NodePool,
    buckets_base: u64,
    ext_base: u64,
    buckets0: u64,
}

/// A missed walk's link point: the newest level's bucket and its head.
struct Miss {
    nlevels: u64,
    bucket: PAddr,
    head: u64,
}

impl DetectableMap {
    /// Creates a map for `nthreads` threads with `nodes_per_thread`
    /// pre-allocated op slots each and `buckets0` level-0 buckets, on a
    /// fresh line-granular [`PmemPool`].
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn new(nthreads: usize, nodes_per_thread: u64, buckets0: u64) -> Self {
        Self::new_in(nthreads, nodes_per_thread, buckets0, FlushGranularity::Line)
    }

    /// Creates a map on a **file-backed** pool at `path` (line-granular),
    /// recording [`KIND_DETECTABLE_MAP`] and the construction parameters
    /// in the superblock so [`attach`](Self::attach) needs only the path.
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn create<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
    ) -> Result<Self, AttachError> {
        Self::create_with(path, nthreads, nodes_per_thread, buckets0, FlushGranularity::Line)
    }

    /// [`create`](Self::create) with an explicit flush granularity (the
    /// E7 ablation knob; attach reads the granularity back from the
    /// superblock).
    ///
    /// # Errors
    ///
    /// [`AttachError::Io`] if the pool file cannot be created.
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn create_with<P: AsRef<std::path::Path>>(
        path: P,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
        granularity: FlushGranularity,
    ) -> Result<Self, AttachError> {
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        let pool = Arc::new(PmemPool::create(path, layout.words as usize, granularity)?);
        pool.set_app_config(KIND_DETECTABLE_MAP, &[nthreads as u64, nodes_per_thread, buckets0]);
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.format();
        Ok(m)
    }

    /// Rebuilds a map from a pool file with no in-process state. The map
    /// recovers independently (no recovery phase): after
    /// [`begin_recovery`](Self::begin_recovery) +
    /// [`adopt_orphans`](Self::adopt_orphans), [`resolve`](Self::resolve)
    /// answers from persisted state alone.
    ///
    /// # Errors
    ///
    /// Any [`AttachError`], including [`AttachError::AppMismatch`] if the
    /// file holds a different structure.
    pub fn attach<P: AsRef<std::path::Path>>(path: P) -> Result<Self, AttachError> {
        let pool = Arc::new(PmemPool::attach(path)?);
        let found = pool.app_kind();
        if found != KIND_DETECTABLE_MAP {
            return Err(AttachError::AppMismatch { expected: KIND_DETECTABLE_MAP, found });
        }
        let [nthreads, nodes_per_thread, buckets0, ..] = pool.app_config();
        if nthreads == 0 || nodes_per_thread == 0 {
            return Err(AttachError::Corrupt("map parameter words are zero"));
        }
        if !buckets0.is_power_of_two() {
            return Err(AttachError::Corrupt("map bucket count is not a power of two"));
        }
        let nthreads = nthreads as usize;
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        if (pool.capacity() as u64) < layout.words {
            return Err(AttachError::Corrupt("pool smaller than the map layout requires"));
        }
        let nlevels = pool.peek(PAddr::from_index(A_NLEVELS));
        if nlevels == 0 || nlevels > MAX_LEVELS {
            return Err(AttachError::Corrupt("map level count out of range"));
        }
        let registry = Registry::attach(Arc::clone(&pool), layout.reg_base)?;
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.rebuild_allocator();
        Ok(m)
    }
}

impl<M: Memory> DetectableMap<M> {
    /// Creates a map on a freshly created backend of type `M`
    /// ([`Memory::create`]) — the backend-generic constructor behind
    /// [`new`](DetectableMap::new).
    ///
    /// # Panics
    ///
    /// Panics if `nthreads` or `nodes_per_thread` is zero, or `buckets0`
    /// is not a power of two.
    pub fn new_in(
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
        granularity: FlushGranularity,
    ) -> Self {
        let layout = MapLayout::new(nthreads, nodes_per_thread, buckets0);
        let pool = Arc::new(M::create(layout.words as usize, granularity));
        let registry = Registry::create(Arc::clone(&pool), layout.reg_base, nthreads);
        let m = Self::assemble(pool, registry, &layout, nthreads, nodes_per_thread, buckets0);
        m.format();
        m
    }

    /// The shared constructor tail: in-DRAM side tables over an existing
    /// pool + registry — everything `attach` must rebuild rather than map.
    fn assemble(
        pool: Arc<M>,
        registry: Registry<M>,
        layout: &MapLayout,
        nthreads: usize,
        nodes_per_thread: u64,
        buckets0: u64,
    ) -> Self {
        let nodes = NodePool::new(
            PAddr::from_index(layout.region),
            NODE_WORDS,
            2 * nodes_per_thread,
            nthreads,
        );
        DetectableMap {
            core: DetectableCore::new(pool, registry, nthreads, A_X_BASE, WORDS_PER_LINE),
            nodes,
            buckets_base: layout.buckets_base,
            ext_base: layout.ext_base,
            buckets0,
        }
    }

    /// Writes and persists the initial map state (fresh pools only —
    /// never run on attach). Bucket heads rely on fresh words reading 0
    /// (= empty chain), the same invariant `grow` relies on.
    fn format(&self) {
        self.core.pool.store(PAddr::from_index(A_NLEVELS), 1);
        self.core.pool.flush(PAddr::from_index(A_NLEVELS));
        self.core.format_x();
        self.core.pool.drain();
    }

    /// Enables or disables bounded exponential backoff after failed
    /// install CAS. Default off.
    pub fn set_backoff(&self, on: bool) {
        self.core.set_backoff(on);
    }

    /// Whether contention management is enabled.
    pub fn backoff_enabled(&self) -> bool {
        self.core.backoff_enabled()
    }

    fn new_backoff(&self) -> Backoff<'_> {
        self.core.new_backoff()
    }

    // Handle validity is the core's concern; see DetectableCore::x_addr.
    fn x_addr(&self, slot: usize) -> PAddr {
        self.core.x_addr(slot)
    }

    /// The map's persistent-memory pool.
    pub fn pool(&self) -> &Arc<M> {
        self.core.pool()
    }

    /// Number of threads the map was built for.
    pub fn nthreads(&self) -> usize {
        self.core.nthreads()
    }

    /// The map's persistent thread-slot registry.
    pub fn registry(&self) -> &Registry<M> {
        self.core.registry()
    }

    /// Claims a free registry slot; see
    /// [`DssQueue::register_thread`](crate::DssQueue::register_thread).
    ///
    /// # Errors
    ///
    /// [`SlotError::Exhausted`] when all slots are taken.
    pub fn register_thread(&self) -> Result<ThreadHandle, SlotError> {
        self.core.register_thread()
    }

    /// Returns a handle's slot to the registry.
    ///
    /// # Errors
    ///
    /// [`SlotError::StaleHandle`] / [`SlotError::ForeignHandle`] per
    /// [`Registry::release`].
    pub fn release_thread(&self, h: ThreadHandle) -> Result<(), SlotError> {
        self.core.release_thread(h)
    }

    /// Marks the crash boundary in the registry (idempotent per crash).
    /// The map needs no recovery phase — [`resolve`](Self::resolve) reads
    /// persisted state only — so this exists purely to make dead threads'
    /// slots adoptable.
    pub fn begin_recovery(&self) {
        self.core.begin_recovery();
    }

    /// Adopts one orphaned slot (fresh lease, EBR state inherited).
    ///
    /// # Errors
    ///
    /// [`SlotError::OutOfRange`] / [`SlotError::NotOrphaned`] per
    /// [`Registry::adopt`].
    pub fn adopt(&self, slot: usize) -> Result<ThreadHandle, SlotError> {
        self.core.adopt(slot)
    }

    /// [`adopt`](Self::adopt) over every orphaned slot, ascending.
    pub fn adopt_orphans(&self) -> Vec<ThreadHandle> {
        self.core.adopt_orphans()
    }

    // --- bucket-level geometry ------------------------------------------

    /// The number of published bucket levels (persisted).
    pub fn nlevels(&self) -> u64 {
        self.core.pool.peek(PAddr::from_index(A_NLEVELS))
    }

    fn level_buckets(&self, k: u64) -> u64 {
        self.buckets0 << k
    }

    /// Level bases are derivable from the layout and `k` alone — the
    /// growth invariant that lets `attach` find every level without a
    /// persisted directory beyond the level count.
    fn level_base(&self, k: u64) -> u64 {
        if k == 0 {
            self.buckets_base
        } else {
            // Levels 1..k-1 occupy buckets0·(2¹+…+2^(k-1)) words.
            self.ext_base + self.buckets0 * ((1 << k) - 2)
        }
    }

    /// First word past level `n - 1`: the reserve target for `n` levels.
    fn levels_end(&self, n: u64) -> u64 {
        self.level_base(n - 1) + self.level_buckets(n - 1)
    }

    fn bucket_addr(&self, k: u64, key: u64) -> PAddr {
        let mut h = key ^ (key >> 33);
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        PAddr::from_index(self.level_base(k) + (h & (self.level_buckets(k) - 1)))
    }

    /// Adds one bucket level, crash-atomically: materializes the new
    /// level's segments first ([`Memory::reserve`]; fresh words read 0 =
    /// empty chains), then publishes the new level count with a single
    /// persisted word store. An administrative, quiescent operation — run
    /// it while no other thread operates on the map. Returns the new
    /// level count.
    ///
    /// # Panics
    ///
    /// Panics at [`MAX_LEVELS`].
    pub fn grow(&self) -> u64 {
        let n = self.nlevels();
        assert!(n < MAX_LEVELS, "map already at MAX_LEVELS ({MAX_LEVELS}) bucket levels");
        let new = n + 1;
        // Segments first: a crash between reserve and publish leaves the
        // old table (the count still reads n).
        self.core.pool.reserve(self.levels_end(new) as usize);
        self.core.pool.store(PAddr::from_index(A_NLEVELS), new);
        self.core.pool.flush(PAddr::from_index(A_NLEVELS));
        self.core.pool.drain_line(PAddr::from_index(A_NLEVELS));
        new
    }

    // --- chain walks ----------------------------------------------------

    /// The entry node bound to `key`, or where a fresh entry must be
    /// linked. Entries are unique per key: an insert links against the
    /// newest level's head *as this walk observed it*, so a same-key insert
    /// landing after the walk fails that CAS and forces a re-walk.
    fn find_entry(&self, key: u64) -> Result<PAddr, Miss> {
        let nlevels = self.nlevels();
        let (mut bucket, mut head) = (PAddr::NULL, 0);
        for k in 0..nlevels {
            bucket = self.bucket_addr(k, key);
            head = self.core.pool.load(bucket);
            let mut e = tag::addr_of(head);
            while !e.is_null() {
                if self.core.pool.load(e.offset(E_KEY)) == key {
                    return Ok(e);
                }
                e = tag::addr_of(self.core.pool.load(e.offset(E_NEXT)));
            }
        }
        Err(Miss { nlevels, bucket, head })
    }

    /// Whether value node `vn` is `key`'s current binding.
    fn is_bound(&self, key: u64, vn: PAddr) -> bool {
        self.find_entry(key).is_ok_and(|en| self.core.pool.load(en.offset(E_VPTR)) == vn.to_word())
    }

    // --- allocation and reclamation -------------------------------------

    /// The nodes the `X` words name, which `resolve` dereferences however
    /// long ago their writes were superseded. Read with `peek`: the guard
    /// runs inside allocation and must not shift crash-point indices.
    fn x_named_nodes(&self) -> Vec<PAddr> {
        (0..self.core.nthreads)
            .map(|i| tag::addr_of(self.core.pool.peek(self.x_addr(i))))
            .filter(|d| !d.is_null())
            .collect()
    }

    /// Allocates a node, recycling retired nodes through EBR when the free
    /// lists run dry — except nodes an `X` word still names, which stay in
    /// limbo until the word moves on.
    fn alloc(&self, tid: usize) -> PAddr {
        self.nodes
            .alloc_with_reclaim_guarded(tid, &self.core.ebr, || self.x_named_nodes())
            .unwrap_or_else(|| panic!("map node pool exhausted (size it for the workload)"))
    }

    /// Allocates and persists a value node; the announce (or plain
    /// install) must not persist ahead of it.
    fn init_value_node(&self, tid: usize, key: u64, value: u64, seq: u64, flags: u64) -> PAddr {
        let node = self.alloc(tid);
        let fields = [(V_KEY, key), (V_VALUE, value), (V_SEQ, seq), (V_FLAGS, flags)];
        for (f, w) in fields {
            self.core.pool.store(node.offset(f), w);
        }
        // Every field word, not just the node base: under word-granular
        // flushing the fields are separate flush units.
        self.core.pool.persist_batch(&fields.map(|(f, _)| node.offset(f)));
        node
    }

    // --- detectable operations ------------------------------------------

    /// **prep-put(key, val, seq)**: allocates and persists a value node,
    /// then announces it in `X[tid]`. `seq` is the application's §2.1
    /// disambiguation tag.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_put(&self, h: ThreadHandle, key: u64, val: u64, seq: u64) {
        self.prep_write(h, key, val, seq, 0);
    }

    /// **prep-remove(key, seq)**: like a put, announcing a `TOMBSTONE`
    /// value node — the binding that reads as absent.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn prep_remove(&self, h: ThreadHandle, key: u64, seq: u64) {
        self.prep_write(h, key, 0, seq, FLAG_TOMBSTONE);
    }

    fn prep_write(&self, h: ThreadHandle, key: u64, val: u64, seq: u64, flags: u64) {
        let tid = h.slot();
        let old = self.core.pool.peek(self.x_addr(tid));
        // A prepared write that never executed was never linked, so this
        // prep, which moves X off its node, retires it — decided while X
        // still guards the node. (An exec that crashed after its install
        // CAS leaves X incomplete but the node linked. The binding is read
        // before the flag: an unlink follows its SUPERSEDED mark.)
        let orphan = tag::has(old, M_PREP) && !tag::has(old, M_COMPL) && {
            let vn = tag::addr_of(old);
            let key = self.core.pool.peek(vn.offset(V_KEY));
            !self.is_bound(key, vn)
                && self.core.pool.peek(vn.offset(V_FLAGS)) & FLAG_SUPERSEDED == 0
        };
        let node = self.init_value_node(tid, key, val, pack(tid, seq), flags);
        // Announce + the durable-before-return drain (DetectableCore).
        self.core.announce(tid, tag::set(node.to_word(), M_PREP));
        if orphan {
            self.core.ebr.retire(tid, tag::addr_of(old));
        }
    }

    /// **exec-put()**: installs the prepared value node as its key's
    /// binding — into the key's existing entry (marking the incumbent
    /// superseded, persisted, first) or via a fresh entry prepended to a
    /// bucket chain.
    ///
    /// # Panics
    ///
    /// Panics if no put is prepared for `tid` (or it already executed —
    /// Axiom 2's precondition `R[pᵢ] = ⊥`).
    pub fn exec_put(&self, h: ThreadHandle) -> KvResp {
        self.exec_write(h, false)
    }

    /// **exec-remove()**: installs the prepared tombstone into the key's
    /// entry; a remove of an absent key takes effect trivially (the map is
    /// total) and is marked complete without touching any chain.
    ///
    /// # Panics
    ///
    /// Panics if no remove is prepared for `tid` (or it already executed).
    pub fn exec_remove(&self, h: ThreadHandle) -> KvResp {
        self.exec_write(h, true)
    }

    fn exec_write(&self, h: ThreadHandle, remove: bool) -> KvResp {
        let tid = h.slot();
        let _g = self.core.pin(tid);
        let x = self.core.pool.load(self.x_addr(tid));
        let name = if remove { "exec-remove" } else { "exec-put" };
        assert!(
            tag::has(x, M_PREP) && !tag::has(x, M_COMPL),
            "{name} without a pending prepared operation (X[{tid}] = {x:#x})"
        );
        let vn = tag::addr_of(x);
        let tombstone = self.core.pool.load(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE != 0;
        let prepared = if tombstone { "remove" } else { "put" };
        assert_eq!(tombstone, remove, "{name} of a prepared {prepared}");
        let key = self.core.pool.load(vn.offset(V_KEY));
        self.install(tid, key, vn, tombstone, Some(x));
        KvResp::Ok
    }

    /// The one install machine behind every write: binds value node `vn`
    /// to `key`, either by swinging the key's entry or by linking a fresh
    /// entry seeded with `vn`. `x` is the announced `X` word of a
    /// detectable write — its completion is marked once the install is
    /// durable — and `None` for a plain write, which never touches `X`
    /// (Axiom 4). A remove of an absent key takes effect trivially.
    fn install(&self, tid: usize, key: u64, vn: PAddr, tombstone: bool, x: Option<u64>) {
        let mut bo = self.new_backoff();
        loop {
            let linked = match self.find_entry(key) {
                Ok(en) => self.swing(tid, en, vn),
                Err(_) if tombstone => {
                    // Only the completion mark to persist. The node is never
                    // linked: free it, or retire it behind the X guard.
                    match x {
                        Some(x) => {
                            self.core.complete(tid, tag::set(x, M_COMPL));
                            self.core.pool.drain();
                            self.core.ebr.retire(tid, vn);
                        }
                        None => self.nodes.free(tid, vn),
                    }
                    return;
                }
                Err(miss) => self.prepend(tid, key, vn, miss),
            };
            if let Some(word) = linked {
                self.core.pool.flush(word);
                if let Some(x) = x {
                    // Ordering point: the completion mark must not
                    // persist ahead of the install it certifies.
                    self.core.pool.drain_line(word);
                    self.core.complete(tid, tag::set(x, M_COMPL));
                }
                self.core.pool.drain();
                return;
            }
            bo.spin();
        }
    }

    /// Swings entry `en` from its current value node to `vn`; returns the
    /// swung word, or `None` if another write won. The incumbent is marked
    /// superseded, persisted, *before* the CAS — its owner must be able to
    /// prove installation even after it is replaced — and the winner of
    /// the CAS, the one write that unlinks it, retires it.
    fn swing(&self, tid: usize, en: PAddr, vn: PAddr) -> Option<PAddr> {
        let eva = en.offset(E_VPTR);
        let old_w = self.core.pool.load(eva);
        let old = tag::addr_of(old_w);
        // Preserve the incumbent's TOMBSTONE bit.
        let fl = self.core.pool.load(old.offset(V_FLAGS));
        self.core.pool.store(old.offset(V_FLAGS), fl | FLAG_SUPERSEDED);
        self.core.pool.flush(old.offset(V_FLAGS));
        // The superseded mark must be persistent before the install can
        // take effect; a detectable write's announce already is (prep
        // drains it before returning).
        self.core.pool.drain_line(old.offset(V_FLAGS));
        self.core.pool.cas(eva, old_w, vn.to_word()).ok()?;
        self.core.ebr.retire(tid, old);
        Some(eva)
    }

    /// Links a fresh entry seeded with `vn` at the head the walk observed
    /// in the newest level; returns the bucket word, or `None` to re-walk
    /// (a level was added, or the head moved — possibly this very key's
    /// first insert by another thread).
    fn prepend(&self, tid: usize, key: u64, vn: PAddr, miss: Miss) -> Option<PAddr> {
        if self.nlevels() != miss.nlevels {
            return None;
        }
        let en = self.alloc(tid);
        let fields = [(E_KEY, key), (E_VPTR, vn.to_word()), (E_NEXT, miss.head)];
        for (f, w) in fields {
            self.core.pool.store(en.offset(f), w);
        }
        // A chain must never pass through an unwritten node: the entry is
        // persistent before its link can take effect.
        self.core.pool.persist_batch(&fields.map(|(f, _)| en.offset(f)));
        if self.core.pool.cas(miss.bucket, miss.head, en.to_word()).is_ok() {
            return Some(miss.bucket);
        }
        // The entry was never exposed: free it directly.
        self.nodes.free(tid, en);
        None
    }

    // --- plain operations (Axiom 4) -------------------------------------

    /// Non-detectable **put(key, val)**: the same install machine with
    /// every access to `X` omitted.
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn put(&self, h: ThreadHandle, key: u64, val: u64) -> KvResp {
        self.plain_write(h, key, val, false)
    }

    /// Non-detectable **remove(key)** (Axiom 4).
    ///
    /// # Panics
    ///
    /// Panics if the node pool is exhausted.
    pub fn remove(&self, h: ThreadHandle, key: u64) -> KvResp {
        self.plain_write(h, key, 0, true)
    }

    fn plain_write(&self, h: ThreadHandle, key: u64, val: u64, tombstone: bool) -> KvResp {
        let tid = h.slot();
        let flags = if tombstone { FLAG_TOMBSTONE } else { 0 };
        // Allocate before pinning: a pinned thread holds back the epoch
        // its own reclamation waits for.
        let vn = self.init_value_node(tid, key, val, u64::MAX, flags);
        let _g = self.core.pin(tid);
        self.install(tid, key, vn, tombstone, None);
        KvResp::Ok
    }

    /// **get(key)** (plain): the key's current value, or `Absent`.
    pub fn get(&self, h: ThreadHandle, key: u64) -> KvResp {
        let _g = self.core.pin(h.slot());
        match self.find_entry(key) {
            Err(_) => KvResp::Absent,
            Ok(en) => {
                let vn = tag::addr_of(self.core.pool.load(en.offset(E_VPTR)));
                if self.core.pool.load(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE != 0 {
                    KvResp::Absent
                } else {
                    KvResp::Value(self.core.pool.load(vn.offset(V_VALUE)))
                }
            }
        }
    }

    /// **resolve()**: reports the most recently prepared operation and
    /// whether it took effect. Needs no prior recovery phase; callable
    /// any time, idempotent.
    ///
    /// The effect proof mirrors the register's: the completion mark, the
    /// node's persisted `SUPERSEDED` flag, or the node being its key's
    /// current binding each individually prove installation. A remove of
    /// an absent key leaves only the completion mark — a crash before it
    /// reports the remove unresolved, and re-executing is idempotent.
    pub fn resolve(&self, h: ThreadHandle) -> ResolvedMap {
        let x = self.core.pool.load(self.x_addr(h.slot()));
        if !tag::has(x, M_PREP) {
            return ResolvedMap { op: None, resp: None };
        }
        let vn = tag::addr_of(x);
        let key = self.core.pool.load(vn.offset(V_KEY));
        let seq = self.core.pool.load(vn.offset(V_SEQ)) & tag::ADDR_MASK;
        let flags = self.core.pool.load(vn.offset(V_FLAGS));
        let op = if flags & FLAG_TOMBSTONE != 0 {
            KvOp::Remove
        } else {
            KvOp::Put(self.core.pool.load(vn.offset(V_VALUE)))
        };
        let effective =
            tag::has(x, M_COMPL) || flags & FLAG_SUPERSEDED != 0 || self.is_bound(key, vn);
        ResolvedMap {
            op: Some((key, op, seq)),
            resp: if effective { Some(KvResp::Ok) } else { None },
        }
    }

    // --- post-crash repair ----------------------------------------------

    /// Rebuilds the volatile allocator after a crash: every reachable
    /// entry node, every entry's current value node, and every
    /// `X`-named node stay allocated.
    ///
    /// The crash discarded EBR state, and with it the retirement of any
    /// `X`-named node that was already dead: one a later write unlinked
    /// (its `SUPERSEDED` flag is persisted before the unlink) or a
    /// completed remove of an absent key. Those are retired again here,
    /// and the `X` guard frees them once `X` moves on. An unexecuted
    /// prep's node is left to its owner's next prep.
    pub fn rebuild_allocator(&self) {
        let mut live: Vec<PAddr> = Vec::new();
        self.for_each_entry(|e, v| live.extend([e, v]));
        let mut dead = Vec::new();
        for i in 0..self.core.nthreads {
            let x = self.core.pool.peek(self.x_addr(i));
            let d = tag::addr_of(x);
            if d.is_null() {
                continue;
            }
            let superseded = self.core.pool.peek(d.offset(V_FLAGS)) & FLAG_SUPERSEDED != 0;
            if (tag::has(x, M_COMPL) || superseded) && !live.contains(&d) {
                dead.push((i, d));
            }
            live.push(d);
        }
        self.nodes.rebuild(live);
        self.core.ebr.reset();
        for (i, d) in dead {
            self.core.ebr.retire(i, d);
        }
    }

    /// Calls `f` with every entry node and its current value node, walked
    /// with `peek` so rebuilds and snapshots don't perturb counted
    /// experiments.
    fn for_each_entry(&self, mut f: impl FnMut(PAddr, PAddr)) {
        for k in 0..self.nlevels() {
            for b in 0..self.level_buckets(k) {
                let head = PAddr::from_index(self.level_base(k) + b);
                let mut e = tag::addr_of(self.core.pool.peek(head));
                while !e.is_null() {
                    f(e, tag::addr_of(self.core.pool.peek(e.offset(E_VPTR))));
                    e = tag::addr_of(self.core.pool.peek(e.offset(E_NEXT)));
                }
            }
        }
    }

    /// The map's current contents (uninstrumented), for conservation
    /// checks and debugging.
    pub fn snapshot(&self) -> BTreeMap<u64, u64> {
        let peek = |a: PAddr| self.core.pool.peek(a);
        let mut out = BTreeMap::new();
        self.for_each_entry(|e, vn| {
            if peek(vn.offset(V_FLAGS)) & FLAG_TOMBSTONE == 0 {
                out.insert(peek(e.offset(E_KEY)), peek(vn.offset(V_VALUE)));
            }
        });
        out
    }
}

fn pack(pid: usize, seq: u64) -> u64 {
    ((pid as u64) << 48) | (seq & tag::ADDR_MASK)
}

impl<M: Memory> fmt::Debug for DetectableMap<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DetectableMap")
            .field("nthreads", &self.core.nthreads)
            .field("buckets0", &self.buckets0)
            .field("nlevels", &self.nlevels())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dss_pmem::WritebackAdversary;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn run_crash_at<F: FnOnce()>(m: &DetectableMap, k: u64, f: F) -> bool {
        m.pool().arm_crash_after(k);
        let res = catch_unwind(AssertUnwindSafe(f));
        m.pool().disarm_crash();
        match res {
            Ok(()) => false,
            Err(p) if p.downcast_ref::<dss_pmem::CrashSignal>().is_some() => true,
            Err(p) => std::panic::resume_unwind(p),
        }
    }

    /// Every node is in exactly one place: a free list, EBR limbo, a chain,
    /// or named only by an `X` word (an unexecuted prep). A node in two
    /// places is a double retirement; a node in none is a leak.
    fn assert_conserved(m: &DetectableMap, when: &str) {
        let limbo = m.core.ebr.limbo_nodes();
        let mut chained = Vec::new();
        m.for_each_entry(|e, v| chained.extend([e, v]));
        let named_only: Vec<PAddr> = m
            .x_named_nodes()
            .into_iter()
            .filter(|d| !limbo.contains(d) && !chained.contains(d))
            .collect();
        let mut all = m.nodes.free_nodes();
        all.extend(limbo.iter().chain(&chained).chain(&named_only));
        all.sort();
        let placed = all.len();
        all.dedup();
        assert_eq!(all.len(), placed, "{when}: a node is in two places");
        assert_eq!(placed as u64, m.nodes.total_nodes(), "{when}: a node leaked");
    }

    #[test]
    fn put_get_remove_basic() {
        let m = DetectableMap::new(2, 16, 8);
        let h0 = m.register_thread().unwrap();
        let h1 = m.register_thread().unwrap();
        assert_eq!(m.get(h0, 1), KvResp::Absent);
        assert_eq!(m.put(h0, 1, 10), KvResp::Ok);
        assert_eq!(m.get(h1, 1), KvResp::Value(10));
        assert_eq!(m.put(h1, 1, 11), KvResp::Ok);
        assert_eq!(m.get(h0, 1), KvResp::Value(11));
        assert_eq!(m.remove(h0, 1), KvResp::Ok);
        assert_eq!(m.get(h1, 1), KvResp::Absent);
        assert_eq!(m.remove(h1, 2), KvResp::Ok, "removing an absent key is legal");
    }

    #[test]
    fn many_keys_collide_and_chain() {
        // 4 buckets, 64 keys: every chain holds many keys.
        let m = DetectableMap::new(1, 128, 4);
        let h = m.register_thread().unwrap();
        for k in 0..64 {
            assert_eq!(m.put(h, k, k * 100), KvResp::Ok);
        }
        for k in 0..64 {
            assert_eq!(m.get(h, k), KvResp::Value(k * 100), "key {k}");
        }
        assert_eq!(m.snapshot().len(), 64);
    }

    #[test]
    fn detectable_put_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 3, 30, 0);
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((3, KvOp::Put(30), 0)), resp: None });
        assert_eq!(m.exec_put(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((3, KvOp::Put(30), 0)), resp: Some(KvResp::Ok) }
        );
        assert_eq!(m.get(h, 3), KvResp::Value(30));
    }

    #[test]
    fn detectable_remove_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.put(h, 5, 50);
        m.prep_remove(h, 5, 1);
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((5, KvOp::Remove, 1)), resp: None });
        assert_eq!(m.exec_remove(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((5, KvOp::Remove, 1)), resp: Some(KvResp::Ok) }
        );
        assert_eq!(m.get(h, 5), KvResp::Absent);
    }

    #[test]
    fn remove_absent_resolves_ok() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_remove(h, 99, 7);
        assert_eq!(m.exec_remove(h), KvResp::Ok);
        assert_eq!(
            m.resolve(h),
            ResolvedMap { op: Some((99, KvOp::Remove, 7)), resp: Some(KvResp::Ok) }
        );
    }

    #[test]
    fn overwritten_put_still_resolves_ok() {
        // The superseded flag preserves provenance after an overwrite.
        let m = DetectableMap::new(2, 8, 8);
        let h0 = m.register_thread().unwrap();
        let h1 = m.register_thread().unwrap();
        m.prep_put(h0, 4, 40, 0);
        m.exec_put(h0);
        m.put(h1, 4, 41); // overwrites
        assert_eq!(m.get(h0, 4), KvResp::Value(41));
        assert_eq!(
            m.resolve(h0),
            ResolvedMap { op: Some((4, KvOp::Put(40), 0)), resp: Some(KvResp::Ok) }
        );
    }

    #[test]
    fn seq_tag_disambiguates_identical_puts() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 1, 5, 0);
        m.exec_put(h);
        m.prep_put(h, 1, 5, 1); // same key and value, new op
        assert_eq!(m.resolve(h), ResolvedMap { op: Some((1, KvOp::Put(5), 1)), resp: None });
    }

    #[test]
    #[should_panic(expected = "without a pending prepared")]
    fn double_exec_panics() {
        let m = DetectableMap::new(1, 8, 8);
        let h = m.register_thread().unwrap();
        m.prep_put(h, 1, 1, 0);
        m.exec_put(h);
        m.exec_put(h); // Axiom 2: R[pᵢ] ≠ ⊥
    }

    /// A detectable put of `val` to `key`, or a remove if `val` is `None`.
    fn dwrite(m: &DetectableMap, h: ThreadHandle, key: u64, val: Option<u64>, seq: u64) {
        match val {
            Some(v) => m.prep_put(h, key, v, seq),
            None => m.prep_remove(h, key, seq),
        }
        m.exec_write(h, val.is_none());
    }

    /// Crashes a detectable write of `key` (a put of `new`, or a remove if
    /// `new` is `None`) at every pmem-op index under each adversary, on a
    /// map whose key is bound to `old` beforehand: `resolve` must agree
    /// with what a get observes, and no node may leak or double up.
    fn crash_sweep(old: Option<u64>, new: Option<u64>, adversaries: &[WritebackAdversary]) {
        let (key, seq) = (6, 4);
        let want_op = new.map_or(KvOp::Remove, KvOp::Put);
        let read = |v: Option<u64>| v.map_or(KvResp::Absent, KvResp::Value);
        for adv in adversaries {
            for k in 1..80 {
                let m = DetectableMap::new(1, 8, 8);
                let h = m.register_thread().unwrap();
                if let Some(v) = old {
                    m.put(h, key, v);
                }
                if !run_crash_at(&m, k, || dwrite(&m, h, key, new, seq)) {
                    break;
                }
                m.pool().crash(adv);
                m.rebuild_allocator();
                assert_conserved(&m, &format!("k={k} {adv:?}"));
                let now = m.get(h, key);
                match m.resolve(h) {
                    ResolvedMap { op: None, resp: None } => {
                        assert_eq!(now, read(old), "k={k} {adv:?}: not prepared")
                    }
                    ResolvedMap { op: Some((6, op, 4)), resp } if op == want_op => {
                        let expect = if resp.is_some() { read(new) } else { read(old) };
                        assert_eq!(now, expect, "k={k} {adv:?}: resolved {resp:?}");
                    }
                    other => panic!("k={k} {adv:?}: impossible resolution {other:?}"),
                }
            }
        }
    }

    #[test]
    fn crash_sweep_put_fresh_key() {
        let random = WritebackAdversary::Random { seed: 5, prob: 0.5 };
        crash_sweep(None, Some(10), &[WritebackAdversary::None, WritebackAdversary::All, random]);
    }

    #[test]
    fn crash_sweep_update_existing_key() {
        crash_sweep(Some(20), Some(21), &[WritebackAdversary::None, WritebackAdversary::All]);
    }

    #[test]
    fn crash_sweep_remove() {
        crash_sweep(Some(60), None, &[WritebackAdversary::None, WritebackAdversary::All]);
        crash_sweep(None, None, &[WritebackAdversary::None, WritebackAdversary::All]);
    }

    #[test]
    fn grow_preserves_contents_and_spreads_new_keys() {
        let m = DetectableMap::new(1, 256, 4);
        let h = m.register_thread().unwrap();
        for k in 0..32 {
            m.put(h, k, k + 1000);
        }
        assert_eq!(m.nlevels(), 1);
        assert_eq!(m.grow(), 2);
        assert_eq!(m.grow(), 3);
        // Old keys still found (their entries live in level 0)...
        for k in 0..32 {
            assert_eq!(m.get(h, k), KvResp::Value(k + 1000), "old key {k}");
        }
        // ...new keys land in the newest level and updates find them.
        for k in 100..140 {
            m.put(h, k, k);
            assert_eq!(m.get(h, k), KvResp::Value(k));
        }
        m.put(h, 5, 7777); // update an old-level key after growth
        assert_eq!(m.get(h, 5), KvResp::Value(7777));
        assert_eq!(m.snapshot().len(), 32 + 40);
    }

    #[test]
    fn grow_is_crash_atomic() {
        // Crash at every pmem-op index inside grow(): afterwards the map
        // reads either the old or the new level count, never a torn
        // table, and the contents are intact either way.
        for k in 1..12 {
            let m = DetectableMap::new(1, 64, 4);
            let h = m.register_thread().unwrap();
            for key in 0..16 {
                m.put(h, key, key * 2);
            }
            let crashed = run_crash_at(&m, k, || {
                m.grow();
            });
            m.pool().crash(&WritebackAdversary::All);
            m.rebuild_allocator();
            let n = m.nlevels();
            assert!(n == 1 || n == 2, "k={k}: torn level count {n}");
            for key in 0..16 {
                assert_eq!(m.get(h, key), KvResp::Value(key * 2), "k={k} key={key}");
            }
            if !crashed {
                break;
            }
        }
    }

    #[test]
    fn concurrent_disjoint_writers_conserve_all_bindings() {
        let m = DetectableMap::new(4, 256, 8);
        let hs: Vec<_> = (0..4).map(|_| m.register_thread().unwrap()).collect();
        std::thread::scope(|s| {
            for (tid, &h) in hs.iter().enumerate() {
                let m = &m;
                s.spawn(move || {
                    for i in 0..100 {
                        dwrite(m, h, (tid as u64) << 32 | (i % 10), Some(i), i);
                    }
                });
            }
        });
        let snap = m.snapshot();
        for tid in 0..4u64 {
            for key in 0..10u64 {
                let expect = 90 + key; // last write of i ≡ key (mod 10)
                assert_eq!(snap.get(&((tid << 32) | key)), Some(&expect), "t{tid} k{key}");
            }
        }
        for &h in &hs {
            assert_eq!(m.resolve(h).resp, Some(KvResp::Ok));
        }
        assert_conserved(&m, "after the writers joined");
    }

    #[test]
    fn concurrent_same_key_last_value_is_someones() {
        let m = DetectableMap::new(4, 512, 8);
        let hs: Vec<_> = (0..4).map(|_| m.register_thread().unwrap()).collect();
        std::thread::scope(|s| {
            for (tid, &h) in hs.iter().enumerate() {
                let m = &m;
                s.spawn(move || {
                    for i in 0..200 {
                        dwrite(m, h, 42, Some((tid as u64) << 16 | i), i);
                    }
                });
            }
        });
        let v = match m.get(hs[0], 42) {
            KvResp::Value(v) => v,
            other => panic!("key must be bound, got {other:?}"),
        };
        assert!(v >> 16 < 4 && (v & 0xffff) == 199, "final value {v:#x} is someone's last write");
        for &h in &hs {
            assert_eq!(m.resolve(h).resp, Some(KvResp::Ok));
        }
        assert_conserved(&m, "after the writers joined");
    }

    #[test]
    fn file_backed_create_attach_round_trip() {
        let path = std::env::temp_dir()
            .join(format!("dss-map-test-{}-roundtrip.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let m = DetectableMap::create(&path, 2, 32, 8).unwrap();
            let h = m.register_thread().unwrap();
            for k in 0..10 {
                m.put(h, k, k + 1);
            }
            m.grow();
            m.put(h, 100, 101);
            m.prep_put(h, 7, 7777, 3);
            // prep announced but never executed; the new process resolves it.
        }
        {
            let m = DetectableMap::attach(&path).unwrap();
            m.begin_recovery();
            let adopted = m.adopt_orphans();
            assert_eq!(adopted.len(), 1);
            let h = adopted[0];
            assert_eq!(m.nlevels(), 2);
            for k in 0..10 {
                assert_eq!(m.get(h, k), KvResp::Value(k + 1));
            }
            assert_eq!(m.get(h, 100), KvResp::Value(101));
            let r = m.resolve(h);
            assert_eq!(r.op, Some((7, KvOp::Put(7777), 3)));
            assert_eq!(r.resp, None, "prep never executed");
            // Finish it under the adopted identity.
            assert_eq!(m.exec_put(h), KvResp::Ok);
            assert_eq!(m.get(h, 7), KvResp::Value(7777));
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn attach_rejects_wrong_kind() {
        let path =
            std::env::temp_dir().join(format!("dss-map-test-{}-kind.pool", std::process::id()));
        let _ = std::fs::remove_file(&path);
        crate::DssQueue::create(&path, 1, 8).unwrap();
        match DetectableMap::attach(&path) {
            Err(AttachError::AppMismatch { expected, found }) => {
                assert_eq!(expected, KIND_DETECTABLE_MAP);
                assert_eq!(found, crate::KIND_DSS_QUEUE);
            }
            other => panic!("expected AppMismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn node_reclamation_sustains_many_updates() {
        // 8 op slots per thread, 10_000 updates: without reclamation the
        // pool would exhaust after a handful.
        let m = DetectableMap::new(1, 8, 4);
        let h = m.register_thread().unwrap();
        for i in 0..10_000 {
            dwrite(&m, h, i % 3, Some(i), i);
        }
        for k in 0..3 {
            assert_eq!(m.get(h, k), KvResp::Value(9_999 - (9_999 - k) % 3), "key {k}");
        }
        assert_conserved(&m, "after 10k updates");
    }

    #[test]
    fn x_guard_keeps_a_superseded_node_resolvable() {
        // h1's overwrites retire h0's node at once; 32 nodes in all, so
        // EBR recycles every other node hundreds of times. h0's X still
        // names the node, so it must never be handed out again.
        let m = DetectableMap::new(2, 8, 4);
        let (h0, h1) = (m.register_thread().unwrap(), m.register_thread().unwrap());
        dwrite(&m, h0, 5, Some(50), 1);
        for i in 0..10_000 {
            m.put(h1, 5, i);
        }
        let want = ResolvedMap { op: Some((5, KvOp::Put(50), 1)), resp: Some(KvResp::Ok) };
        assert_eq!(m.resolve(h0), want);
        assert_conserved(&m, "after 10k overwrites");
    }

    #[test]
    fn nodes_are_conserved_under_churn_and_crashes() {
        // Overwrites, removes of absent keys, preps replaced without an
        // exec, and crash-and-rebuild cycles on a 64-node pool; after each
        // step nodes are conserved and the map matches a shadow.
        let m = DetectableMap::new(2, 16, 4);
        let hs = [m.register_thread().unwrap(), m.register_thread().unwrap()];
        let mut shadow = BTreeMap::new();
        let mut r = 0x9e37_79b9_7f4a_7c15u64;
        for seq in 0..4_000u64 {
            r ^= r << 13; // xorshift64
            r ^= r >> 7;
            r ^= r << 17;
            let (h, key, op) = (hs[(r & 1) as usize], (r >> 1) % 6, (r >> 8) % 4);
            // A put of `seq`, or a remove (the key is often absent).
            let val = (r >> 16 & 1 == 0).then_some(seq);
            let took_effect = match op {
                0 => val.map_or_else(|| m.remove(h, key), |v| m.put(h, key, v)) == KvResp::Ok,
                1 => {
                    dwrite(&m, h, key, val, seq);
                    true
                }
                2 => {
                    // Never executed: the next prep of h replaces it.
                    m.prep_put(h, key, seq, seq);
                    false
                }
                _ => {
                    if run_crash_at(&m, 1 + (r >> 20) % 24, || dwrite(&m, h, key, val, seq)) {
                        m.pool().crash(&WritebackAdversary::Random { seed: r, prob: 0.5 });
                        m.rebuild_allocator();
                    }
                    let done = m.resolve(h);
                    done.resp.is_some() && done.op.is_some_and(|o| o.2 == seq)
                }
            };
            match val {
                Some(v) if took_effect => shadow.insert(key, v),
                None if took_effect => shadow.remove(&key),
                _ => None,
            };
            assert_conserved(&m, &format!("step {seq} (op {op})"));
            assert_eq!(m.snapshot(), shadow, "step {seq} (op {op})");
        }
    }

    #[test]
    fn four_thousand_keys_sustain_a_hundred_thousand_updates() {
        // A pool sized for 4096 keys (an entry and a binding each) plus 128
        // nodes of slack: updates recycle superseded bindings in O(1).
        let keys = 4096;
        let m = DetectableMap::new(1, keys + 64, 256);
        let h = m.register_thread().unwrap();
        for k in 0..keys {
            m.put(h, k, k);
        }
        for i in 0..100_000u64 {
            dwrite(&m, h, i.wrapping_mul(2_654_435_761) % keys, Some(i), i);
        }
        assert_eq!(m.snapshot().len(), keys as usize);
        assert_conserved(&m, "after 100k updates");
    }
}
