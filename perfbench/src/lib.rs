//! The DSS benchmark: three closed-loop workloads that call the public
//! `dss-core` functions of the DSS queue and the detectable map directly,
//! check every output, and report end-to-end metrics (untraced) or
//! per-layer metrics (traced). `NOTES.md` beside this package records the
//! design, the layer map and the predictions.

use std::time::{Duration, Instant};

use dss_pmem::{PmemPool, StatsSnapshot};

pub mod crash_recover;
pub mod hist;
pub mod kv_ycsb_a;
pub mod queue_pairs;
pub mod report;
pub mod trace;

use hist::Windows;
use trace::Tracer;

/// Flush penalty in spin-loop iterations on every workload's pool (E16's
/// setting). Granularity is the library default (line); coalescing,
/// per-address drains and backoff stay at their default, off.
pub const FLUSH_PENALTY: u64 = 20;

/// Reads each round issues on a structure whose main loop has none.
pub const READ_PROBE: u64 = 2_000;

/// Crash-and-recover cycles each round of `queue-pairs` and `kv-ycsb-a`
/// runs on its end state: central and independent recovery take turns, one
/// latency window ([`hist::WINDOW`] recoveries) of each at a time, so a
/// window spans as little time as it can.
pub const RECOVERY_PROBE: u64 = 400;

/// The workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["queue-pairs", "kv-ycsb-a", "crash-recover"];

/// How many rounds a run makes.
#[derive(Clone, Copy, Debug)]
pub enum Rounds {
    /// Rounds until this much time has passed since the first began (at
    /// least two).
    For(Duration),
    /// A fixed number of rounds (repeatable runs).
    Count(u64),
}

/// How long one round's main loop runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Wall-clock length of the main loop.
    Time(Duration),
    /// A fixed number of loop iterations per client (repeatable runs).
    Iters(u64),
}

impl Budget {
    /// Whether a loop that started at `start` and has run `iters`
    /// iterations, the last ending at `now`, is done.
    #[inline]
    pub fn done(&self, start: Instant, now: Instant, iters: u64) -> bool {
        match *self {
            Budget::Time(d) => now.duration_since(start) >= d,
            Budget::Iters(n) => iters >= n,
        }
    }
}

/// One run of one workload.
#[derive(Clone, Debug)]
pub struct RunCfg {
    /// Drives keys, op choices, crash points and writeback-adversary seeds.
    pub seed: u64,
    /// Rounds; each builds its structure afresh.
    pub rounds: Rounds,
    /// Length of each round's main loop.
    pub budget: Budget,
    /// Trace every other round (the rest measure the untraced baseline the
    /// tracing overhead is taken against).
    pub trace: bool,
    /// Fault injection for the self-test: corrupt every n-th `get` answer
    /// before it is checked (0 = never).
    pub corrupt_get_every: u64,
}

impl RunCfg {
    /// Whether a run that began at `start` and has finished `done` rounds
    /// starts another.
    pub fn more_rounds(&self, start: Instant, done: u64) -> bool {
        match self.rounds {
            Rounds::For(d) => done < 2 || start.elapsed() < d,
            Rounds::Count(n) => done < n,
        }
    }
}

/// The share of a run's latency windows ([`hist::Windows`]) and rounds the
/// end-to-end latencies and rates are read from: the mean of the fastest
/// twentieth. On a shared host the whole machine slows by 20–40% in
/// stretches of a fraction of a second to tens of seconds, whatever the
/// program does (a pure ALU loop shows it too). A run's median then
/// depends on how much of the run such stretches covered, which changes
/// from run to run; the fastest twentieth reads the program at the host's
/// normal speed as long as a twentieth of the run escaped them. Windows of
/// [`hist::WINDOW`] samples are short enough that some do even in a busy
/// minute, where
/// whole rounds of 0.25 s seldom are. A mean over that share, unlike a
/// quantile, moves smoothly when a slow stretch covers more or less of it.
pub const FAST: f64 = 0.05;

/// The end-to-end latency kinds, each reported as its p50 and p90 in the
/// run's fastest windows ([`FAST`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One detectable dequeue (queue) or put (map), prep + exec.
    Op,
    /// One detectable enqueue (queue) or put (map), prep + exec.
    Update,
    /// One plain read: `peek_front` (queue) or `get` (map).
    Read,
    /// One central recovery, crash excluded.
    Central,
    /// One independent (§3.3) recovery, crash excluded.
    Independent,
}

const KINDS: usize = 5;

/// What a run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Operations issued (client ops, probe reads and probe recoveries).
    pub attempted: u64,
    /// Operations that failed: every failed output check, and every
    /// enqueue still refused after its retries.
    pub failed: u64,
    /// Enqueues whose `prep_enqueue` returned `QueueFull` at least once.
    pub alloc_fail: u64,
    /// Seconds to build each round's structure and its initial load.
    pub setup_s: Vec<f64>,
    /// Each round's verified client operations per second.
    pub rates: Vec<f64>,
    /// The untraced rounds' latencies, by [`Kind`].
    latencies: [Windows; KINDS],
    /// [`Kind::Op`] latencies of the traced rounds, for the tracing
    /// overhead.
    pub op_traced: Windows,
    traced: bool,
    /// Layer spans and aggregates of the traced rounds.
    pub tracer: Tracer,
    /// FNV-1a digest of the op sequence and its answers (single-client
    /// workloads; repeatable per seed).
    pub digest: u64,
    /// pmem primitives executed on every round's pool.
    pub pmem: StatsSnapshot,
}

impl Outcome {
    /// A fresh outcome whose spans are timed from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            alloc_fail: 0,
            setup_s: Vec::new(),
            rates: Vec::new(),
            latencies: Default::default(),
            op_traced: Windows::default(),
            traced: false,
            tracer: Tracer::new(false, epoch),
            digest: FNV_OFFSET,
            pmem: StatsSnapshot::default(),
        }
    }

    /// Starts round `round` of `cfg`; returns whether it is traced (in a
    /// traced run, every other round).
    pub fn begin_round(&mut self, cfg: &RunCfg, round: u64) -> bool {
        self.traced = cfg.trace && round % 2 == 1;
        self.traced
    }

    /// Records one latency of `kind`. Traced rounds keep only
    /// [`Kind::Op`], apart, for the tracing overhead.
    #[inline]
    pub fn record(&mut self, kind: Kind, ns: u64) {
        if !self.traced {
            self.latencies[kind as usize].record(ns);
        } else if kind == Kind::Op {
            self.op_traced.record(ns);
        }
    }

    /// Adds a client's [`record`](Self::record)s, kept apart by kind.
    pub fn merge(&mut self, kind: Kind, h: &Windows) {
        if !self.traced {
            self.latencies[kind as usize].merge(h);
        } else if kind == Kind::Op {
            self.op_traced.merge(h);
        }
    }

    /// Ends the round: folds its pool's counters into the run's.
    pub fn end_round(&mut self, pool: &PmemPool, tr: Tracer) {
        trace::add_stats(&mut self.pmem, &pool.stats());
        self.tracer.merge(tr);
    }

    /// `kind`'s p50 and p90 in the run's fastest windows ([`FAST`]), in
    /// microseconds (0 if no window of `kind` closed).
    pub fn latency_us(&self, kind: Kind) -> (f64, f64) {
        self.latencies[kind as usize].fast_us(FAST)
    }

    /// Verified operations per second in the run's fastest rounds
    /// ([`FAST`]).
    pub fn throughput(&self) -> f64 {
        hist::top_mean(&self.rates, FAST)
    }

    /// Verified over attempted operations.
    pub fn ok_ratio(&self) -> f64 {
        (self.attempted - self.failed.min(self.attempted)) as f64 / self.attempted.max(1) as f64
    }

    /// Folds `words` into the op-sequence digest.
    pub fn digest(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.digest = (self.digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Nanoseconds since `t0`.
#[inline]
pub fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// splitmix64: small, seedable, and the same stream on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5DEE_CE66_D1A4_F87D)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Runs `name` under `cfg`; `None` for an unknown workload name.
pub fn run_workload(name: &str, cfg: &RunCfg) -> Option<Outcome> {
    match name {
        "queue-pairs" => Some(queue_pairs::run(cfg)),
        "kv-ycsb-a" => Some(kv_ycsb_a::run(cfg)),
        "crash-recover" => Some(crash_recover::run(cfg)),
        _ => None,
    }
}
