//! The free-running asynchronous campaign scheduler.
//!
//! Shards run unsynchronized over shared acceptance state: accepted traces
//! are published into a global bitset by word-wise `AtomicU64::fetch_or`
//! ([`AtomicCoverage`]), the candidate pool lives behind an `RwLock` that
//! shards read opportunistically and append to under a short write lock,
//! and the iteration budget is a single `fetch_add` counter — no round
//! barrier, so the slowest candidate in flight never gates its peers. Each
//! shard steps the same `ShardState` as the lockstep scheduler, and the
//! collector feeds the same `CampaignSink`; only the acceptance decision
//! ([`AsyncAcceptance`]) moves shard-side. As under lockstep, the calling
//! thread hosts shard 0, so a one-shard run spawns no thread.
//!
//! Determinism is deliberately scoped to the lockstep engine: with two or
//! more free-running shards the acceptance *order* depends on thread
//! interleaving, so `gen_classes` ordering and (for the uniqueness
//! criteria) the exact accepted set may vary run to run. What is invariant
//! is soundness: every accepted candidate was unique (or coverage-growing)
//! relative to the accepted set at its acceptance point, because the final
//! verdict is always taken under the index write lock (uniqueness) or
//! through the atomic-OR publication itself (greedy), where each bit's
//! 0→1 transition is observed by exactly one thread. A one-shard async run
//! replays `run_campaign` bit for bit — same RNG stream, same pool
//! contents at every pick, same acceptance sequence — which is what the
//! replay-with-lockstep workflow in the README leans on. See DESIGN.md §14
//! for the full argument.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread;
use std::time::Instant;

use classfuzz_coverage::{AtomicCoverage, SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::{AcceptanceTelemetry, MutatorStats};
use classfuzz_vm::{run_contained, Jvm, VmSpec};

use super::{
    campaign_budget, contain_shard, distill_due, distill_pool, prepare_seed_pool, Algorithm,
    CampaignConfig, CampaignResult, CampaignSink, EngineError, PoolEntry, Produced, Report,
    ShardState,
};

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // A panicking shard is already contained as ShardDied; its poison bit
    // must not cascade into every peer (same policy as SiteUniverse).
    lock.read().unwrap_or_else(|p| p.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|p| p.into_inner())
}

/// Acceptance-path counters shared by all shards. The async engine cannot
/// read them out of the `SuiteIndex` (shards also resolve offers on the
/// read-lock probe and the `[tr]` lock-free fast path, which the index
/// counters never see), so it tallies its own.
#[derive(Debug, Default)]
struct AsyncCounters {
    offered: AtomicU64,
    accepted: AtomicU64,
    fingerprint_fast_path: AtomicU64,
    word_compare_fallbacks: AtomicU64,
    distill_passes: AtomicU64,
    distill_evicted: AtomicU64,
}

impl AsyncCounters {
    fn telemetry(&self) -> AcceptanceTelemetry {
        AcceptanceTelemetry {
            offered: self.offered.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            fingerprint_fast_path: self.fingerprint_fast_path.load(Ordering::Relaxed),
            word_compare_fallbacks: self.word_compare_fallbacks.load(Ordering::Relaxed),
            exec_runs: 0,
            exec_discrepancies: 0,
            distill_passes: self.distill_passes.load(Ordering::Relaxed),
            distill_evicted: self.distill_evicted.load(Ordering::Relaxed),
        }
    }
}

/// The shared acceptance state — the async counterpart of the private
/// `Acceptance` enum, callable from any shard without a coordinator.
enum AsyncAcceptance {
    /// Uniqueness acceptance: the suite index behind an `RwLock`
    /// (double-checked — read-lock probe, write-lock re-check-and-insert),
    /// plus the accepted suite's union coverage published through
    /// atomic-OR. The published bitset powers the `[tr]` lock-free fast
    /// accept: a trace holding a site no accepted trace covers cannot
    /// equal any of them, so novelty in the bitset proves uniqueness
    /// before any lock is taken.
    Unique {
        criterion: UniquenessCriterion,
        index: RwLock<SuiteIndex>,
        published: AtomicCoverage,
    },
    /// Greedy acceptance is fully lock-free: `AtomicCoverage::absorb`
    /// attributes each bit's 0→1 transition to exactly one caller, so
    /// "did this trace grow accumulated coverage?" has a sound concurrent
    /// answer with no lock at all.
    Greedy(AtomicCoverage),
    /// Randfuzz: accept everything.
    All,
}

impl AsyncAcceptance {
    fn new(algorithm: Algorithm) -> AsyncAcceptance {
        let unique = |criterion| AsyncAcceptance::Unique {
            criterion,
            index: RwLock::new(SuiteIndex::new(criterion)),
            published: AtomicCoverage::new(),
        };
        match algorithm {
            Algorithm::Classfuzz(criterion) => unique(criterion),
            Algorithm::Uniquefuzz => unique(UniquenessCriterion::StBr),
            Algorithm::Greedyfuzz => AsyncAcceptance::Greedy(AtomicCoverage::new()),
            Algorithm::Randfuzz => AsyncAcceptance::All,
        }
    }

    /// Algorithm 1 line 1 (TestClasses ← Seeds), against the shared state.
    /// Runs before any shard spawns, so plain sequential inserts suffice.
    /// Seed traces come from the pool cache — recorded once by
    /// [`prepare_seed_pool`], which always traces for the
    /// coverage-consulting algorithms this acts on.
    fn seed(&self, seed_pool: &[PoolEntry]) {
        match self {
            AsyncAcceptance::Unique {
                index, published, ..
            } => {
                let mut index = write_lock(index);
                for seed in seed_pool {
                    if let Some(trace) = &seed.trace {
                        index.insert(trace);
                        published.absorb(trace);
                    }
                }
            }
            AsyncAcceptance::Greedy(published) => {
                for seed in seed_pool {
                    if let Some(trace) = &seed.trace {
                        published.absorb(trace);
                    }
                }
            }
            AsyncAcceptance::All => {}
        }
    }

    /// The shard-side acceptance decision. Sound under concurrency: the
    /// verdict that admits a candidate is always taken while holding the
    /// index write lock (uniqueness) or through the atomic absorb itself
    /// (greedy), so two shards can never both accept equal traces.
    fn decide(&self, counters: &AsyncCounters, trace: Option<&TraceFile>, fp: Option<u64>) -> bool {
        let (criterion, index, published) = match self {
            AsyncAcceptance::All => return true,
            AsyncAcceptance::Greedy(published) => {
                return trace.is_some_and(|t| published.absorb(t));
            }
            AsyncAcceptance::Unique {
                criterion,
                index,
                published,
            } => (*criterion, index, published),
        };
        let Some(trace) = trace else {
            return false;
        };
        counters.offered.fetch_add(1, Ordering::Relaxed);
        let fp = fp.unwrap_or_else(|| trace.fingerprint());
        // `[tr]` lock-free fast accept: a bit not yet in the published
        // union means no accepted trace covers it, so this trace equals
        // none of them — skip the read probe and go straight to the
        // insert. (The write-lock insert still re-checks; the bitset only
        // routes, it never decides.)
        if criterion == UniquenessCriterion::Tr && published.would_grow(trace) {
            counters
                .fingerprint_fast_path
                .fetch_add(1, Ordering::Relaxed);
            return self.insert(counters, index, published, trace, fp);
        }
        // Double-checked acceptance, step 1: a read-only probe under the
        // shared lock. "Not unique" is final (suite entries are never
        // removed); "unique" must be re-checked under the write lock,
        // because a peer may insert an equal trace between the two steps.
        let (unique, fast) = read_lock(index).probe_with_fingerprint(trace, fp);
        if criterion == UniquenessCriterion::Tr {
            let path = if fast {
                &counters.fingerprint_fast_path
            } else {
                &counters.word_compare_fallbacks
            };
            path.fetch_add(1, Ordering::Relaxed);
        }
        if !unique {
            return false;
        }
        self.insert(counters, index, published, trace, fp)
    }

    /// Step 2: re-check and insert under the write lock, then publish the
    /// accepted trace's bits for the fast path and the coverage report.
    fn insert(
        &self,
        counters: &AsyncCounters,
        index: &RwLock<SuiteIndex>,
        published: &AtomicCoverage,
        trace: &TraceFile,
        fp: u64,
    ) -> bool {
        let inserted = write_lock(index).insert_if_unique_with_fingerprint(trace, fp);
        if inserted {
            published.absorb(trace);
            counters.accepted.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }
}

/// The shared candidate pool as a versioned immutable snapshot. Writers
/// (accept appends and distillation passes) build a fresh `Arc<Vec<_>>`
/// under the write lock and bump `version`; readers clone the `Arc` and
/// work from the snapshot lock-free. Distillation can therefore *remove*
/// entries without breaking readers — the old prefix-sync replica scheme
/// assumed an append-only pool, which eviction violates.
struct PoolState {
    version: u64,
    entries: Arc<Vec<PoolEntry>>,
}

/// Everything the free-running shards share.
struct AsyncShared<'a> {
    config: &'a CampaignConfig,
    seeds: &'a [IrClass],
    /// The campaign's iteration budget (zero when there are no seeds).
    budget: usize,
    /// The global candidate pool: seeds plus every accepted mutant minus
    /// distilled evictions, published as a versioned snapshot.
    pool: RwLock<PoolState>,
    /// `pool.version`, readable without the lock — shards poll this each
    /// iteration and only take the read lock when there is news.
    pool_version: AtomicU64,
    acceptance: AsyncAcceptance,
    counters: AsyncCounters,
    /// The shared iteration budget: each shard claims iterations with
    /// `fetch_add(1)` until `budget` is spent. Work-stealing by
    /// construction — a stalled shard's budget flows to its peers.
    next_iteration: AtomicUsize,
    /// Raised by the collector on ShardDied so free-running peers wind
    /// down promptly instead of spending the rest of the budget on a
    /// campaign that will error out anyway.
    stop: AtomicBool,
}

impl AsyncShared<'_> {
    /// Copy-on-write publish: applies `edit` to a copy of the current
    /// snapshot under the write lock and, when `edit` reports a change,
    /// installs the copy as the next version. Returns the latest snapshot
    /// and its version for the caller's replica — readers holding an older
    /// `Arc` are unaffected.
    fn publish(
        &self,
        edit: impl FnOnce(&mut Vec<PoolEntry>) -> bool,
    ) -> (Arc<Vec<PoolEntry>>, u64) {
        let mut state = write_lock(&self.pool);
        let mut next = state.entries.as_ref().clone();
        if edit(&mut next) {
            state.entries = Arc::new(next);
            state.version += 1;
            self.pool_version.store(state.version, Ordering::Release);
        }
        (Arc::clone(&state.entries), state.version)
    }
}

/// One shard's free-running loop: claim an iteration, opportunistically
/// sync the pool replica, step the shard, decide acceptance against the
/// shared state, publish accepted entries, and `deliver` the result with
/// its verdict to the collector (a worker sends it; shard 0 is the
/// collector and records it). Never blocks on a peer: the only lock held
/// across a decision is the index write lock, and the mpsc send is
/// unbounded.
fn shard_loop(
    shared: &AsyncShared<'_>,
    shard_id: usize,
    mut deliver: impl FnMut(Report) -> bool,
) -> Vec<MutatorStats> {
    // The shard's replica is an `Arc` clone of the latest published
    // snapshot — distillation may shrink the shared pool, so replicas
    // track whole snapshots (cheap: one `Arc` clone), not prefixes.
    let (pool, mut pool_version) = {
        let state = read_lock(&shared.pool);
        (Arc::clone(&state.entries), state.version)
    };
    let mut shard = ShardState::new(shared.config, shared.seeds, shard_id, shared.budget, pool);
    while !shared.stop.load(Ordering::Relaxed) {
        let it = shared.next_iteration.fetch_add(1, Ordering::Relaxed);
        if it >= shared.budget {
            break;
        }
        // Opportunistic snapshot sync: no lock unless a peer published.
        if shared.pool_version.load(Ordering::Acquire) != pool_version {
            let state = read_lock(&shared.pool);
            shard.pool = Arc::clone(&state.entries);
            pool_version = state.version;
        }
        let mut produced = shard.step();
        let mut accepted = false;
        if let Produced::Candidate(cand) = &mut produced {
            // The trace stays shard-side: only the pool entry needs it.
            let trace = cand.trace.take();
            accepted = shared
                .acceptance
                .decide(&shared.counters, trace.as_ref(), cand.trace_fp);
            if accepted {
                shard.selector.record_success(cand.mutator_id);
                let entry = PoolEntry {
                    class: Arc::clone(&cand.class),
                    bytes: Arc::clone(&cand.bytes),
                    trace: trace.map(Arc::new),
                };
                (shard.pool, pool_version) = shared.publish(|pool| {
                    pool.push(entry);
                    true
                });
            }
        }
        // The shared pool distills at the global iteration boundaries, so
        // a one-shard async run prunes exactly where lockstep does.
        if let Some(cap) = shared.config.pool_cap {
            if distill_due(it + 1, shared.budget) {
                let mut evicted = 0;
                (shard.pool, pool_version) = shared.publish(|pool| {
                    evicted = distill_pool(pool, cap);
                    evicted > 0
                });
                let counters = &shared.counters;
                counters.distill_passes.fetch_add(1, Ordering::Relaxed);
                counters
                    .distill_evicted
                    .fetch_add(evicted as u64, Ordering::Relaxed);
            }
        }
        let report = Report {
            shard_id,
            produced,
            accepted,
        };
        if !deliver(report) {
            break;
        }
    }
    shard.selector.stats()
}

/// Runs one campaign across `num_shards` free-running shards — the
/// [`super::Schedule::Async`] implementation behind
/// [`super::run_campaign_parallel`].
///
/// The calling thread is the collector and hosts shard 0 itself; only
/// shards `1..num_shards` get a worker thread, so a one-shard run spawns
/// nothing. After each of its own iterations the collector drains
/// whatever the workers have streamed into the campaign sink, so
/// `gen_classes` lands in arrival order. A ShardDied last gasp raises the
/// stop flag so peers wind down instead of wedging — then surfaces as a
/// structured [`EngineError`] naming the shard and its iteration count at
/// death.
pub(super) fn run_campaign_async(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    let num_shards = num_shards.max(1);
    let start = Instant::now();
    let reference = Jvm::new(VmSpec::hotspot9());
    let acceptance = AsyncAcceptance::new(config.algorithm);
    let seed_pool = prepare_seed_pool(seeds, config, &reference, &mut TraceFile::new());
    acceptance.seed(&seed_pool);
    let shared = AsyncShared {
        config,
        seeds,
        budget: campaign_budget(config, &seed_pool),
        pool_version: AtomicU64::new(0),
        pool: RwLock::new(PoolState {
            version: 0,
            entries: Arc::new(seed_pool),
        }),
        acceptance,
        counters: AsyncCounters::default(),
        next_iteration: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
    };
    let mut sink = CampaignSink::new(config, seeds.len(), num_shards, start);
    let mut stat_tables = vec![Vec::new(); num_shards];
    thread::scope(|scope| {
        let (report_tx, reports) = mpsc::channel::<Report>();
        let shared = &shared;
        let handles: Vec<_> = (1..num_shards)
            .map(|shard_id| {
                let report_tx = report_tx.clone();
                scope.spawn(move || {
                    contain_shard(shard_id, &report_tx, || {
                        shard_loop(shared, shard_id, |report| report_tx.send(report).is_ok())
                    })
                })
            })
            .collect();
        drop(report_tx);
        let mut collect = |report: Report| {
            sink.record(report.shard_id, report.produced, report.accepted);
            if sink.failed() {
                // Free-running peers poll this each iteration; a dead
                // shard must not leave them burning the rest of the
                // budget on a campaign that will error out.
                shared.stop.store(true, Ordering::Relaxed);
            }
        };
        let host = run_contained(|| {
            shard_loop(shared, 0, |report| {
                collect(report);
                reports.try_iter().for_each(&mut collect);
                true
            })
        });
        stat_tables[0] = host.unwrap_or_else(|detail| {
            collect(Report {
                shard_id: 0,
                produced: Produced::ShardDied(detail),
                accepted: false,
            });
            Vec::new()
        });
        // Drain until every worker hangs up. Workers never wait for the
        // collector (sends are unbounded), so draining to disconnect
        // cannot wedge, even mid-failure.
        reports.iter().for_each(&mut collect);
        for (i, handle) in handles.into_iter().enumerate() {
            stat_tables[i + 1] = sink.join(i + 1, handle.join());
        }
    });
    // Greedyfuzz and randfuzz never touch the offer counters, so their
    // telemetry is all-zero apart from distillation, as under lockstep.
    sink.finish(shared.counters.telemetry(), &stat_tables)
}
