//! The fuzzing campaigns: classfuzz (Algorithm 1) and the three comparison
//! algorithms of §3.1.2 — uniquefuzz, greedyfuzz, randfuzz.
//!
//! Every campaign is built from two pieces. A `ShardState` per shard (pool
//! replica, RNG, selector, reference VM, scratch buffers) produces one
//! candidate per iteration; one `CampaignSink` consumes the candidates
//! (crash records, GenClasses/TestClasses, the exec-diff observer,
//! per-shard stats). Two schedulers drive them:
//!
//! * **lockstep** (the default): rounds with a coordinator barrier. The
//!   coordinator hosts shard 0 itself and spawns threads only for shards
//!   `1..n`, so [`run_campaign`] is the one-shard lockstep run — no
//!   thread, no channel. Any shard count yields the same result for the
//!   same `(config, num_shards)` pair — see DESIGN.md, "Parallel campaign
//!   architecture".
//! * **async** ([`Schedule::Async`]): free-running shards over shared
//!   acceptance state, feeding the same sink; the calling thread hosts
//!   shard 0 here too — see DESIGN.md §14.
//!
//! Both are fault-contained (see DESIGN.md, "Fault containment"): a
//! panicking mutator becomes a recorded [`CrashRecord`] and the iteration
//! is skipped; a panicking VM run surfaces as a crash verdict on the
//! candidate (the VM layer contains its own panics); and a shard dying
//! outside those contained regions ends the campaign with a diagnosable
//! [`EngineError`] instead of a harness abort.

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

use classfuzz_coverage::{
    distill_keep_mask, greedy_max_cover_order, GlobalCoverage, SuiteIndex, TraceFile,
    UniquenessCriterion,
};
use classfuzz_jimple::{
    lower::{lower_class_bytes, lower_class_encoded, LowerScratch},
    IrClass,
};
use classfuzz_mcmc::{
    merge_stat_tables, AcceptanceTelemetry, MutatorChain, MutatorStats, UniformSelector,
};
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use classfuzz_vm::{preparse, preparse_encoded, run_contained, Jvm, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::diff::{DifferentialHarness, ExecDiscrepancy};

mod async_mode;

/// How a parallel campaign schedules its worker shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Lockstep rounds with a coordinator barrier: deterministic for a
    /// fixed `(config, num_shards)`; at one shard it *is* [`run_campaign`].
    /// The replay/CI oracle.
    #[default]
    Lockstep,
    /// Free-running shards over shared atomic acceptance state: no round
    /// barrier, so throughput scales with cores, but multi-shard runs are
    /// nondeterministic (acceptance order depends on thread interleaving).
    /// A one-shard async run still replays [`run_campaign`] — see
    /// DESIGN.md, "Free-running async campaign scheduler".
    Async,
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Schedule::Lockstep => "lockstep",
            Schedule::Async => "async",
        })
    }
}

/// How the initial mutation pool is chosen from the generated seeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedSelect {
    /// Every seed enters the pool, uniformly weighted — the original
    /// behavior and the baseline every snapshot test pins.
    #[default]
    Uniform,
    /// Greedy max-cover over the seeds' startup-coverage bitsets: seeds are
    /// picked in order of marginal coverage gain (word-wise OR/popcount),
    /// zero-gain seeds are dropped, and the pick list is truncated to the
    /// pool cap when one is set. RNG-free, so selection is a deterministic
    /// function of the seed corpus.
    MaxCover,
}

impl fmt::Display for SeedSelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SeedSelect::Uniform => "uniform",
            SeedSelect::MaxCover => "maxcover",
        })
    }
}

/// Which fuzzing algorithm a campaign runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Coverage-directed, MCMC mutator selection, uniqueness acceptance.
    Classfuzz(UniquenessCriterion),
    /// Uniqueness acceptance (always `[stbr]`, as in §3.1.2), uniform
    /// mutator selection.
    Uniquefuzz,
    /// Accept only mutants that increase accumulated coverage.
    Greedyfuzz,
    /// Accept everything; no coverage at all.
    Randfuzz,
}

impl Algorithm {
    /// Table-header label, e.g. `"classfuzz[stbr]"`.
    pub fn label(&self) -> String {
        match self {
            Algorithm::Classfuzz(c) => format!("classfuzz{c}"),
            Algorithm::Uniquefuzz => "uniquefuzz".to_string(),
            Algorithm::Greedyfuzz => "greedyfuzz".to_string(),
            Algorithm::Randfuzz => "randfuzz".to_string(),
        }
    }

    /// The six algorithm configurations evaluated in Table 4, in column
    /// order.
    pub fn table4_lineup() -> Vec<Algorithm> {
        vec![
            Algorithm::Classfuzz(UniquenessCriterion::StBr),
            Algorithm::Classfuzz(UniquenessCriterion::St),
            Algorithm::Classfuzz(UniquenessCriterion::Tr),
            Algorithm::Uniquefuzz,
            Algorithm::Greedyfuzz,
            Algorithm::Randfuzz,
        ]
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// Iteration budget (the paper used a 3-day wall clock; we use
    /// iterations for reproducibility).
    pub iterations: usize,
    /// Master RNG seed.
    pub rng_seed: u64,
    /// Geometric parameter for MCMC selection (ignored by the baselines).
    pub p: f64,
    /// Crash-corpus directory: when set, every [`CrashRecord`]'s offending
    /// classfile bytes (plus a `.txt` sidecar with the panic description)
    /// are persisted here as the campaign records them. Persistence is
    /// best-effort — I/O failures are reported to stderr, never fatal.
    pub crash_dir: Option<PathBuf>,
    /// Fault-injection self-test hook: append an always-panicking mutator
    /// (`Mutator::chaos_panic`) after the paper's 129. A campaign with this
    /// set must still run to its iteration budget, recording the injected
    /// panics as [`CrashRecord`]s.
    pub inject_panic_mutator: bool,
    /// Execution-phase differencing (`fuzz --exec-diff`): add the
    /// body-level execution mutators to the lineup and run every *accepted*
    /// candidate to completion on all five profiles, recording an
    /// [`ExecReport`] per acceptance. Off by default — the startup matrix
    /// and all its snapshots are bit-identical with this disabled.
    pub exec_diff: bool,
    /// Scheduling discipline for [`run_campaign_parallel`]: deterministic
    /// lockstep rounds (the default) or the free-running async engine.
    /// [`run_campaign`] is always the one-shard lockstep run.
    pub schedule: Schedule,
    /// Fault-injection self-test hook: the named shard panics *outside*
    /// the per-iteration containment right after its setup, exercising the
    /// ShardDied last-gasp protocol without a mutator in the loop. Applies
    /// to both schedulers, including the lockstep shard 0 the coordinator
    /// hosts.
    pub inject_shard_death: Option<usize>,
    /// How the initial pool is chosen from the seeds (`--seed-select`).
    pub seed_select: SeedSelect,
    /// Live corpus-distillation cap (`--pool-cap`): when set, the pool is
    /// distilled at fixed iteration boundaries — entries whose coverage is
    /// subsumed by the union of the rest are evicted, then the
    /// smallest-coverage entries are dropped until the pool fits the cap.
    /// `None` (the default) restores the grow-only pool.
    pub pool_cap: Option<usize>,
}

impl CampaignConfig {
    /// A config with the paper's `p = 3/129` and the given budget.
    pub fn new(algorithm: Algorithm, iterations: usize, rng_seed: u64) -> CampaignConfig {
        CampaignConfig {
            algorithm,
            iterations,
            rng_seed,
            p: 3.0 / 129.0,
            crash_dir: None,
            inject_panic_mutator: false,
            exec_diff: false,
            schedule: Schedule::default(),
            inject_shard_death: None,
            seed_select: SeedSelect::default(),
            pool_cap: None,
        }
    }

    /// Select the parallel scheduling discipline.
    pub fn with_schedule(mut self, schedule: Schedule) -> CampaignConfig {
        self.schedule = schedule;
        self
    }

    /// Make the named shard die outside containment (self-test).
    pub fn with_shard_death_injection(mut self, shard_id: usize) -> CampaignConfig {
        self.inject_shard_death = Some(shard_id);
        self
    }

    /// Persist crash-corpus entries under `dir`.
    pub fn with_crash_dir(mut self, dir: impl Into<PathBuf>) -> CampaignConfig {
        self.crash_dir = Some(dir.into());
        self
    }

    /// Enable the always-panicking chaos mutator (containment self-test).
    pub fn with_panic_injection(mut self) -> CampaignConfig {
        self.inject_panic_mutator = true;
        self
    }

    /// Enable execution-phase differencing of accepted candidates.
    pub fn with_exec_diff(mut self) -> CampaignConfig {
        self.exec_diff = true;
        self
    }

    /// Select the initial-pool strategy.
    pub fn with_seed_select(mut self, seed_select: SeedSelect) -> CampaignConfig {
        self.seed_select = seed_select;
        self
    }

    /// Enable live corpus distillation bounded by `cap` (clamped to ≥ 1 so
    /// the pool can never distill to nothing).
    pub fn with_pool_cap(mut self, cap: usize) -> CampaignConfig {
        self.pool_cap = Some(cap.max(1));
        self
    }
}

/// One generated mutant.
///
/// The class and its bytes are `Arc`-shared with the mutation pool: an
/// accepted mutant enters the pool by reference count, not by clone, so
/// the accept path allocates nothing beyond the two `Arc` headers.
#[derive(Debug, Clone)]
pub struct GeneratedClass {
    /// The mutated IR class (after the `main` supplement).
    pub class: Arc<IrClass>,
    /// Its classfile bytes.
    pub bytes: Arc<Vec<u8>>,
    /// The mutator that produced it.
    pub mutator_id: usize,
    /// Whether it was accepted into `TestClasses`.
    pub accepted: bool,
}

/// One entry of the mutation pool: an IR class plus its lowered bytes,
/// cached so neither seeds nor accepted mutants are ever re-lowered on the
/// campaign hot path (the mutator-crash reproducer and the seed-acceptance
/// traces read the cache instead of recomputing `lower_class`).
#[derive(Debug, Clone)]
struct PoolEntry {
    class: Arc<IrClass>,
    bytes: Arc<Vec<u8>>,
    /// The entry's startup trace on the reference VM, recorded once —
    /// at seeding for seeds, at acceptance for mutants. `None` when the
    /// campaign never traces (randfuzz without a pool cap); distillation
    /// never evicts untraced entries.
    trace: Option<Arc<TraceFile>>,
}

/// How often (in executed iterations — lockstep rounds, async claimed
/// iterations) a capped campaign distills its pool. Fixed so eviction
/// points are a deterministic function of the iteration count alone.
const DISTILL_INTERVAL: usize = 32;

/// Distills `pool` in place: evicts entries whose coverage is subsumed by
/// the union of the rest ([`distill_keep_mask`]), then — if still over
/// `cap` — drops the smallest-coverage entries (ties toward the oldest)
/// until the pool fits. Survivors keep their relative order, so every
/// engine's replica distills to the same pool. Returns the eviction count.
fn distill_pool(pool: &mut Vec<PoolEntry>, cap: usize) -> usize {
    if pool.len() <= 1 {
        return 0;
    }
    let traces: Vec<Option<&TraceFile>> = pool.iter().map(|e| e.trace.as_deref()).collect();
    let mut keep = distill_keep_mask(&traces);
    if !keep.iter().any(|&k| k) {
        // All traces subsumed (e.g. every entry is empty-coverage): the
        // pool must never distill to nothing, or the pick RNG has no range.
        keep[0] = true;
    }
    let kept: Vec<usize> = (0..pool.len()).filter(|&i| keep[i]).collect();
    if kept.len() > cap {
        let mut by_size: Vec<(usize, usize)> = kept
            .iter()
            .map(|&i| {
                let size = pool[i].trace.as_ref().map_or(0, |t| {
                    let s = t.stats();
                    s.stmt + s.br
                });
                (size, i)
            })
            .collect();
        by_size.sort_unstable();
        for &(_, i) in by_size.iter().take(kept.len() - cap) {
            keep[i] = false;
        }
    }
    let before = pool.len();
    let mut flags = keep.iter();
    // The mask is one flag per entry by construction; a (impossible)
    // short mask degrades to keeping the tail rather than panicking.
    pool.retain(|_| flags.next().copied().unwrap_or(true));
    before - pool.len()
}

/// Distillation telemetry from one engine's (replica's) boundary passes.
#[derive(Debug, Clone, Copy, Default)]
struct DistillCounters {
    passes: u64,
    evicted: u64,
}

impl DistillCounters {
    fn run(&mut self, pool: &mut Vec<PoolEntry>, cap: usize) {
        self.evicted += distill_pool(pool, cap) as u64;
        self.passes += 1;
    }
}

/// Lowers each seed exactly once (through one shared scratch), optionally
/// tracing each seed's startup run through the same decode-free path as
/// every mutant ([`lower_traced`]), then applies the configured selection
/// strategy — producing the pool every engine starts from. The parallel
/// engines share the entries with all of their shard replicas by `Arc`
/// handle instead of re-lowering per shard.
///
/// Traces are recorded whenever the algorithm consults coverage *or* the
/// seed-intelligence knobs need them (max-cover selection, distillation);
/// with every knob off and a non-tracing algorithm this is byte-identical
/// to the old untraced seeding.
fn prepare_seed_pool(
    seeds: &[IrClass],
    config: &CampaignConfig,
    reference: &Jvm,
    scratch: &mut TraceFile,
) -> Vec<PoolEntry> {
    let mut lower = LowerScratch::new();
    let want_traces = needs_trace(config.algorithm)
        || config.seed_select == SeedSelect::MaxCover
        || config.pool_cap.is_some();
    let mut entries: Vec<PoolEntry> = seeds
        .iter()
        .map(|s| {
            let (bytes, traced) =
                lower_traced(s, want_traces.then_some(reference), scratch, &mut lower);
            PoolEntry {
                class: Arc::new(s.clone()),
                bytes: Arc::new(bytes),
                trace: traced.map(|_| Arc::new(scratch.snapshot())),
            }
        })
        .collect();
    if config.seed_select == SeedSelect::MaxCover {
        let traces: Vec<Option<&TraceFile>> = entries.iter().map(|e| e.trace.as_deref()).collect();
        let order = greedy_max_cover_order(&traces, config.pool_cap.unwrap_or(usize::MAX));
        if !order.is_empty() {
            let mut taken: Vec<Option<PoolEntry>> = entries.into_iter().map(Some).collect();
            // Max-cover picks are unique, in-range indices by construction;
            // filter_map rather than index so a malformed order could only
            // shrink the pool, never panic a campaign.
            entries = order
                .iter()
                .filter_map(|&i| taken.get_mut(i)?.take())
                .collect();
        }
        // An empty pick list (every seed zero-coverage) falls back to the
        // full corpus rather than an unrunnable empty pool.
    }
    entries
}

/// Per-shard contribution to a campaign, reported in [`CampaignResult`].
///
/// [`run_campaign`] reports a single shard 0; a parallel campaign has one
/// entry per shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard's id (also its position in `CampaignResult::shard_stats`).
    pub shard_id: usize,
    /// Iterations this shard executed.
    pub iterations: usize,
    /// Classfiles this shard generated (iterations minus failed mutations).
    pub generated: usize,
    /// Of those, how many the coordinator accepted into `TestClasses`.
    pub accepted: usize,
}

/// Where in the pipeline a contained fault was caught.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// A mutator panicked while rewriting a class; the iteration was
    /// skipped and the mutation *input* preserved as the reproducer.
    Mutator {
        /// The panicking mutator's id.
        mutator_id: usize,
    },
    /// The reference VM panicked while tracing a candidate (the candidate
    /// itself carries the crash verdict and stays in `gen_classes`).
    ReferenceVm,
}

impl CrashSite {
    /// Short label used in crash-corpus filenames.
    pub fn label(&self) -> &'static str {
        match self {
            CrashSite::Mutator { .. } => "mutator",
            CrashSite::ReferenceVm => "vm",
        }
    }
}

/// One contained fault recorded during a campaign — the §3.3 "VM crashes
/// are bugs too" signal, applied to our own harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashRecord {
    /// The shard that hit the fault (0 for [`run_campaign`]).
    pub shard_id: usize,
    /// Which pipeline stage panicked.
    pub site: CrashSite,
    /// The offending classfile bytes: the mutation input for a mutator
    /// panic, the generated candidate for a reference-VM panic.
    pub bytes: Vec<u8>,
    /// The panic description (message + source location) — deterministic
    /// for a deterministic panic, so crash verdicts replay.
    pub detail: String,
}

/// An unrecoverable engine fault: a worker shard died *outside* the
/// contained regions (mutation and VM startup are panic-isolated), or a
/// coordination channel closed early. Diagnosable, unlike the panic it
/// replaces: it names the shard, the lockstep round, and the last
/// classfile that shard generated.
#[derive(Debug, Clone)]
pub struct EngineError {
    /// The failing shard, when attributable.
    pub shard_id: Option<usize>,
    /// The failing shard's completed-iteration count when the failure
    /// surfaced — under lockstep, the round it surfaced in.
    pub round: usize,
    /// Bytes of the last classfile the failing shard generated, if any —
    /// the prime suspect for reproducing the fault.
    pub last_candidate: Option<Vec<u8>>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.shard_id {
            Some(id) => write!(
                f,
                "shard {id} failed in round {}: {}",
                self.round, self.message
            )?,
            None => write!(f, "engine failed in round {}: {}", self.round, self.message)?,
        }
        match &self.last_candidate {
            Some(bytes) => write!(f, " (last candidate: {} bytes)", bytes.len()),
            None => write!(f, " (no candidate generated yet)"),
        }
    }
}

impl std::error::Error for EngineError {}

/// One accepted candidate's execution-differencing record (`--exec-diff`):
/// the startup phase key, the execution-verdict key, and the discrepancy
/// classification when the verdicts disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecReport {
    /// Index of the candidate in [`CampaignResult::gen_classes`].
    pub gen_index: usize,
    /// The five startup phase digits, e.g. `"44444"`.
    pub startup_key: String,
    /// The `|`-joined execution verdict tokens
    /// (see `OutcomeVector::exec_key`).
    pub exec_key: String,
    /// The discrepancy class, `None` when every profile agrees.
    pub taxonomy: Option<ExecDiscrepancy>,
}

impl ExecReport {
    /// Whether this is a *pure* execution-phase discrepancy — one the
    /// startup matrix cannot distinguish (uniform digits, divergent
    /// verdicts).
    pub fn is_exec_discrepancy(&self) -> bool {
        !matches!(self.taxonomy, None | Some(ExecDiscrepancy::StartupPhase))
    }
}

/// The outcome of a whole campaign.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// Iterations consumed.
    pub iterations: usize,
    /// Every generated mutant, in generation order (`GenClasses`).
    pub gen_classes: Vec<GeneratedClass>,
    /// Indices into `gen_classes` of accepted mutants (`TestClasses`,
    /// seeds already excluded per Algorithm 1 line 19).
    pub test_classes: Vec<usize>,
    /// Per-mutator selection/success statistics (Figure 4 data), summed
    /// across shards.
    pub mutator_stats: Vec<MutatorStats>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
    /// Number of seeds the campaign started from.
    pub seed_count: usize,
    /// Per-shard breakdown (one entry for [`run_campaign`]).
    pub shard_stats: Vec<ShardStats>,
    /// Contained faults, in verdict order (lockstep: round-major,
    /// shard-minor; async: arrival order).
    pub crashes: Vec<CrashRecord>,
    /// Acceptance hot-path telemetry (offers, acceptances, `[tr]`
    /// fingerprint fast-path rate). All-zero for randfuzz and greedyfuzz,
    /// which never consult a uniqueness index.
    pub acceptance: AcceptanceTelemetry,
    /// Per-accepted-candidate execution differencing records, in acceptance
    /// order. Empty unless [`CampaignConfig::exec_diff`] is set.
    pub exec_reports: Vec<ExecReport>,
}

impl CampaignResult {
    /// `succ(X) = |TestClasses| / #iterations` (§3.1.3).
    pub fn success_rate(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.test_classes.len() as f64 / self.iterations as f64
        }
    }

    /// Bytes of every generated class.
    pub fn gen_bytes(&self) -> Vec<Vec<u8>> {
        self.gen_classes
            .iter()
            .map(|g| g.bytes.as_ref().clone())
            .collect()
    }

    /// Bytes of the accepted test classes.
    pub fn test_bytes(&self) -> Vec<Vec<u8>> {
        self.test_classes
            .iter()
            .map(|&i| self.gen_classes[i].bytes.as_ref().clone())
            .collect()
    }

    /// Average seconds spent per generated class (Table 4 row 5 analogue).
    pub fn secs_per_generated(&self) -> f64 {
        if self.gen_classes.is_empty() {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.gen_classes.len() as f64
        }
    }

    /// Average seconds spent per accepted test class (Table 4 row 6).
    pub fn secs_per_test(&self) -> f64 {
        if self.test_classes.is_empty() {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.test_classes.len() as f64
        }
    }
}

enum Selector {
    Chain(MutatorChain),
    Uniform(UniformSelector),
}

impl Selector {
    fn select(&mut self, rng: &mut StdRng) -> usize {
        match self {
            Selector::Chain(c) => c.select(rng),
            Selector::Uniform(u) => u.select(rng),
        }
    }

    fn record_success(&mut self, id: usize) {
        match self {
            Selector::Chain(c) => c.record_success(id),
            Selector::Uniform(u) => u.record_success(id),
        }
    }

    fn stats(&self) -> Vec<MutatorStats> {
        match self {
            Selector::Chain(c) => c.all_stats().to_vec(),
            Selector::Uniform(u) => u.all_stats().to_vec(),
        }
    }
}

enum Acceptance {
    Unique(SuiteIndex),
    Greedy(GlobalCoverage),
    All,
}

fn make_selector(config: &CampaignConfig, mutator_count: usize) -> Selector {
    match config.algorithm {
        Algorithm::Classfuzz(_) => Selector::Chain(MutatorChain::new(mutator_count, config.p)),
        _ => Selector::Uniform(UniformSelector::new(mutator_count)),
    }
}

/// The campaign's mutator lineup: the paper's 129, plus the execution-phase
/// body rewrites when `--exec-diff` is on, plus the chaos mutator when the
/// config injects panics. Ids are assigned in that order — the MCMC chain
/// and stats tables simply grow by the extra slots, and chaos (whose tests
/// assume it is last) stays last.
fn campaign_mutators(config: &CampaignConfig) -> Vec<Mutator> {
    let mut mutators = registry::all_mutators();
    if config.exec_diff {
        mutators.extend(registry::exec_mutators(mutators.len()));
    }
    if config.inject_panic_mutator {
        let id = mutators.len();
        mutators.push(Mutator::chaos_panic(id));
    }
    mutators
}

/// Best-effort crash-corpus write: `crash_NNNN_<site>.class` holds the
/// offending bytes, the matching `.txt` the panic description. Failures go
/// to stderr — losing a corpus entry must never lose the campaign.
///
/// Collision-safe: the classfile is claimed with `create_new`, bumping to
/// the next free index when `crash_{index:04}` already exists, so
/// re-running a campaign into a populated `--crash-dir` appends after the
/// previous run's reproducers instead of overwriting them. In a fresh
/// directory the claimed index is always `index` itself, which keeps
/// filenames bit-identical with earlier releases.
fn persist_crash(dir: &Path, index: usize, record: &CrashRecord) {
    use std::io::Write as _;
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut idx = index;
        let stem = loop {
            let stem = format!("crash_{idx:04}_{}", record.site.label());
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(dir.join(format!("{stem}.class")))
            {
                Ok(mut file) => {
                    file.write_all(&record.bytes)?;
                    break stem;
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => idx += 1,
                Err(e) => return Err(e),
            }
        };
        let sidecar = format!(
            "shard: {}\nsite: {}\ndetail: {}\n",
            record.shard_id,
            record.site.label(),
            record.detail
        );
        std::fs::write(dir.join(format!("{stem}.txt")), sidecar)
    };
    if let Err(e) = write() {
        eprintln!(
            "warning: cannot persist crash_{index:04}_{} to {}: {e}",
            record.site.label(),
            dir.display()
        );
    }
}

fn make_acceptance(algorithm: Algorithm) -> Acceptance {
    match algorithm {
        Algorithm::Classfuzz(criterion) => Acceptance::Unique(SuiteIndex::new(criterion)),
        Algorithm::Uniquefuzz => Acceptance::Unique(SuiteIndex::new(UniquenessCriterion::StBr)),
        Algorithm::Greedyfuzz => Acceptance::Greedy(GlobalCoverage::new()),
        Algorithm::Randfuzz => Acceptance::All,
    }
}

/// The campaign's acceptance-path telemetry, read back from the index
/// counters at the end of a run.
fn acceptance_telemetry(acceptance: &Acceptance) -> AcceptanceTelemetry {
    match acceptance {
        Acceptance::Unique(index) => AcceptanceTelemetry::from(index.counters()),
        Acceptance::Greedy(_) | Acceptance::All => AcceptanceTelemetry::default(),
    }
}

/// Differences one accepted candidate's execution verdicts across the five
/// profiles. Runs plain (no coverage, no tracing) and draws no RNG, so
/// enabling `--exec-diff` perturbs neither the candidate stream nor the
/// lockstep replay guarantees — it only appends to `exec_reports`.
fn diff_execution(harness: &DifferentialHarness, gen_index: usize, bytes: &[u8]) -> ExecReport {
    let vector = harness.run_parsed(&preparse(bytes));
    ExecReport {
        gen_index,
        startup_key: vector.key(),
        exec_key: vector.exec_key(),
        taxonomy: vector.classify_exec(),
    }
}

/// Seeds the acceptance state with the selected seeds' traces (Algorithm 1
/// line 1: TestClasses ← Seeds), so mutants must differ from seeds too.
/// Reads each seed's trace from the pool cache — seeds were lowered and
/// traced once, in [`prepare_seed_pool`], which always records traces for
/// the coverage-consulting algorithms this function acts on. Under
/// max-cover selection only the *selected* seeds enter the suite, matching
/// the pool the campaign actually mutates.
fn seed_acceptance(acceptance: &mut Acceptance, seed_pool: &[PoolEntry]) {
    match acceptance {
        Acceptance::Unique(index) => {
            for seed in seed_pool {
                if let Some(trace) = &seed.trace {
                    index.insert(trace);
                }
            }
        }
        Acceptance::Greedy(global) => {
            for seed in seed_pool {
                if let Some(trace) = &seed.trace {
                    global.absorb(trace);
                }
            }
        }
        Acceptance::All => {}
    }
}

/// One iteration's shard-local product: a lowered mutant plus (when the
/// algorithm consults coverage) its reference-VM trace. The class and its
/// bytes are `Arc`-wrapped once, here, and shared from then on by
/// `GenClasses`, the pool and the async scheduler's publish step.
struct Candidate {
    class: Arc<IrClass>,
    bytes: Arc<Vec<u8>>,
    mutator_id: usize,
    trace: Option<TraceFile>,
    /// `trace.fingerprint()`, computed shard-side so the coordinator's
    /// `[tr]` acceptance probe never rehashes the word arrays.
    trace_fp: Option<u64>,
    /// The reference VM's panic description, when tracing this candidate
    /// crashed it (the trace is then the deterministic partial trace).
    vm_crash: Option<String>,
}

/// What one iteration's shard-local half produced — the one message a
/// shard hands the campaign sink, under either scheduler.
enum Produced {
    /// A lowered mutant, ready for the acceptance decision. Boxed: a
    /// candidate is hundreds of bytes, the other variants a few words.
    Candidate(Box<Candidate>),
    /// The mutation was not applicable; the iteration is consumed but no
    /// classfile is generated (§3.2's "classfiles are not generated during
    /// some iterations").
    NotApplicable,
    /// The mutator panicked; the iteration is consumed, the half-mutated
    /// class discarded, and the *input* preserved as the reproducer.
    MutatorCrash {
        mutator_id: usize,
        input_bytes: Vec<u8>,
        detail: String,
    },
    /// The shard itself died outside the contained regions — a last gasp,
    /// so the campaign ends with a diagnosable [`EngineError`] instead of
    /// waiting on a report that never comes.
    ShardDied(String),
}

/// One shard's working set: its pool replica, RNG, selector,
/// reference VM, trace and lowering scratch, and distillation counters.
/// [`ShardState::step`] is the shard-local half of one iteration;
/// [`ShardState::absorb`] takes a lockstep round's verdict back in.
struct ShardState<'a> {
    seeds: &'a [IrClass],
    mutators: Vec<Mutator>,
    /// Seeds plus accepted mutants, minus distilled evictions. Starts as a
    /// handle on the shared seed pool; lockstep replicas copy it on their
    /// first append, async shards swap in each published snapshot.
    pool: Arc<Vec<PoolEntry>>,
    rng: StdRng,
    selector: Selector,
    /// The traced reference VM; `None` for randfuzz, which never
    /// consults coverage.
    reference: Option<Jvm>,
    /// Reusable trace and lowering buffers: one allocation each for the
    /// whole campaign, cleared before each use.
    scratch: TraceFile,
    lower: LowerScratch,
    distill: DistillCounters,
    pool_cap: Option<usize>,
    /// This shard's iteration budget and how many of its iterations have
    /// been absorbed — the inputs of the distillation boundary rule.
    budget: usize,
    completed: usize,
    /// The mutator behind the last `step`'s candidate, credited when the
    /// round's verdict accepts it.
    last_mutator: Option<usize>,
}

impl<'a> ShardState<'a> {
    /// Sets up shard `shard_id` over `pool`. Honours
    /// [`CampaignConfig::inject_shard_death`] by panicking right after the
    /// setup, so the caller's containment must be in place.
    fn new(
        config: &CampaignConfig,
        seeds: &'a [IrClass],
        shard_id: usize,
        budget: usize,
        pool: Arc<Vec<PoolEntry>>,
    ) -> ShardState<'a> {
        let mutators = campaign_mutators(config);
        let selector = make_selector(config, mutators.len());
        let shard = ShardState {
            seeds,
            mutators,
            pool,
            rng: StdRng::seed_from_u64(shard_rng_seed(config.rng_seed, shard_id)),
            selector,
            reference: needs_trace(config.algorithm).then(|| Jvm::new(VmSpec::hotspot9())),
            scratch: TraceFile::new(),
            lower: LowerScratch::new(),
            distill: DistillCounters::default(),
            pool_cap: config.pool_cap,
            budget,
            completed: 0,
            last_mutator: None,
        };
        if config.inject_shard_death == Some(shard_id) {
            panic!("injected shard death (containment self-test)");
        }
        shard
    }

    /// Runs the shard-local half of one iteration: pool pick, mutator
    /// selection, mutation (panic-contained), `main` supplement, lowering,
    /// and (for the coverage-guided algorithms) the traced reference run —
    /// itself panic-contained inside the VM layer, so a crashing candidate
    /// comes back with a crash verdict rather than unwinding.
    ///
    /// The RNG call order here (pool pick, selection, mutation) is the
    /// campaign's replay contract, shared by both schedulers. A panicking
    /// mutator consumes exactly the RNG draws it made before dying —
    /// deterministic, because the panic point is a function of the inputs.
    fn step(&mut self) -> Produced {
        self.last_mutator = None;
        let pick = self.rng.gen_range(0..self.pool.len());
        let mutator_id = self.selector.select(&mut self.rng);
        let entry = &self.pool[pick];
        // Copy-on-write: members stay shared with the pool entry until the
        // mutator writes one, so this clone is a refcount bump per member.
        let mut mutant = IrClass::clone(&entry.class);
        let (rng, seeds, mutator) = (&mut self.rng, self.seeds, &self.mutators[mutator_id]);
        let applied =
            run_contained(|| mutator.apply(&mut mutant, &mut MutationCtx::new(rng, seeds)));
        match applied {
            Err(detail) => {
                // The reproducer is the mutation *input*, whose lowered
                // bytes the pool already caches — no re-lowering here.
                return Produced::MutatorCrash {
                    mutator_id,
                    input_bytes: entry.bytes.as_ref().clone(),
                    detail,
                };
            }
            Ok(Err(_)) => return Produced::NotApplicable,
            Ok(Ok(())) => {}
        }
        // §2.2.1: supplement each mutant with a message-printing main.
        mutant.ensure_main("Completed!");
        let (bytes, traced) = lower_traced(
            &mutant,
            self.reference.as_ref(),
            &mut self.scratch,
            &mut self.lower,
        );
        // The traced run recorded into the reusable scratch bitmap — no
        // per-iteration trace allocation. The candidate ships a trimmed
        // snapshot plus its precomputed fingerprint.
        let (trace, trace_fp, vm_crash) = match traced {
            Some(crash) => (
                Some(self.scratch.snapshot()),
                Some(self.scratch.fingerprint()),
                crash,
            ),
            None => (None, None, None),
        };
        self.last_mutator = Some(mutator_id);
        Produced::Candidate(Box::new(Candidate {
            class: Arc::new(mutant),
            bytes: Arc::new(bytes),
            mutator_id,
            trace,
            trace_fp,
            vm_crash,
        }))
    }

    /// Takes a lockstep round's verdict back in: credits the selector when
    /// this shard's candidate was accepted, appends the round's accepted
    /// classes (in shard-id order, so every replica stays identical), and
    /// distills at the boundaries [`distill_due`] names.
    fn absorb(&mut self, accepted_own: bool, additions: impl IntoIterator<Item = PoolEntry>) {
        if let (true, Some(id)) = (accepted_own, self.last_mutator) {
            self.selector.record_success(id);
        }
        let pool = Arc::make_mut(&mut self.pool);
        pool.extend(additions);
        self.completed += 1;
        if let Some(cap) = self.pool_cap {
            if distill_due(self.completed, self.budget) {
                self.distill.run(pool, cap);
            }
        }
    }
}

/// The distillation boundary rule, the same for every scheduler: a capped
/// pool is distilled after every `DISTILL_INTERVAL`-th completed iteration,
/// skipping the no-op pass after the last one.
fn distill_due(completed: usize, budget: usize) -> bool {
    completed.is_multiple_of(DISTILL_INTERVAL) && completed < budget
}

/// The iterations a campaign can run: its budget, or none at all when the
/// pool is empty (no seeds means nothing to mutate).
fn campaign_budget(config: &CampaignConfig, seed_pool: &[PoolEntry]) -> usize {
    if seed_pool.is_empty() {
        0
    } else {
        config.iterations
    }
}

/// Lowers `class` through the shard's scratch and, when `reference` is
/// given, runs it traced into `scratch` — the one path every mutant and
/// (at seeding) every seed takes. The bytes are byte-identical to
/// `lower_class(class).to_bytes()` either way. A traced run returns
/// `Some` of the reference VM's panic description (`Some(None)` when it
/// did not crash); the trace itself is left in `scratch`.
///
/// The traced run is decode-free (DESIGN.md §18): it summarizes the
/// lowered `ClassFile` itself, and decodes the bytes only when the writer
/// could not vouch that they decode back to that class. The reader fires
/// no probes, so the trace and verdict are those of a decode. The class's
/// constant pool then goes back to `lower`, so lowering keeps reusing one
/// pool's allocations.
fn lower_traced(
    class: &IrClass,
    reference: Option<&Jvm>,
    scratch: &mut TraceFile,
    lower: &mut LowerScratch,
) -> (Vec<u8>, Option<Option<String>>) {
    let Some(jvm) = reference else {
        return (lower_class_bytes(class, lower), None);
    };
    let (bytes, parsed) = preparse_encoded(lower_class_encoded(class, lower));
    let result = jvm.run_traced_into_parsed(&parsed, scratch);
    let crash = result.outcome.crash_detail().map(str::to_string);
    if let Some(cf) = parsed.into_classfile() {
        lower.recycle(cf.constant_pool);
    }
    (bytes, Some(crash))
}

/// The acceptance decision (coordinator-side under lockstep): does this
/// candidate enter `TestClasses`? Uses the candidate's shard-computed
/// fingerprint so the `[tr]` probe is a single hash lookup here.
fn decide(acceptance: &mut Acceptance, trace: Option<&TraceFile>, trace_fp: Option<u64>) -> bool {
    match acceptance {
        Acceptance::All => true,
        Acceptance::Unique(index) => trace.is_some_and(|t| match trace_fp {
            Some(fp) => index.insert_if_unique_with_fingerprint(t, fp),
            None => index.insert_if_unique(t),
        }),
        Acceptance::Greedy(global) => trace.is_some_and(|t| global.absorb(t)),
    }
}

/// Whether `algorithm` needs the traced reference run at all (randfuzz is
/// the one algorithm that never consults coverage).
fn needs_trace(algorithm: Algorithm) -> bool {
    !matches!(algorithm, Algorithm::Randfuzz)
}

/// The consume half of every campaign: takes each shard's [`Produced`]
/// with its acceptance verdict, in the scheduler's verdict order, and
/// keeps everything the [`CampaignResult`] reports — crash records (and
/// their corpus files), `GenClasses`/`TestClasses`, the exec-diff
/// observer's reports, per-shard stats — plus the first [`EngineError`].
struct CampaignSink<'a> {
    config: &'a CampaignConfig,
    seed_count: usize,
    start: Instant,
    /// Execution differencing runs here, in acceptance order — identical
    /// for every lockstep shard count's replay, arrival order under async.
    exec_harness: Option<DifferentialHarness>,
    gen_classes: Vec<GeneratedClass>,
    test_classes: Vec<usize>,
    crashes: Vec<CrashRecord>,
    exec_reports: Vec<ExecReport>,
    shard_stats: Vec<ShardStats>,
    /// Per-shard last generated classfile — attached to an EngineError as
    /// the prime suspect when that shard dies. `Arc` handles: recording the
    /// suspect costs a refcount bump per candidate, not a byte copy.
    last_bytes: Vec<Option<Arc<Vec<u8>>>>,
    error: Option<EngineError>,
}

impl<'a> CampaignSink<'a> {
    fn new(
        config: &'a CampaignConfig,
        seed_count: usize,
        num_shards: usize,
        start: Instant,
    ) -> CampaignSink<'a> {
        CampaignSink {
            config,
            seed_count,
            start,
            exec_harness: config.exec_diff.then(DifferentialHarness::paper_five),
            gen_classes: Vec::new(),
            test_classes: Vec::new(),
            crashes: Vec::new(),
            exec_reports: Vec::new(),
            shard_stats: (0..num_shards)
                .map(|shard_id| ShardStats {
                    shard_id,
                    iterations: 0,
                    generated: 0,
                    accepted: 0,
                })
                .collect(),
            last_bytes: vec![None; num_shards],
            error: None,
        }
    }

    /// Consumes one iteration of shard `shard_id`. Returns the pool entry
    /// of an accepted candidate (class, bytes and trace as `Arc` handles).
    fn record(&mut self, shard_id: usize, produced: Produced, accepted: bool) -> Option<PoolEntry> {
        let cand = match produced {
            Produced::Candidate(cand) => *cand,
            Produced::NotApplicable => {
                self.shard_stats[shard_id].iterations += 1;
                return None;
            }
            Produced::MutatorCrash {
                mutator_id,
                input_bytes,
                detail,
            } => {
                self.shard_stats[shard_id].iterations += 1;
                self.record_crash(
                    shard_id,
                    CrashSite::Mutator { mutator_id },
                    input_bytes,
                    detail,
                );
                return None;
            }
            Produced::ShardDied(detail) => {
                let message = format!("worker shard died outside containment: {detail}");
                self.fail_shard(shard_id, message);
                return None;
            }
        };
        if let Some(detail) = cand.vm_crash {
            let bytes = cand.bytes.as_ref().clone();
            self.record_crash(shard_id, CrashSite::ReferenceVm, bytes, detail);
        }
        let stats = &mut self.shard_stats[shard_id];
        stats.iterations += 1;
        stats.generated += 1;
        stats.accepted += usize::from(accepted);
        let gen_index = self.gen_classes.len();
        self.last_bytes[shard_id] = Some(Arc::clone(&cand.bytes));
        self.gen_classes.push(GeneratedClass {
            class: Arc::clone(&cand.class),
            bytes: Arc::clone(&cand.bytes),
            mutator_id: cand.mutator_id,
            accepted,
        });
        if !accepted {
            return None;
        }
        self.test_classes.push(gen_index);
        if let Some(harness) = &self.exec_harness {
            self.exec_reports
                .push(diff_execution(harness, gen_index, &cand.bytes));
        }
        Some(PoolEntry {
            class: cand.class,
            bytes: cand.bytes,
            trace: cand.trace.map(Arc::new),
        })
    }

    /// Appends a crash record, persisting it to the crash corpus first (the
    /// record's position doubles as its corpus index).
    fn record_crash(&mut self, shard_id: usize, site: CrashSite, bytes: Vec<u8>, detail: String) {
        let record = CrashRecord {
            shard_id,
            site,
            bytes,
            detail,
        };
        if let Some(dir) = &self.config.crash_dir {
            persist_crash(dir, self.crashes.len(), &record);
        }
        self.crashes.push(record);
    }

    /// Keeps `error` unless an earlier failure already ended the campaign.
    fn fail(&mut self, error: EngineError) {
        self.error.get_or_insert(error);
    }

    /// Fails the campaign on shard `shard_id`, naming its completed
    /// iteration count (under lockstep, the round it failed in) and its
    /// last generated classfile.
    fn fail_shard(&mut self, shard_id: usize, message: String) {
        let error = EngineError {
            shard_id: Some(shard_id),
            round: self.shard_stats[shard_id].iterations,
            last_candidate: self.last_bytes[shard_id].take().map(|b| b.as_ref().clone()),
            message,
        };
        self.fail(error);
    }

    fn failed(&self) -> bool {
        self.error.is_some()
    }

    /// A joined worker shard's stats table; a shard that panicked past its
    /// last-gasp containment fails the campaign and contributes nothing.
    fn join(
        &mut self,
        shard_id: usize,
        joined: thread::Result<Vec<MutatorStats>>,
    ) -> Vec<MutatorStats> {
        joined.unwrap_or_else(|_| {
            self.fail_shard(
                shard_id,
                "worker shard panicked past its containment".to_string(),
            );
            Vec::new()
        })
    }

    /// The campaign's result — or its first error. `telemetry` is the
    /// scheduler's acceptance and distillation telemetry; the
    /// execution-differencing tallies are folded in here.
    fn finish(
        self,
        mut telemetry: AcceptanceTelemetry,
        stat_tables: &[Vec<MutatorStats>],
    ) -> Result<CampaignResult, EngineError> {
        if let Some(error) = self.error {
            return Err(error);
        }
        telemetry.exec_runs = self.exec_reports.len() as u64;
        telemetry.exec_discrepancies = self
            .exec_reports
            .iter()
            .filter(|r| r.is_exec_discrepancy())
            .count() as u64;
        Ok(CampaignResult {
            algorithm: self.config.algorithm,
            iterations: self.config.iterations,
            gen_classes: self.gen_classes,
            test_classes: self.test_classes,
            mutator_stats: merge_stat_tables(stat_tables),
            elapsed: self.start.elapsed(),
            seed_count: self.seed_count,
            shard_stats: self.shard_stats,
            crashes: self.crashes,
            acceptance: telemetry,
            exec_reports: self.exec_reports,
        })
    }
}

/// Runs one campaign over `seeds` — Algorithm 1 for classfuzz, the
/// §3.1.2 variants otherwise. This is the one-shard lockstep run of
/// [`run_campaign_parallel`]: the calling thread is the only shard, with
/// no worker thread and no channel.
///
/// Deterministic for a fixed `CampaignConfig` (wall-clock fields aside).
///
/// # Panics
///
/// With the [`EngineError`] message when the shard dies outside the
/// contained regions (only the [`CampaignConfig::inject_shard_death`]
/// self-test can make it).
pub fn run_campaign(seeds: &[IrClass], config: &CampaignConfig) -> CampaignResult {
    match run_lockstep(seeds, config, 1) {
        Ok(result) => result,
        Err(error) => panic!("{error}"),
    }
}

/// The RNG seed of worker shard `shard_id` in a parallel campaign.
///
/// Shard 0 uses the campaign seed unchanged, which is what makes a
/// one-shard parallel run bit-identical to [`run_campaign`]; later shards
/// decorrelate through the 64-bit golden-ratio increment (the SplitMix64
/// stream constant).
pub fn shard_rng_seed(rng_seed: u64, shard_id: usize) -> u64 {
    rng_seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(shard_id as u64))
}

/// One shard's iteration as the lockstep coordinator or the async
/// collector receives it.
struct Report {
    shard_id: usize,
    produced: Produced,
    /// The shard-side verdict under the async scheduler; lockstep shards
    /// send `false` and leave the decision to the coordinator.
    accepted: bool,
}

/// Runs a worker thread's whole shard loop under the shard's last line of
/// containment. Mutation and VM startup contain their own panics; anything
/// else that escapes `body` becomes a `ShardDied` last gasp, so the
/// campaign ends diagnosably instead of in a scope abort that loses its
/// progress. A dead shard contributes an empty stats table.
fn contain_shard(
    shard_id: usize,
    reports: &mpsc::Sender<Report>,
    body: impl FnOnce() -> Vec<MutatorStats>,
) -> Vec<MutatorStats> {
    run_contained(body).unwrap_or_else(|detail| {
        let _ = reports.send(Report {
            shard_id,
            produced: Produced::ShardDied(detail),
            accepted: false,
        });
        Vec::new()
    })
}

/// The coordinator's per-round verdict, sent to every active worker shard.
struct RoundReply {
    /// Did *this* shard's candidate enter `TestClasses`? (Drives the
    /// shard-local selector's success bookkeeping.)
    accepted_own: bool,
    /// Every class accepted this round, in shard-id order — each shard
    /// appends these to its pool replica, keeping all pools identical.
    /// Entries are `Arc` handles: sending them to N shards bumps
    /// refcounts, it does not copy classes or bytes.
    additions: Vec<PoolEntry>,
}

/// The coordinator's ends of the channels to worker shards `1..`.
struct Peers {
    reports: mpsc::Receiver<Report>,
    /// `replies[i]` reaches shard `i + 1`.
    replies: Vec<mpsc::Sender<RoundReply>>,
}

/// Runs one campaign sharded across `num_shards` shards.
///
/// When [`CampaignConfig::schedule`] is [`Schedule::Async`] this dispatches
/// to the free-running engine (see [`Schedule`] and DESIGN.md §14);
/// everything below describes the default lockstep discipline.
///
/// Each shard owns its own RNG (seeded by [`shard_rng_seed`]), its own
/// reference [`Jvm`], selector, and mutation-pool replica; the coordinator
/// (the calling thread) owns the global acceptance state and arbitrates
/// uniqueness, and hosts shard 0 itself — only shards `1..num_shards` get
/// a worker thread. Shards proceed in lockstep rounds — one iteration per
/// shard per round — and the coordinator judges each round's candidates in
/// shard-id order, so the result is deterministic for a fixed
/// `(config, num_shards)`:
///
/// * `num_shards == 1` (or 0, treated as 1) *is* [`run_campaign`], bit for
///   bit apart from the wall-clock field;
/// * any shard count yields the same `CampaignResult` on every run.
///
/// `gen_classes` is ordered round-major, shard-minor. The per-shard
/// breakdown lands in [`CampaignResult::shard_stats`]; `mutator_stats` is
/// the elementwise sum over shards.
///
/// Contained faults (panicking mutators, crashing VM runs) are *recorded*,
/// not fatal — see [`CampaignResult::crashes`]. The crash verdicts are
/// deterministic, so they preserve the replay guarantees above.
///
/// # Errors
///
/// [`EngineError`] when a shard dies outside the contained regions or a
/// coordination channel closes early — diagnosable (shard id, round, last
/// candidate) instead of the panic-on-join it replaces.
pub fn run_campaign_parallel(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    match config.schedule {
        Schedule::Lockstep => run_lockstep(seeds, config, num_shards),
        Schedule::Async => async_mode::run_campaign_async(seeds, config, num_shards),
    }
}

/// The lockstep scheduler behind [`run_campaign`] and
/// [`run_campaign_parallel`].
fn run_lockstep(
    seeds: &[IrClass],
    config: &CampaignConfig,
    num_shards: usize,
) -> Result<CampaignResult, EngineError> {
    let start = Instant::now();
    let num_shards = num_shards.max(1);
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut acceptance = make_acceptance(config.algorithm);
    // Seeds are lowered (and, when needed, traced and selected) exactly
    // once, here; every shard's pool replica shares these entries.
    let seed_pool = prepare_seed_pool(seeds, config, &reference, &mut TraceFile::new());
    seed_acceptance(&mut acceptance, &seed_pool);
    let budget = campaign_budget(config, &seed_pool);
    let seed_pool = Arc::new(seed_pool);
    // Iteration split: the remainder goes to the lowest shard ids, so the
    // set of shards still active in any round is a prefix of 0..num_shards.
    let per_shard: Vec<usize> = (0..num_shards)
        .map(|s| budget / num_shards + usize::from(s < budget % num_shards))
        .collect();
    let mut sink = CampaignSink::new(config, seeds.len(), num_shards, start);
    let mut stat_tables: Vec<Vec<MutatorStats>> = vec![Vec::new(); num_shards];

    let setup =
        run_contained(|| ShardState::new(config, seeds, 0, per_shard[0], Arc::clone(&seed_pool)));
    let mut host = match setup {
        Ok(host) => host,
        Err(detail) => {
            sink.record(0, Produced::ShardDied(detail), false);
            return sink.finish(AcceptanceTelemetry::default(), &stat_tables);
        }
    };
    // Shards with no iterations never report, so they get no thread.
    let spawned = per_shard.iter().filter(|&&n| n > 0).count().max(1);
    if spawned == 1 {
        run_rounds(&mut host, &mut sink, &mut acceptance, &per_shard, None);
    } else {
        thread::scope(|scope| {
            let (report_tx, reports) = mpsc::channel::<Report>();
            let mut replies = Vec::with_capacity(spawned - 1);
            let mut handles = Vec::with_capacity(spawned - 1);
            for (shard_id, &budget) in per_shard.iter().enumerate().take(spawned).skip(1) {
                let (reply_tx, reply_rx) = mpsc::channel::<RoundReply>();
                replies.push(reply_tx);
                let report_tx = report_tx.clone();
                let pool = Arc::clone(&seed_pool);
                handles.push(scope.spawn(move || {
                    contain_shard(shard_id, &report_tx, || {
                        let mut shard = ShardState::new(config, seeds, shard_id, budget, pool);
                        for _ in 0..budget {
                            let produced = shard.step();
                            let report = Report {
                                shard_id,
                                produced,
                                accepted: false,
                            };
                            if report_tx.send(report).is_err() {
                                break;
                            }
                            let Ok(reply) = reply_rx.recv() else {
                                break;
                            };
                            shard.absorb(reply.accepted_own, reply.additions);
                        }
                        shard.selector.stats()
                    })
                }));
            }
            drop(report_tx);
            let peers = Peers { reports, replies };
            run_rounds(
                &mut host,
                &mut sink,
                &mut acceptance,
                &per_shard,
                Some(&peers),
            );
            // Release any shard still blocked on a reply, then collect stats.
            drop(peers);
            for (i, handle) in handles.into_iter().enumerate() {
                stat_tables[i + 1] = sink.join(i + 1, handle.join());
            }
        });
    }
    stat_tables[0] = host.selector.stats();
    let mut telemetry = acceptance_telemetry(&acceptance);
    // Replicas distill identically; shard 0 runs the full round count.
    telemetry.distill_passes = host.distill.passes;
    telemetry.distill_evicted = host.distill.evicted;
    sink.finish(telemetry, &stat_tables)
}

/// The lockstep rounds: shard 0 (hosted here) steps while its peers do,
/// then the coordinator judges the round's candidates in shard-id order,
/// sends each peer its verdict and the round's accepted classes, and
/// absorbs them into shard 0. Any failure ends the rounds with the error
/// held by `sink`; dropping `peers` afterwards releases every blocked
/// shard. The round buffers are reused, so a one-shard run allocates
/// nothing per round.
fn run_rounds(
    host: &mut ShardState<'_>,
    sink: &mut CampaignSink<'_>,
    acceptance: &mut Acceptance,
    per_shard: &[usize],
    peers: Option<&Peers>,
) {
    let mut round_work: Vec<Option<Produced>> = Vec::with_capacity(per_shard.len());
    let mut verdicts: Vec<bool> = Vec::with_capacity(per_shard.len());
    let mut additions: Vec<PoolEntry> = Vec::new();
    for round in 0..per_shard[0] {
        let active = per_shard.iter().filter(|&&n| n > round).count();
        round_work.clear();
        round_work.push(Some(
            run_contained(|| host.step()).unwrap_or_else(Produced::ShardDied),
        ));
        round_work.resize_with(active, || None);
        for _ in 1..active {
            match peers.map(|p| p.reports.recv()) {
                Some(Ok(report)) => round_work[report.shard_id] = Some(report.produced),
                _ => {
                    sink.fail(EngineError {
                        shard_id: None,
                        round,
                        last_candidate: None,
                        message: "every worker shard disconnected mid-round".to_string(),
                    });
                    return;
                }
            }
        }
        verdicts.clear();
        for (shard_id, slot) in round_work.iter_mut().enumerate() {
            let produced = slot.take().unwrap_or_else(|| {
                Produced::ShardDied("active shard failed to report its round".to_string())
            });
            let accepted = match &produced {
                Produced::Candidate(c) => decide(acceptance, c.trace.as_ref(), c.trace_fp),
                _ => false,
            };
            verdicts.push(accepted);
            additions.extend(sink.record(shard_id, produced, accepted));
        }
        if sink.failed() {
            return;
        }
        if let Some(peers) = peers {
            for (reply, &accepted_own) in peers.replies.iter().zip(&verdicts[1..]) {
                let _ = reply.send(RoundReply {
                    accepted_own,
                    additions: additions.clone(),
                });
            }
        }
        if let Err(detail) = run_contained(|| host.absorb(verdicts[0], additions.drain(..))) {
            sink.record(0, Produced::ShardDied(detail), false);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::SeedCorpus;

    fn small_seeds() -> Vec<IrClass> {
        SeedCorpus::generate(12, 21).into_classes()
    }

    #[test]
    fn randfuzz_accepts_everything() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 1);
        let result = run_campaign(&seeds, &cfg);
        assert_eq!(result.test_classes.len(), result.gen_classes.len());
        assert!(
            result.success_rate() > 0.5,
            "most iterations should generate"
        );
    }

    #[test]
    fn classfuzz_rejects_coverage_duplicates() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 120, 2);
        let result = run_campaign(&seeds, &cfg);
        assert!(
            result.test_classes.len() < result.gen_classes.len(),
            "uniqueness must reject some mutants"
        );
        assert!(
            !result.test_classes.is_empty(),
            "some mutants must be representative"
        );
    }

    #[test]
    fn greedy_accepts_fewest() {
        let seeds = small_seeds();
        let unique = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Uniquefuzz, 150, 3));
        let greedy = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Greedyfuzz, 150, 3));
        assert!(
            greedy.test_classes.len() < unique.test_classes.len(),
            "greedy ({}) should accept fewer than unique ({})",
            greedy.test_classes.len(),
            unique.test_classes.len()
        );
    }

    #[test]
    fn campaigns_are_deterministic_mod_timing() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 80, 7);
        let a = run_campaign(&seeds, &cfg);
        let b = run_campaign(&seeds, &cfg);
        assert_eq!(a.test_classes, b.test_classes);
        assert_eq!(a.gen_classes.len(), b.gen_classes.len());
        assert_eq!(
            a.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>(),
            b.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn mcmc_stats_track_successes() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::StBr), 100, 11);
        let result = run_campaign(&seeds, &cfg);
        let total_selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
        let total_successes: u64 = result.mutator_stats.iter().map(|s| s.successes).sum();
        assert_eq!(total_selected as usize, result.iterations);
        assert_eq!(total_successes as usize, result.test_classes.len());
    }

    #[test]
    fn acceptance_telemetry_reflects_campaign() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 100, 13);
        let result = run_campaign(&seeds, &cfg);
        let tel = result.acceptance;
        // Seed insertion bypasses insert_if_unique, so offers count only
        // the generated candidates that had a trace.
        assert_eq!(tel.offered as usize, result.gen_classes.len());
        assert_eq!(tel.accepted as usize, result.test_classes.len());
        assert_eq!(
            tel.fingerprint_fast_path + tel.word_compare_fallbacks,
            tel.offered,
            "[tr] must consult the fingerprint table on every offer"
        );
        // Randfuzz never consults the index.
        let rand = run_campaign(&seeds, &CampaignConfig::new(Algorithm::Randfuzz, 40, 13));
        assert_eq!(rand.acceptance, AcceptanceTelemetry::default());
    }

    #[test]
    fn clean_campaigns_record_no_crashes() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 40, 5);
        let result = run_campaign(&seeds, &cfg);
        assert!(result.crashes.is_empty());
    }

    #[test]
    fn chaos_mutator_crashes_are_contained_and_recorded() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 5).with_panic_injection();
        // The campaign must run to its full budget despite the panicking
        // mutator being in the rotation.
        let result = run_campaign(&seeds, &cfg);
        assert_eq!(result.iterations, 60);
        assert!(
            !result.crashes.is_empty(),
            "60 uniform draws over 130 mutators should hit the chaos mutator"
        );
        let chaos_id = campaign_mutators(&cfg).len() - 1;
        for crash in &result.crashes {
            assert_eq!(crash.shard_id, 0);
            assert_eq!(
                crash.site,
                CrashSite::Mutator {
                    mutator_id: chaos_id
                }
            );
            assert!(
                crash.detail.contains("chaos mutator"),
                "detail: {}",
                crash.detail
            );
            assert!(
                classfuzz_classfile::ClassFile::from_bytes(&crash.bytes).is_ok(),
                "the pre-mutation reproducer must be a decodable classfile"
            );
        }
        // Crashed iterations are consumed: selections still add up.
        let total_selected: u64 = result.mutator_stats.iter().map(|s| s.selected).sum();
        assert_eq!(total_selected as usize, result.iterations);
    }

    #[test]
    fn chaos_campaigns_are_deterministic() {
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 50, 9).with_panic_injection();
        let a = run_campaign(&seeds, &cfg);
        let b = run_campaign(&seeds, &cfg);
        assert_eq!(a.crashes, b.crashes);
        assert_eq!(
            a.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>(),
            b.gen_classes.iter().map(|g| &g.bytes).collect::<Vec<_>>()
        );
    }

    #[test]
    fn crash_dir_receives_reproducers() {
        let dir = std::env::temp_dir().join(format!("classfuzz_crash_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp crash dir");
        let seeds = small_seeds();
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 60, 5)
            .with_panic_injection()
            .with_crash_dir(dir.clone());
        let result = run_campaign(&seeds, &cfg);
        assert!(!result.crashes.is_empty());
        for (i, crash) in result.crashes.iter().enumerate() {
            let class = dir.join(format!("crash_{i:04}_{}.class", crash.site.label()));
            let sidecar = class.with_extension("txt");
            assert_eq!(
                std::fs::read(&class).ok().as_deref(),
                Some(crash.bytes.as_slice())
            );
            let notes = std::fs::read_to_string(&sidecar).expect("sidecar written");
            assert!(notes.contains(&crash.detail));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "shard 0 failed in round 0: worker shard died outside containment")]
    fn run_campaign_panics_with_the_engine_error_when_its_shard_dies() {
        let cfg = CampaignConfig::new(Algorithm::Randfuzz, 10, 1).with_shard_death_injection(0);
        run_campaign(&small_seeds(), &cfg);
    }

    #[test]
    fn engine_error_renders_diagnosably() {
        let err = EngineError {
            shard_id: Some(2),
            round: 17,
            last_candidate: Some(vec![0xca, 0xfe]),
            message: "worker shard died outside containment: boom".to_string(),
        };
        let text = err.to_string();
        assert!(text.contains("shard 2"), "got: {text}");
        assert!(text.contains("round 17"), "got: {text}");
        assert!(text.contains("boom"), "got: {text}");
        let headless = EngineError {
            shard_id: None,
            round: 0,
            last_candidate: None,
            message: "every worker shard disconnected mid-round".to_string(),
        };
        assert!(headless.to_string().contains("disconnected"));
    }
}
