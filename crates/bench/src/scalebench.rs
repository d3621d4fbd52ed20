//! The `scale` bench-gate scenario: measures the free-running async
//! engine's throughput against the lockstep engine and across shard
//! counts, and runs the fixed-budget async-vs-lockstep discrepancy
//! cross-check.
//!
//! Methodology (see DESIGN.md §14):
//!
//! * throughput is campaign iterations per second of a fixed-seed
//!   classfuzz`[stbr]` run, median over `repeats`; the three arms are
//!   interleaved run by run, so load that drifts during the scenario hits
//!   async@1 and async@n alike instead of skewing their ratio;
//! * the scaling ratio compares the async engine at `shards` shards
//!   against itself at one (which runs on the calling thread, spawning
//!   nothing) — where cores exist it must clear the scenario's floor;
//! * on a single-core machine (the CI container reports
//!   `available_parallelism() == 1`) no speedup is observable, so the
//!   gate instead asserts no-regression: one async shard must stay within
//!   the regression budget of one lockstep shard;
//! * the cross-check runs both schedules at one shard — the budget where
//!   discrepancy-set equality is well-defined, because each engine then
//!   replays the deterministic sequential campaign — and requires the
//!   `OutcomeVector::key` sets to be identical.

use std::collections::BTreeSet;

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{
    run_campaign_parallel, Algorithm, CampaignConfig, CampaignResult, Schedule,
};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;

use crate::gate::{interleaved, Better, Gate, Metric, BUDGET};

/// Seed-corpus size for the throughput campaigns.
const SCALE_SEEDS: usize = 12;
/// Iteration budget for the throughput campaigns.
const SCALE_ITERATIONS: usize = 2000;
/// Iteration budget for the discrepancy cross-check (the pinned budget
/// `tests/async_engine.rs` uses).
const CROSSCHECK_ITERATIONS: usize = 600;
/// Master RNG seed for both.
const SCALE_RNG_SEED: u64 = 21;

fn scale_config(iterations: usize, schedule: Schedule) -> CampaignConfig {
    CampaignConfig::new(
        Algorithm::Classfuzz(UniquenessCriterion::StBr),
        iterations,
        SCALE_RNG_SEED,
    )
    .with_schedule(schedule)
}

/// One timing sample: iterations/second of the configured campaign.
fn campaign_iters_per_sec(
    seeds: &[classfuzz_jimple::IrClass],
    config: &CampaignConfig,
    shards: usize,
) -> f64 {
    let result =
        run_campaign_parallel(seeds, config, shards).expect("benchmark campaign must not fail");
    config.iterations as f64 / result.elapsed.as_secs_f64().max(1e-9)
}

/// The set of startup-phase discrepancy keys a suite triggers.
fn discrepancy_keys(result: &CampaignResult) -> BTreeSet<String> {
    let harness = DifferentialHarness::paper_five();
    result
        .test_bytes()
        .iter()
        .map(|bytes| harness.run(bytes))
        .filter(|vector| vector.is_discrepancy())
        .map(|vector| vector.key())
        .collect()
}

/// Runs the scale scenario: the interleaved throughput arms, then the
/// discrepancy cross-check.
pub fn run(repeats: usize, floor: f64) -> Vec<Metric> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // 2+ shards where cores exist (capped: oversubscribing a laptop adds
    // noise, not signal); 2 even on one core so the free-running paths
    // are exercised, though the gate only floors the ratio where real
    // parallelism exists.
    let shards = cores.clamp(2, 4);
    let seeds = SeedCorpus::generate(SCALE_SEEDS, SCALE_RNG_SEED).into_classes();
    let lockstep = scale_config(SCALE_ITERATIONS, Schedule::Lockstep);
    let async_ = scale_config(SCALE_ITERATIONS, Schedule::Async);
    let rates = interleaved(
        repeats,
        [
            &mut || campaign_iters_per_sec(&seeds, &lockstep, 1),
            &mut || campaign_iters_per_sec(&seeds, &async_, 1),
            &mut || campaign_iters_per_sec(&seeds, &async_, shards),
        ],
    );

    // Fixed-budget cross-check at one shard, where both schedules replay
    // the deterministic sequential campaign and set equality is exact.
    let [lockstep_keys, async_keys] = [Schedule::Lockstep, Schedule::Async].map(|schedule| {
        let result =
            run_campaign_parallel(&seeds, &scale_config(CROSSCHECK_ITERATIONS, schedule), 1)
                .expect("crosscheck campaign must not fail");
        discrepancy_keys(&result)
    });
    let crosscheck_pass = !lockstep_keys.is_empty() && lockstep_keys == async_keys;

    metrics(
        [cores, shards, repeats],
        rates,
        lockstep_keys.len(),
        crosscheck_pass,
        floor,
    )
}

/// The scale report: iterations/sec are `[lockstep@1, async@1,
/// async@shards]`. The cross-check gate applies everywhere; the scaling
/// floor only where 2+ cores exist, and the single-core guard (async@1
/// within the budget of lockstep@1) only where they do not.
pub(crate) fn metrics(
    [cores, shards, repeats]: [usize; 3],
    [lockstep, async_1, async_multi]: [f64; 3],
    crosscheck_keys: usize,
    crosscheck_pass: bool,
    floor: f64,
) -> Vec<Metric> {
    let mut scaling = Metric::new("scaling_ratio", 2, async_multi / async_1.max(1e-9));
    let mut vs_lockstep = Metric::new("async_vs_lockstep_ratio", 2, async_1 / lockstep.max(1e-9));
    if cores >= 2 {
        scaling = scaling.gate(Gate::Floor(floor));
    } else {
        vs_lockstep = vs_lockstep.gate(Gate::Floor(1.0 / BUDGET));
    }
    vec![
        Metric::count("cores", cores),
        Metric::count("shards", shards),
        Metric::count("repeats", repeats),
        Metric::new("lockstep_iters_per_sec", 1, lockstep),
        Metric::new("async_iters_per_sec_1shard", 1, async_1)
            .gate(Gate::Regression(Better::Higher)),
        Metric::new("async_iters_per_sec_multi", 1, async_multi),
        scaling,
        vs_lockstep,
        Metric::count("crosscheck_keys", crosscheck_keys),
        Metric::new(
            "crosscheck_pass",
            0,
            if crosscheck_pass { 1.0 } else { 0.0 },
        )
        .gate(Gate::Floor(1.0)),
    ]
}
