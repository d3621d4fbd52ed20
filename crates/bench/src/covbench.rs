//! The `coverage` bench-gate scenario: measures the bitset engine's
//! `[tr]` acceptance hot path against the retained `BTreeSet` reference
//! model, and a real campaign's acceptance throughput.
//!
//! Methodology (see EXPERIMENTS.md, "Coverage micro-benchmarks"):
//!
//! * the suite is `SUITE_SIZE` synthetic traces that all share one
//!   `(stmt, br)` statistic — the adversarial-but-realistic shape for
//!   `[tr]`, whose entire point is distinguishing traces the statistic
//!   criteria cannot (the reference model degenerates to a full-bucket
//!   pairwise scan, exactly as it did on the pre-rewrite campaign path);
//! * every timing is the median over `repeats` runs, so a single
//!   scheduler hiccup cannot fail the gate;
//! * the gates are the bitset/baseline speedup floor, which holds on any
//!   machine, and the regression budget on the probe, the merge and the
//!   campaign throughput against the committed baseline.

use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::{baseline, SuiteIndex, TraceFile, UniquenessCriterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gate::{interleaved, per_sec, Better, Gate, Metric};

/// Traces in the synthetic suite the probes run against.
const SUITE_SIZE: usize = 1000;
/// How many distinct statement sites each synthetic trace hits.
const SYNTH_STMTS: usize = 120;
/// How many distinct branch `(site, direction)` pairs each trace hits.
const SYNTH_BRANCHES: usize = 40;
/// The statement-site id space traces sample from.
const SYNTH_STMT_SPACE: u32 = 400;
/// The branch-site id space.
const SYNTH_BRANCH_SPACE: u32 = 60;

/// A suite of synthetic traces in both representations, pairwise distinct
/// but all sharing one `(stmt, br)` statistic.
pub struct SynthSuite {
    /// Dense bitset traces.
    pub bitset: Vec<TraceFile>,
    /// The same traces in the reference model.
    pub reference: Vec<baseline::TraceFile>,
}

/// Generates `count` pairwise-distinct traces with identical statistics —
/// the bucket shape that makes `[tr]` acceptance expensive for the
/// reference model. Deterministic for a fixed `rng_seed`.
pub fn synth_suite(count: usize, rng_seed: u64) -> SynthSuite {
    let mut rng = StdRng::seed_from_u64(rng_seed);
    let mut bitset = Vec::with_capacity(count);
    let mut reference = Vec::with_capacity(count);
    while bitset.len() < count {
        let mut stmts = std::collections::BTreeSet::new();
        while stmts.len() < SYNTH_STMTS {
            stmts.insert(rng.gen_range(0..SYNTH_STMT_SPACE));
        }
        let mut branches = std::collections::BTreeSet::new();
        while branches.len() < SYNTH_BRANCHES {
            branches.insert((
                rng.gen_range(0..SYNTH_BRANCH_SPACE),
                rng.gen_range(0..2) == 1,
            ));
        }
        let mut bt = TraceFile::new();
        let mut rt = baseline::TraceFile::new();
        for &s in &stmts {
            bt.hit_stmt(s);
            rt.hit_stmt(s);
        }
        for &(s, d) in &branches {
            bt.hit_branch(s, d);
            rt.hit_branch(s, d);
        }
        // Rejection-sample duplicates so the suite is pairwise distinct.
        if bitset.contains(&bt) {
            continue;
        }
        bitset.push(bt);
        reference.push(rt);
    }
    SynthSuite { bitset, reference }
}

/// Runs the coverage scenario: `[tr]` probe and merge timings on the
/// synthetic suite, then a fixed-seed classfuzz`[tr]` campaign.
pub fn run(repeats: usize, floor: f64) -> Vec<Metric> {
    let suite = synth_suite(SUITE_SIZE, 0xC0DE);

    // Accepted-suite indices over the whole synthetic suite. The traces
    // are distinct by construction, so the reference model can be
    // force-inserted (probing while building would cost O(n²) scans and
    // measure construction, not the steady-state probe).
    let mut bit_index = SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.bitset {
        bit_index.insert(t);
    }
    let mut ref_index = baseline::SuiteIndex::new(UniquenessCriterion::Tr);
    for t in &suite.reference {
        ref_index.insert(t);
    }

    // Probe with duplicates of accepted traces: the steady-state rejection
    // path a mature campaign hits on almost every iteration. The bitset
    // side is cheap enough to need many ops per sample for resolution; the
    // reference side scans a 1k bucket per probe, so a few suffice.
    let bit_probes = suite.bitset.len().min(1000);
    let ref_probes = suite.reference.len().min(40);
    let [tr_ns_bitset, tr_ns_baseline] = interleaved(
        repeats,
        [
            &mut ns_per_op(bit_probes * 16, || {
                for _ in 0..16 {
                    for t in &suite.bitset[..bit_probes] {
                        std::hint::black_box(bit_index.is_unique(std::hint::black_box(t)));
                    }
                }
            }),
            &mut ns_per_op(ref_probes, || {
                for t in &suite.reference[..ref_probes] {
                    std::hint::black_box(ref_index.is_unique(std::hint::black_box(t)));
                }
            }),
        ],
    );

    // ⊕ merge, pairing each trace with its successor.
    let pairs = suite.bitset.len() - 1;
    let [merge_ns_bitset, merge_ns_baseline] = interleaved(
        repeats,
        [
            &mut ns_per_op(pairs, || {
                for w in suite.bitset.windows(2) {
                    std::hint::black_box(w[0].merge(&w[1]));
                }
            }),
            &mut ns_per_op(pairs, || {
                for w in suite.reference.windows(2) {
                    std::hint::black_box(w[0].merge(&w[1]));
                }
            }),
        ],
    );

    // End-to-end acceptance throughput: a fixed-seed classfuzz[tr]
    // campaign (the snapshot scale pinned by tests/coverage_equiv.rs).
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    let mut fast_path_rate = None;
    let [accepted_per_sec] = interleaved(
        repeats,
        [&mut || {
            let result = run_campaign(&seeds, &config);
            fast_path_rate.get_or_insert(result.acceptance.fast_path_rate().unwrap_or(0.0));
            result.test_classes.len() as f64 / result.elapsed.as_secs_f64().max(1e-9)
        }],
    );

    metrics(
        repeats,
        [tr_ns_bitset, tr_ns_baseline],
        [merge_ns_bitset, merge_ns_baseline],
        accepted_per_sec,
        fast_path_rate.unwrap_or(0.0),
        floor,
    )
}

/// The coverage report: ns/op pairs are `[bitset, reference model]`.
pub(crate) fn metrics(
    repeats: usize,
    [tr_bitset, tr_baseline]: [f64; 2],
    [merge_bitset, merge_baseline]: [f64; 2],
    accepted_per_sec: f64,
    fast_path_rate: f64,
    floor: f64,
) -> Vec<Metric> {
    vec![
        Metric::count("suite_size", SUITE_SIZE),
        Metric::count("repeats", repeats),
        Metric::new("tr_is_unique_ns_bitset", 1, tr_bitset).gate(Gate::Regression(Better::Lower)),
        Metric::new("tr_is_unique_ns_baseline", 1, tr_baseline),
        Metric::new("tr_is_unique_speedup", 1, tr_baseline / tr_bitset.max(1e-9))
            .gate(Gate::Floor(floor)),
        Metric::new("merge_ns_bitset", 1, merge_bitset).gate(Gate::Regression(Better::Lower)),
        Metric::new("merge_ns_baseline", 1, merge_baseline),
        Metric::new("accepted_per_sec", 1, accepted_per_sec).gate(Gate::Regression(Better::Higher)),
        Metric::new("fingerprint_fast_path_rate", 4, fast_path_rate),
    ]
}

/// An arm whose every sample times `op`, which performs `ops` operations,
/// in ns/op.
fn ns_per_op(ops: usize, op: impl FnMut()) -> impl FnMut() -> f64 {
    let mut rate = per_sec(ops, op);
    move || 1e9 / rate()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_suite_is_distinct_with_constant_stats() {
        let suite = synth_suite(30, 7);
        let stats = suite.bitset[0].stats();
        assert_eq!(stats.stmt, SYNTH_STMTS);
        assert_eq!(stats.br, SYNTH_BRANCHES);
        for (i, a) in suite.bitset.iter().enumerate() {
            assert_eq!(a.stats(), stats, "all traces share one statistic");
            assert_eq!(a.stmt_sites(), suite.reference[i].stmts().clone());
            for b in &suite.bitset[i + 1..] {
                assert!(!a.statically_equal(b), "suite must be pairwise distinct");
            }
        }
    }
}
