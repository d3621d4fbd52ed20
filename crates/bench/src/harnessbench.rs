//! The `harness` bench-gate scenario: pushes a fixed-seed mutant batch
//! through the five-VM differential harness on the share-everything
//! pipeline (cached bootstrap worlds + parse-once) and on the pre-sharing
//! path (cold world rebuild and re-parse per profile).
//!
//! Methodology (see EXPERIMENTS.md, "Harness end-to-end benchmark"):
//!
//! * the batch is every `GenClass` of the snapshot-pinned fixed-seed
//!   classfuzz`[tr]` campaign (tests/coverage_equiv.rs), so the workload
//!   is real mutants with the real accept/reject mix, not synthetic blobs;
//! * every timing is the median over `repeats` interleaved runs;
//! * besides the regression budget, two floors hold on any machine: the
//!   in-run speedup of the shared path over the cold path, and the shared
//!   path's throughput against the committed *old-path* number (the ≥2×
//!   acceptance criterion).

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, Algorithm, CampaignConfig};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_coverage::UniquenessCriterion;
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::gate::{interleaved, per_sec, Better, Gate, Metric};

/// The fixed-seed mutant batch every scenario measures: the `GenClasses`
/// of the campaign configuration pinned bit-for-bit by
/// `tests/coverage_equiv.rs` (12 seeds, rng 21; classfuzz`[tr]`,
/// 150 iterations, rng 20160613).
pub fn snapshot_batch() -> Vec<Vec<u8>> {
    let seeds = SeedCorpus::generate(12, 21).into_classes();
    let config = CampaignConfig::new(Algorithm::Classfuzz(UniquenessCriterion::Tr), 150, 20160613);
    run_campaign(&seeds, &config).gen_bytes()
}

/// Runs the harness scenario over the snapshot batch.
pub fn run(repeats: usize, floor: f64) -> Vec<Metric> {
    batch_metrics(&snapshot_batch(), repeats, floor)
}

/// Runs the scenario over an explicit byte batch (exposed for tests).
pub fn batch_metrics(batch: &[Vec<u8>], repeats: usize, floor: f64) -> Vec<Metric> {
    let harness = DifferentialHarness::paper_five();
    // The pre-sharing path: every profile rebuilds its bootstrap world per
    // run, and every run re-parses the candidate's bytes.
    let cold_jvms: Vec<Jvm> = VmSpec::all_five().into_iter().map(Jvm::uncached).collect();

    let rates = interleaved(
        repeats,
        [
            // The shared pipeline: process-cached bootstrap worlds, one
            // `preparse` per class shared by all five profiles.
            &mut per_sec(batch.len(), || {
                for bytes in batch {
                    let parsed = preparse(bytes);
                    std::hint::black_box(harness.run_parsed(std::hint::black_box(&parsed)));
                }
            }),
            // The byte-level wrapper API, which preparses once internally.
            &mut per_sec(batch.len(), || {
                for bytes in batch {
                    std::hint::black_box(harness.run(std::hint::black_box(bytes)));
                }
            }),
            &mut per_sec(batch.len(), || {
                for bytes in batch {
                    for jvm in &cold_jvms {
                        // One decode *per profile*: the cold path must not
                        // share the parse, that is exactly the waste being
                        // measured.
                        let parsed = preparse(std::hint::black_box(bytes));
                        std::hint::black_box(jvm.run_parsed(&parsed));
                    }
                }
            }),
        ],
    );
    metrics(batch.len(), repeats, rates, floor)
}

/// The harness report: classes/sec are `[preparsed, bytes, cold]`. The
/// byte-level number must track the preparsed one closely; the floor
/// applies both in-run and against the committed old-path number.
pub(crate) fn metrics(
    batch_size: usize,
    repeats: usize,
    [preparsed, bytes, cold]: [f64; 3],
    floor: f64,
) -> Vec<Metric> {
    vec![
        Metric::count("batch_size", batch_size),
        Metric::count("repeats", repeats),
        Metric::new("classes_per_sec_preparsed", 1, preparsed)
            .gate(Gate::AtLeast(floor, "classes_per_sec_old_path"))
            .gate(Gate::Regression(Better::Higher)),
        Metric::new("classes_per_sec_bytes", 1, bytes),
        Metric::new("classes_per_sec_cold", 1, cold),
        Metric::new("harness_speedup", 2, preparsed / cold.max(1e-9)).gate(Gate::Floor(floor)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{json_number, render};

    #[test]
    fn small_batch_report_is_consistent() {
        let batch: Vec<Vec<u8>> = SeedCorpus::generate(3, 9).to_bytes();
        let metrics = batch_metrics(&batch, 1, 0.0);
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        assert_eq!(json_number(&render(&metrics), "batch_size"), Some(3.0));
    }
}
