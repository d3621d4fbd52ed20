//! The `exec` bench-gate scenario: measures what the `--exec-diff`
//! observer adds on top of a plain five-VM startup evaluation of the same
//! fixed-seed mutant batch.
//!
//! Methodology (see EXPERIMENTS.md, "Execution-differencing benchmark"):
//!
//! * the batch is the same snapshot-pinned `GenClasses` the harness
//!   scenario measures ([`crate::harnessbench::snapshot_batch`]), so the
//!   two reports are directly comparable;
//! * every timing is the median over `repeats` interleaved runs;
//! * the floor that holds on any machine is the *overhead ratio*:
//!   classes/sec with execution differencing (run, verdict normalization
//!   and taxonomy classification) over classes/sec startup-only. Both
//!   paths execute `main` — the invocation phase is part of startup — so
//!   the observer's extra cost is normalization only.

use classfuzz_core::diff::DifferentialHarness;
use classfuzz_vm::preparse;

use crate::gate::{interleaved, per_sec, Better, Gate, Metric};
use crate::harnessbench::snapshot_batch;

/// Runs the exec scenario over the snapshot batch.
pub fn run(repeats: usize, floor: f64) -> Vec<Metric> {
    batch_metrics(&snapshot_batch(), repeats, floor)
}

/// Runs the scenario over an explicit byte batch (exposed for tests).
pub fn batch_metrics(batch: &[Vec<u8>], repeats: usize, floor: f64) -> Vec<Metric> {
    let harness = DifferentialHarness::paper_five();
    let rates = interleaved(
        repeats,
        [
            // Startup only: shared preparse, five profile runs, phase-digit key.
            &mut per_sec(batch.len(), || {
                for bytes in batch {
                    let parsed = preparse(bytes);
                    let vector = harness.run_parsed(std::hint::black_box(&parsed));
                    std::hint::black_box(vector.key());
                }
            }),
            // The same runs plus verdict normalization, the `exec_key` and
            // taxonomy classification: the exact per-accepted-candidate
            // work of `fuzz --exec-diff`.
            &mut per_sec(batch.len(), || {
                for bytes in batch {
                    let parsed = preparse(bytes);
                    let vector = harness.run_parsed(std::hint::black_box(&parsed));
                    std::hint::black_box(vector.key());
                    std::hint::black_box(vector.exec_key());
                    std::hint::black_box(vector.classify_exec());
                }
            }),
        ],
    );
    metrics(batch.len(), repeats, rates, floor)
}

/// The exec report: classes/sec are `[startup, exec]`; their ratio is the
/// observer's overhead (1.0 = free, 0.5 = doubles the evaluation cost).
pub(crate) fn metrics(
    batch_size: usize,
    repeats: usize,
    [startup, exec]: [f64; 2],
    floor: f64,
) -> Vec<Metric> {
    vec![
        Metric::count("batch_size", batch_size),
        Metric::count("repeats", repeats),
        Metric::new("classes_per_sec_startup", 1, startup),
        Metric::new("classes_per_sec_exec", 1, exec).gate(Gate::Regression(Better::Higher)),
        Metric::new("exec_overhead_ratio", 2, exec / startup.max(1e-9)).gate(Gate::Floor(floor)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{json_number, render};
    use classfuzz_core::seeds::SeedCorpus;

    #[test]
    fn small_batch_report_is_consistent() {
        let batch: Vec<Vec<u8>> = SeedCorpus::generate(3, 9).to_bytes();
        let metrics = batch_metrics(&batch, 1, 0.0);
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        assert_eq!(json_number(&render(&metrics), "batch_size"), Some(3.0));
    }
}
