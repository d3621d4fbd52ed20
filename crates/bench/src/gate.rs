//! The one bench-gate runner behind the `covbench` binary and
//! `scripts/bench_gate.sh`: the scenario table, the metric and gate model,
//! and the timing, JSON and checking code every scenario shares.
//!
//! A scenario is a name, the floor of its machine-independent ratio, and
//! one function that measures the workload and returns its metrics in
//! report order. Each metric carries the gates its value must pass. A
//! check that only applies on some machines or runs (the scale gate's
//! single-core guard, the mutate gate's allocation checks) is a gate the
//! scenario emits only when its condition holds. [`SCENARIOS`] and
//! [`BUDGET`] are the only place a gate threshold is written.

use std::time::Instant;

use crate::{
    covbench, execbench, harnessbench, interpbench, mutatebench, scalebench, startupbench,
    yieldbench,
};

/// How much worse than the committed baseline a `Regression`-gated metric
/// may get, as a factor: a 20% budget. Baselines are deliberately pessimistic
/// (see their `_note` fields), so scheduler noise alone cannot spend it.
pub const BUDGET: f64 = 1.2;

/// One gated benchmark scenario.
pub struct Scenario {
    /// The `--scenario` name; its report is `BENCH_<name>.json` and its
    /// committed baseline `BENCH_<name>.baseline.json`.
    pub name: &'static str,
    /// The floor on the scenario's in-run, machine-independent ratio.
    pub floor: f64,
    /// Measures the scenario over `repeats` timing samples per arm and
    /// returns its gated metrics for the given floor.
    pub run: fn(repeats: usize, floor: f64) -> Vec<Metric>,
}

/// Every gated scenario, in the order `scripts/bench_gate.sh` runs them.
pub const SCENARIOS: [Scenario; 8] = [
    // Bitset vs BTreeSet reference `[tr]` is_unique speedup.
    Scenario {
        name: "coverage",
        floor: 5.0,
        run: covbench::run,
    },
    // Shared vs cold five-VM harness, and vs the committed old path.
    Scenario {
        name: "harness",
        floor: 2.0,
        run: harnessbench::run,
    },
    // Scratch vs cold candidate generation, and vs the committed cold path.
    Scenario {
        name: "mutate",
        floor: 2.0,
        run: mutatebench::run,
    },
    // Exec-diff vs startup-only throughput: differencing may at most
    // double the cost of an evaluation.
    Scenario {
        name: "exec",
        floor: 0.5,
        run: execbench::run,
    },
    // Prepared vs cold interpreter throughput.
    Scenario {
        name: "interp",
        floor: 2.0,
        run: interpbench::run,
    },
    // Async shard scaling, applied only where 2+ cores exist.
    Scenario {
        name: "scale",
        floor: 1.5,
        run: scalebench::run,
    },
    // Maxcover + distill vs uniform distinct discrepancy keys.
    Scenario {
        name: "yield",
        floor: 1.2,
        run: yieldbench::run,
    },
    // Shared vs cold five-profile startup throughput.
    Scenario {
        name: "startup",
        floor: 2.0,
        run: startupbench::run,
    },
];

/// The scenario called `name`, if the table has one.
pub fn scenario(name: &str) -> Option<&'static Scenario> {
    SCENARIOS.iter().find(|s| s.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Better {
    /// Throughputs, ratios, counts of findings.
    Higher,
    /// Latencies and allocation counts.
    Lower,
}

/// One check a metric's value must pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Gate {
    /// The value must be at least this.
    Floor(f64),
    /// The value must be strictly below this.
    Below(f64),
    /// The value may be at most [`BUDGET`] times worse, in the given
    /// direction, than the baseline's value of the same key.
    Regression(Better),
    /// The value must be at least `factor` times the baseline's value of
    /// the named key.
    AtLeast(f64, &'static str),
}

/// One reported number and the gates it must pass.
#[derive(Debug)]
pub struct Metric {
    /// The JSON key.
    pub(crate) key: &'static str,
    /// The measured value (counts are exact in an `f64`).
    pub(crate) value: f64,
    /// Decimal places the report prints.
    pub(crate) precision: usize,
    /// Checks applied when a baseline is given.
    pub(crate) gates: Vec<Gate>,
}

impl Metric {
    /// An ungated metric printed with `precision` decimals.
    pub(crate) fn new(key: &'static str, precision: usize, value: f64) -> Metric {
        Metric {
            key,
            value,
            precision,
            gates: Vec::new(),
        }
    }

    /// An ungated count, printed as an integer.
    pub(crate) fn count(key: &'static str, value: usize) -> Metric {
        Metric::new(key, 0, value as f64)
    }

    /// The same metric with one more gate.
    pub(crate) fn gate(mut self, gate: Gate) -> Metric {
        self.gates.push(gate);
        self
    }
}

/// Renders metrics as a flat JSON object, one key per line in the given
/// order — the `BENCH_*.json` format.
pub fn render(metrics: &[Metric]) -> String {
    let lines: Vec<String> = metrics
        .iter()
        .map(|m| format!("  \"{}\": {:.*}", m.key, m.precision, m.value))
        .collect();
    format!("{{\n{}\n}}\n", lines.join(",\n"))
}

/// Pulls one numeric field out of a flat JSON object (the only shape the
/// bench reports use — no external JSON crate in this workspace).
pub(crate) fn json_number(json: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let at = json.find(&pattern)? + pattern.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Checks every gate against a committed baseline JSON. Returns the gate
/// failures — empty means the gate passes. A baseline key a gate reads
/// but the baseline lacks is a failure, not a silent pass.
pub fn check(metrics: &[Metric], baseline_json: &str) -> Vec<String> {
    let mut failures = Vec::new();
    for m in metrics {
        let (key, value) = (m.key, m.value);
        let shown = format!("{value:.*}", m.precision);
        for gate in &m.gates {
            let base = |key: &str| json_number(baseline_json, key);
            let failure = match *gate {
                Gate::Floor(floor) => {
                    (value < floor).then(|| format!("{key} {shown} is below the {floor:.2} floor"))
                }
                Gate::Below(bound) => {
                    (value >= bound).then(|| format!("{key} {shown} is not below {bound:.1}"))
                }
                Gate::Regression(better) => match base(key) {
                    None => Some(format!("baseline is missing \"{key}\"")),
                    Some(base) => {
                        let regressed = match better {
                            Better::Higher => value < base / BUDGET,
                            Better::Lower => value > base * BUDGET,
                        };
                        regressed.then(|| {
                            format!(
                                "{key} regressed: {shown} vs baseline {base:.1} \
                                 (budget {BUDGET:.2}x)"
                            )
                        })
                    }
                },
                Gate::AtLeast(factor, of) => match base(of) {
                    None => Some(format!("baseline is missing \"{of}\"")),
                    Some(base) => (value < factor * base).then(|| {
                        format!("{key} {shown} is below {factor:.1}x the committed {of} {base:.1}")
                    }),
                },
            };
            failures.extend(failure);
        }
    }
    failures
}

/// The median sample (the upper middle one for an even count).
fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Takes `repeats` samples of every arm, alternating A, B, A, B …, and
/// returns each arm's median. Interleaving makes machine load that drifts
/// during the run hit every arm alike instead of skewing the ratio of two
/// arms timed in separate blocks. Each kept sample follows one discarded
/// sample of the same arm, so it starts from the caches and allocator
/// state that arm leaves behind, as it would inside a block, rather than
/// from what the other arm left.
pub(crate) fn interleaved<const N: usize>(
    repeats: usize,
    mut arms: [&mut dyn FnMut() -> f64; N],
) -> [f64; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(repeats));
    for _ in 0..repeats {
        for (arm, samples) in arms.iter_mut().zip(&mut samples) {
            arm();
            samples.push(arm());
        }
    }
    samples.map(median)
}

/// An arm for [`interleaved`] whose every sample times `op`, which does
/// `units` of work, and returns units per second.
pub(crate) fn per_sec(units: usize, mut op: impl FnMut()) -> impl FnMut() -> f64 {
    move || {
        let start = Instant::now();
        op();
        units as f64 / start.elapsed().as_secs_f64().max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_file(name: &str) -> String {
        let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    }

    fn baseline(name: &str) -> String {
        repo_file(&format!("BENCH_{name}.baseline.json"))
    }

    fn floor(name: &str) -> f64 {
        scenario(name).expect("scenario is in the table").floor
    }

    /// A scenario's report at in-range values (allocation counts live, two
    /// cores), built by the scenario's own metric code.
    fn report(name: &str) -> Vec<Metric> {
        let floor = floor(name);
        match name {
            "coverage" => covbench::metrics(5, [50.0, 3e5], [60.0, 12e3], 3000.0, 0.23, floor),
            "harness" => harnessbench::metrics(138, 5, [20e3, 19e3, 6400.0], floor),
            "mutate" => mutatebench::metrics(119, 5, [40e3, 90e3], [189.0, 71.5], floor),
            "exec" => execbench::metrics(138, 5, [24e3, 23e3], floor),
            "interp" => interpbench::metrics(200, 5, [4000.0, 130e3], floor),
            "scale" => scalebench::metrics([2, 2, 5], [36e3, 36e3, 60e3], 9, true, floor),
            "yield" => yieldbench::metrics([14, 21], [93, 363], floor),
            "startup" => startupbench::metrics(60, 5, [150.0, 450.0], floor),
            other => panic!("no in-range report for {other}"),
        }
    }

    /// The keys of a rendered report, in order.
    fn keys(json: &str) -> Vec<&str> {
        json.lines()
            .filter_map(|line| line.trim().strip_prefix('"')?.split('"').next())
            .collect()
    }

    fn assert_failures(case: &str, metrics: &[Metric], baseline: &str, expected: &[&str]) {
        let failures = check(metrics, baseline);
        assert_eq!(failures.len(), expected.len(), "{case}: {failures:?}");
        for want in expected {
            assert!(
                failures.iter().any(|f| f.contains(want)),
                "{case}: no failure contains {want:?} in {failures:?}"
            );
        }
    }

    /// The committed `BENCH_<scenario>.json` reports are the golden key
    /// lists: a scenario must keep emitting exactly their keys, in order.
    #[test]
    fn every_scenario_keeps_its_committed_report_keys() {
        for Scenario { name, .. } in &SCENARIOS {
            let json = render(&report(name));
            let golden = repo_file(&format!("BENCH_{name}.json"));
            assert_eq!(keys(&json), keys(&golden), "{name} report keys");
            for key in keys(&json) {
                assert!(
                    json_number(&json, key).is_some(),
                    "{name}: {key} parses back"
                );
            }
        }
    }

    /// Baseline/gate drift fails here rather than at bench time: every key
    /// a gate reads is in the committed baseline, and in-range numbers pass.
    #[test]
    fn committed_baselines_cover_every_gate_and_pass_in_range_reports() {
        for Scenario { name, .. } in &SCENARIOS {
            assert_failures(name, &report(name), &baseline(name), &[]);
        }
    }

    #[test]
    fn gate_rules_fail_what_they_guard() {
        // (scenario, metric set to a failing value, the value, the failures
        // it must cause) against the committed baselines.
        let cases: &[(&str, &str, f64, &[&str])] = &[
            (
                "coverage",
                "tr_is_unique_speedup",
                3.0,
                &["speedup 3.0 is below the 5.00 floor"],
            ),
            (
                "coverage",
                "tr_is_unique_ns_bitset",
                130.0,
                &["regressed: 130.0 vs baseline 80.0"],
            ),
            (
                "coverage",
                "accepted_per_sec",
                1500.0,
                &["regressed: 1500.0 vs baseline 2400.0"],
            ),
            (
                "harness",
                "harness_speedup",
                1.4,
                &["harness_speedup 1.40 is below the 2.00"],
            ),
            (
                "harness",
                "classes_per_sec_preparsed",
                7000.0,
                &[
                    "below 2.0x the committed classes_per_sec_old_path 4000.0",
                    "regressed",
                ],
            ),
            (
                "mutate",
                "mutate_speedup",
                1.4,
                &["mutate_speedup 1.40 is below the 2.00"],
            ),
            (
                "mutate",
                "classes_per_sec_scratch",
                48e3,
                &["48000.0 is below 2.0x the committed classes_per_sec_cold 25000.0"],
            ),
            (
                "mutate",
                "allocs_per_class_scratch",
                250.0,
                &[
                    "250.0 is not below 189.0",
                    "allocs_per_class_scratch regressed",
                ],
            ),
            (
                "exec",
                "exec_overhead_ratio",
                0.3,
                &["ratio 0.30 is below the 0.50 floor"],
            ),
            (
                "exec",
                "classes_per_sec_exec",
                5000.0,
                &["classes_per_sec_exec regressed"],
            ),
            (
                "interp",
                "prepared_speedup",
                1.4,
                &["speedup 1.40 is below the 2.00 floor"],
            ),
            (
                "interp",
                "execs_per_sec_prepared",
                40e3,
                &["execs_per_sec_prepared regressed"],
            ),
            (
                "scale",
                "scaling_ratio",
                1.1,
                &["scaling_ratio 1.10 is below the 1.50 floor"],
            ),
            (
                "scale",
                "crosscheck_pass",
                0.0,
                &["crosscheck_pass 0 is below the 1.00 floor"],
            ),
            (
                "scale",
                "async_iters_per_sec_1shard",
                3000.0,
                &["1shard regressed"],
            ),
            (
                "yield",
                "yield_ratio",
                1.1,
                &["yield_ratio 1.10 is below the 1.20 floor"],
            ),
            (
                "yield",
                "uniform_keys",
                0.0,
                &["uniform_keys 0 is below the 1.00 floor"],
            ),
            (
                "yield",
                "distill_passes",
                0.0,
                &["distill_passes 0 is below the 1.00 floor"],
            ),
            (
                "yield",
                "maxcover_keys",
                9.0,
                &["maxcover_keys regressed: 9 vs baseline 16.0"],
            ),
            (
                "startup",
                "shared_speedup",
                1.4,
                &["speedup 1.40 is below the 2.00 floor"],
            ),
            (
                "startup",
                "startups_per_sec_shared",
                100.0,
                &["shared regressed"],
            ),
        ];
        for &(name, key, value, expected) in cases {
            let mut metrics = report(name);
            let metric = metrics.iter_mut().find(|m| m.key == key);
            metric.expect("key is in the report").value = value;
            assert_failures(
                &format!("{name} {key}={value}"),
                &metrics,
                &baseline(name),
                expected,
            );
        }

        // One core shows no scaling, so the scaling floor gives way to the
        // guard that one async shard stays within budget of one lockstep.
        let one_core = |lockstep| {
            scalebench::metrics([1, 2, 5], [lockstep, 36e3, 32e3], 9, true, floor("scale"))
        };
        assert_failures("one core", &one_core(36e3), &baseline("scale"), &[]);
        let far_below = ["async_vs_lockstep_ratio 0.50 is below the 0.83 floor"];
        assert_failures(
            "one core, slow async",
            &one_core(72e3),
            &baseline("scale"),
            &far_below,
        );

        // Without counts from the counting allocator no allocation gate is
        // emitted, so a baseline without allocation keys passes.
        let uncounted = mutatebench::metrics(119, 5, [40e3, 90e3], [0.0, 0.0], floor("mutate"));
        let alloc_free = r#"{"classes_per_sec_cold": 25000.0, "classes_per_sec_scratch": 55000.0}"#;
        assert_failures("no allocation counts", &uncounted, alloc_free, &[]);

        let missing = [
            "baseline is missing \"classes_per_sec_cold\"",
            "baseline is missing \"classes_per_sec_scratch\"",
            "baseline is missing \"allocs_per_class_scratch\"",
        ];
        assert_failures("empty baseline", &report("mutate"), "{}", &missing);
    }

    #[test]
    fn interleaved_alternates_arms_and_takes_each_median() {
        let order = std::cell::RefCell::new(Vec::new());
        // Every other sample is a discarded warm-up of the same arm.
        let mut a = [0.0, 3.0, 0.0, 1.0, 0.0, 2.0].into_iter();
        let mut b = [0.0, 10.0, 0.0, 30.0, 0.0, 20.0].into_iter();
        let medians = interleaved(
            3,
            [
                &mut || {
                    order.borrow_mut().push('a');
                    a.next().unwrap()
                },
                &mut || {
                    order.borrow_mut().push('b');
                    b.next().unwrap()
                },
            ],
        );
        assert_eq!(medians, [2.0, 20.0]);
        let order = order.into_inner().into_iter().collect::<String>();
        assert_eq!(order, "aabbaabbaabb");
    }
}
