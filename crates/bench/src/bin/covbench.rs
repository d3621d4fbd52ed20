//! Bench-gate binary: runs one scenario of the gate table
//! (`classfuzz_bench::gate::SCENARIOS`, which also documents what each
//! scenario measures), writes its JSON report, and — when given a
//! committed baseline — exits nonzero when any gate fails. Driven by
//! `scripts/bench_gate.sh`, mirrored by the CI `bench-gates` matrix.
//!
//! ```text
//! covbench [--scenario NAME] [--out PATH | --no-out] [--baseline PATH] [--repeats N]
//! ```
//!
//! `NAME` defaults to `coverage`; the report defaults to
//! `BENCH_<NAME>.json`. Every floor and the regression budget come from
//! the scenario table.

use std::process::ExitCode;

use classfuzz_bench::alloc_count::CountingAllocator;
use classfuzz_bench::gate::{self, Scenario, BUDGET};

/// The mutate scenario's allocation counts come from here; registered only
/// in this binary so library tests stay on the plain system allocator.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

struct Options {
    scenario: &'static Scenario,
    out: Option<String>,
    baseline: Option<String>,
    repeats: usize,
}

fn parse_args() -> Result<Options, String> {
    let mut scenario = "coverage".to_string();
    let mut out = None;
    let mut baseline = None;
    let mut repeats = 5;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--scenario" => scenario = value("--scenario")?,
            "--out" => out = Some(value("--out")?),
            "--no-out" => out = Some(String::new()),
            "--baseline" => baseline = Some(value("--baseline")?),
            "--repeats" => {
                repeats = value("--repeats")?
                    .parse()
                    .map_err(|e| format!("--repeats: {e}"))?
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if repeats == 0 {
        return Err("--repeats must be >= 1".to_string());
    }
    let scenario = gate::scenario(&scenario).ok_or_else(|| {
        let names: Vec<&str> = gate::SCENARIOS.iter().map(|s| s.name).collect();
        format!("unknown scenario {scenario} (one of {})", names.join(", "))
    })?;
    let out = match out {
        Some(path) if path.is_empty() => None,
        Some(path) => Some(path),
        None => Some(format!("BENCH_{}.json", scenario.name)),
    };
    Ok(Options {
        scenario,
        out,
        baseline,
        repeats,
    })
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            eprintln!("covbench: {message}");
            return ExitCode::FAILURE;
        }
    };

    let baseline_json = match &options.baseline {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("covbench: cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };

    let Scenario { name, floor, run } = *options.scenario;
    eprintln!("covbench: scenario={name} repeats={} ...", options.repeats);
    let metrics = run(options.repeats, floor);
    let json = gate::render(&metrics);
    print!("{json}");

    if let Some(path) = &options.out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("covbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("covbench: wrote {path}");
    }

    if let (Some(path), Some(baseline_json)) = (&options.baseline, &baseline_json) {
        let failures = gate::check(&metrics, baseline_json);
        if !failures.is_empty() {
            for failure in &failures {
                eprintln!("covbench: GATE FAIL: {failure}");
            }
            return ExitCode::FAILURE;
        }
        eprintln!("covbench: gate passed against {path} (budget {BUDGET:.2}x)");
    }
    ExitCode::SUCCESS
}
