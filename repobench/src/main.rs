//! The repository benchmark: classfuzz campaign throughput and five-JVM
//! differential-testing yield, end to end, plus a traced replay that says
//! which crate the time goes to.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload table4-stbr --seed 0 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` runs the workload through the public entry points only
//! (`run_campaign`, `DifferentialHarness::run`, `evaluate_suite`) and
//! reports the end-to-end metrics. `--trace 1` runs
//! the same campaigns untraced, replays each one stage by stage with a span
//! around every library call, checks that the replay reproduces the
//! campaign, and reports the per-layer metrics. The last line of standard
//! output is one JSON object; the lines before it are a readable report.
//!
//! Inputs come from the seeds alone. The seed corpus is fixed, as the
//! paper's JRE seed classes were: corpus seed 2016 unless `--corpus-seed`
//! names another. `--seed` picks the campaigns: campaign `k` of a run uses
//! RNG seed `13 + seed + k * 1000003`. `--seed 0` therefore starts with the
//! reference Table-4 measurement (corpus 2016, RNG 13).

mod histogram;
mod replay;
mod trace;
mod workload;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use classfuzz_core::analyze::evaluate_suite;
use classfuzz_core::diff::DifferentialHarness;
use classfuzz_core::engine::{run_campaign, CampaignConfig, CampaignResult};
use classfuzz_core::seeds::SeedCorpus;
use classfuzz_jimple::IrClass;
use classfuzz_vm::preparse;

use histogram::Histogram;
use trace::{LayerTotals, Name, Tracer};
use workload::{Inputs, Workload};

/// Set-up is measured this many times, each in a fresh process, besides
/// the run's own set-up, and the median reported: the shared bootstrap
/// library is built once per process, so only a fresh process pays the
/// whole set-up. A set-up takes a few milliseconds, so the fastest of them
/// is set by the rare moments the machine ran fast, and a few are slowed
/// several times over; the median of many is neither.
const SETUP_PROBES: usize = 32;

/// Every this-many-th evaluated class is also run through
/// `run_parsed(&preparse(bytes))` and the two verdicts compared.
const PARSED_CHECK_STRIDE: usize = 16;

struct Args {
    workload: Workload,
    inputs: Inputs,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed: u64 = 0;
    let mut corpus_seed = workload::DEFAULT_CORPUS_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut setup_probe = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad value for {flag}: {value} ({e})");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value}; one of {}", Workload::names())
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--corpus-seed" => corpus_seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload,
        inputs: Inputs { seed, corpus_seed },
        seconds,
        trace,
        setup_probe,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("repobench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.setup_probe {
        let setup = Setup::build(args.workload, &args.inputs);
        println!("{}", setup.elapsed.as_secs_f64());
        return ExitCode::SUCCESS;
    }
    let mut report = Report::default();
    let metrics = if args.trace {
        traced(&args, &mut report)
    } else {
        untraced(&args, &mut report)
    };
    for m in &metrics {
        report.check(m.value.is_finite(), || {
            format!("{} was not measured", m.name)
        });
    }
    print!("{}", report.text);
    for problem in &report.problems {
        eprintln!("repobench: CHECK FAILED: {problem}");
    }
    println!("{}", report.json(&metrics));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Correctness findings, operation counts and the readable report.
#[derive(Default)]
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    text: String,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    fn line(&mut self, line: impl AsRef<str>) {
        self.text.push_str(line.as_ref());
        self.text.push('\n');
    }

    fn json(&self, metrics: &[Metric]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // A value that was not measured is a reported problem; JSON has
            // no NaN, so it is printed as 0.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The corpus, the harness, and the workload's campaign configurations.
struct Setup {
    seeds: Vec<IrClass>,
    harness: DifferentialHarness,
    configs: Vec<CampaignConfig>,
    elapsed: Duration,
}

impl Setup {
    /// Generates the corpus, builds the five-JVM harness (and with it the
    /// shared bootstrap libraries), and runs a zero-iteration campaign of
    /// the workload's first configuration — the seed pool's lowering and
    /// tracing.
    fn build(workload: Workload, inputs: &Inputs) -> Setup {
        let start = Instant::now();
        let seeds = SeedCorpus::generate(workload::SEED_COUNT, inputs.corpus_seed).into_classes();
        let harness = DifferentialHarness::paper_five();
        let configs = workload.configs(inputs);
        let mut empty = configs[0].clone();
        empty.iterations = 0;
        std::hint::black_box(run_campaign(&seeds, &empty));
        Setup {
            seeds,
            harness,
            configs,
            elapsed: start.elapsed(),
        }
    }
}

/// Runs the set-up once in a fresh process and returns its time in
/// seconds; a failed probe is recorded as a problem.
fn probe_setup(args: &Args, report: &mut Report) -> Option<f64> {
    let probe = probe_setup_process(args);
    if let Err(e) = &probe {
        report.problems.push(e.clone());
    }
    probe.ok()
}

fn probe_setup_process(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--setup-probe", "--workload", args.workload.name()])
        .args(["--corpus-seed", &args.inputs.corpus_seed.to_string()])
        .args(["--seed", &args.inputs.seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start the set-up probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up probe exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    stdout
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("set-up probe printed {stdout:?}: {e}"))
}

/// What the benchmark compares between two runs of the same campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CampaignDigest {
    gen_bytes: u64,
    generated: usize,
    test_classes: Vec<usize>,
}

impl CampaignDigest {
    fn of(result: &CampaignResult) -> CampaignDigest {
        CampaignDigest {
            gen_bytes: digest(result.gen_classes.iter().map(|g| g.bytes.as_slice())),
            generated: result.gen_classes.len(),
            test_classes: result.test_classes.clone(),
        }
    }

    fn of_replay(replay: &replay::Replay) -> CampaignDigest {
        CampaignDigest {
            gen_bytes: digest(replay.gen_bytes.iter().map(|b| b.as_slice())),
            generated: replay.gen_bytes.len(),
            test_classes: replay.test_classes.clone(),
        }
    }
}

/// FNV-1a over each class's length and bytes, in order.
fn digest<'a>(classes: impl Iterator<Item = &'a [u8]>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for class in classes {
        for b in (class.len() as u64).to_le_bytes() {
            eat(b);
        }
        for &b in class {
            eat(b);
        }
    }
    h
}

/// Checks that apply to every campaign result.
fn check_campaign(report: &mut Report, result: &CampaignResult, uses_index: bool) {
    let executed: usize = result.shard_stats.iter().map(|s| s.iterations).sum();
    report.check(executed == result.iterations, || {
        format!(
            "campaign ran {executed} of its {} iterations",
            result.iterations
        )
    });
    report.check(
        result
            .test_classes
            .iter()
            .all(|&i| i < result.gen_classes.len()),
        || "a TestClasses index is out of range".to_string(),
    );
    report.check(
        result
            .test_classes
            .iter()
            .all(|&i| result.gen_classes[i].accepted),
        || "a TestClasses entry is not marked accepted".to_string(),
    );
    if uses_index {
        report.check(
            result.acceptance.accepted == result.test_classes.len() as u64,
            || {
                format!(
                    "acceptance telemetry counts {} acceptances, TestClasses has {}",
                    result.acceptance.accepted,
                    result.test_classes.len()
                )
            },
        );
    }
}

/// The five-JVM evaluation of one batch of classes.
struct Evaluation {
    wall: Duration,
    classes: usize,
    discrepancy_keys: BTreeSet<String>,
    discrepancies: usize,
    crashed: usize,
}

/// Runs every class through `DifferentialHarness::run`, timing each call
/// into `latencies`, then checks a sample of verdicts against
/// `run_parsed(&preparse(bytes))`.
fn evaluate(
    harness: &DifferentialHarness,
    classes: &[&[u8]],
    latencies: &mut Histogram,
    report: &mut Report,
) -> Evaluation {
    let mut eval = Evaluation {
        wall: Duration::ZERO,
        classes: classes.len(),
        discrepancy_keys: BTreeSet::new(),
        discrepancies: 0,
        crashed: 0,
    };
    let mut sampled = Vec::new();
    let start = Instant::now();
    for (i, bytes) in classes.iter().enumerate() {
        let t = Instant::now();
        let vector = harness.run(bytes);
        latencies.record(t.elapsed().as_nanos() as u64);
        if vector.is_discrepancy() {
            eval.discrepancies += 1;
            eval.discrepancy_keys.insert(vector.key());
        }
        eval.crashed += usize::from(vector.has_crash());
        if i % PARSED_CHECK_STRIDE == 0 {
            sampled.push((i, vector));
        }
    }
    eval.wall = start.elapsed();
    for (i, vector) in sampled {
        let parsed = harness.run_parsed(&preparse(classes[i]));
        report.check(parsed == vector, || {
            format!("class {i}: run gives {vector}, run_parsed gives {parsed}")
        });
    }
    eval
}

/// The classes a workload evaluates on five JVMs: TestClasses, or every
/// generated class for the randfuzz workload.
fn evaluated_classes<'a>(
    workload: Workload,
    gen: &[&'a [u8]],
    test_classes: &[usize],
) -> Vec<&'a [u8]> {
    if workload.evaluates_all_generated() {
        gen.to_vec()
    } else {
        test_classes.iter().map(|&i| gen[i]).collect()
    }
}

/// What the timed passes add up to. Pass 0 warms the caches and runs the
/// checks that need a campaign's first result; every later pass is timed.
///
/// On a shared 2-core machine a core switches between fast and slow
/// states for seconds at a time, independent of this program, so the
/// timings cover every timed pass: a fastest-pass rule picks a pass by
/// where the machine's fast spells fell, and a single pass's tail is set by
/// the few calls the machine interrupted.
#[derive(Default)]
struct Timed {
    passes: usize,
    iterations: usize,
    campaign_s: f64,
    classes: usize,
    eval_s: f64,
}

/// The end-to-end run: public entry points only, no spans.
fn untraced(args: &Args, report: &mut Report) -> Vec<Metric> {
    let workload = args.workload;
    let setup = Setup::build(workload, &args.inputs);
    let configs = setup.configs.len();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);

    let mut timed = Timed::default();
    let mut latencies = Histogram::new();
    let mut warm_up = Histogram::new();
    let mut first_pass: Vec<CampaignDigest> = Vec::with_capacity(configs);
    let mut setup_samples = vec![Some(setup.elapsed.as_secs_f64())];
    // Yield counts come from the first pass alone, so they are a function
    // of the inputs, not of how many passes fit in the run.
    let mut yields: Vec<(usize, usize)> = Vec::with_capacity(configs);
    for k in 0.. {
        let (pass, i) = (k / configs, k % configs);
        if i == 0 && pass > 1 && Instant::now() >= deadline {
            break;
        }
        // The set-up probes are spread over the run rather than bunched,
        // so they do not all land in one slow spell of the machine.
        while setup_samples.len() <= SETUP_PROBES
            && start.elapsed().as_secs_f64()
                >= args.seconds * (setup_samples.len() - 1) as f64 / SETUP_PROBES as f64
        {
            setup_samples.push(probe_setup(args, report));
        }
        let config = &setup.configs[i];
        let campaign_start = Instant::now();
        let result = run_campaign(&setup.seeds, config);
        let campaign_s = campaign_start.elapsed().as_secs_f64();
        check_campaign(report, &result, workload.uses_index());
        report.attempted += result.iterations as u64;
        report.failed += result.crashes.len() as u64;

        let gen: Vec<&[u8]> = result
            .gen_classes
            .iter()
            .map(|g| g.bytes.as_slice())
            .collect();
        let classes = evaluated_classes(workload, &gen, &result.test_classes);
        let eval = evaluate(
            &setup.harness,
            &classes,
            if pass == 0 {
                &mut warm_up
            } else {
                &mut latencies
            },
            report,
        );
        report.attempted += eval.classes as u64;
        report.failed += eval.crashed as u64;

        let digest = CampaignDigest::of(&result);
        if pass == 0 {
            yields.push((result.test_classes.len(), eval.discrepancy_keys.len()));
            let owned: Vec<Vec<u8>> = classes.iter().map(|c| c.to_vec()).collect();
            let suite = evaluate_suite(&setup.harness, &owned);
            report.check(
                suite.discrepancies == eval.discrepancies
                    && suite.distinct.keys().eq(eval.discrepancy_keys.iter()),
                || format!("campaign {i}: evaluate_suite disagrees with per-class verdicts"),
            );
            first_pass.push(digest);
        } else {
            report.check(first_pass[i] == digest, || {
                format!("campaign {i}: pass {pass} differs from pass 0")
            });
            timed.passes = pass;
            timed.iterations += result.iterations;
            timed.campaign_s += campaign_s;
            timed.classes += eval.classes;
            timed.eval_s += eval.wall.as_secs_f64();
        }
    }
    while setup_samples.len() <= SETUP_PROBES {
        setup_samples.push(probe_setup(args, report));
    }
    let setup_samples: Vec<f64> = setup_samples.into_iter().flatten().collect();

    let iterations: usize = setup.configs.iter().map(|c| c.iterations).sum();
    let yield_tests: usize = yields.iter().map(|y| y.0).sum();
    let yield_distinct: usize = yields.iter().map(|y| y.1).sum();
    let metrics = vec![
        metric(
            "campaign_iters_per_s",
            timed.iterations as f64 / timed.campaign_s,
            "1/s",
        ),
        metric(
            "difftest_classes_per_s",
            timed.classes as f64 / timed.eval_s,
            "1/s",
        ),
        metric("verdict_p50_us", latencies.quantile_ns(0.50) * 1e-3, "us"),
        metric("verdict_p99_us", latencies.quantile_ns(0.99) * 1e-3, "us"),
        metric(
            "success_rate",
            yield_tests as f64 / iterations as f64,
            "ratio",
        ),
        metric(
            "distinct_discrepancies",
            yield_distinct as f64 / configs as f64,
            "count",
        ),
        metric("setup_s", median(&setup_samples), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ];
    report.line(format!(
        "workload {}: corpus seed {}, campaign RNG seeds {} + k * {} for k < {configs}; \
         {:.1} s; timed passes over the campaigns after a warm-up pass: {}",
        workload.name(),
        args.inputs.corpus_seed,
        args.inputs.rng_seed(),
        workload::RNG_STRIDE,
        start.elapsed().as_secs_f64(),
        timed.passes,
    ));
    let samples = [
        format!(
            "{} campaign runs, {} iterations",
            timed.passes * configs,
            timed.iterations
        ),
        format!(
            "{} evaluations, {} classes",
            timed.passes * configs,
            timed.classes
        ),
        format!("{} calls", latencies.len()),
        format!("{} calls", latencies.len()),
        format!("{configs} campaigns"),
        format!("{configs} campaigns"),
        format!("median of {} set-ups", setup_samples.len()),
        "1 process".to_string(),
    ];
    for (m, n) in metrics.iter().zip(samples) {
        report.line(format!(
            "  {:<24} {:>14.6} {:<6} ({n})",
            m.name, m.value, m.unit
        ));
    }
    // Per campaign, so that a change of output on the same seed shows even
    // where the means over campaigns move little.
    let per_campaign: Vec<String> = yields.iter().map(|(t, d)| format!("{t}/{d}")).collect();
    report.line(format!(
        "  yield per campaign (TestClasses/distinct keys): {}",
        per_campaign.join(" ")
    ));
    report.line(format!(
        "  {:<24} {:>14.6} {:<6} ({} failed of {} attempted)",
        "failure_share",
        report.failed as f64 / report.attempted.max(1) as f64,
        "ratio",
        report.failed,
        report.attempted
    ));
    metrics
}

/// Span ids of one traced campaign replay and its evaluation, plus the
/// counts the per-layer ratios need.
struct TracedRun {
    config: usize,
    setup_span: usize,
    engine_spans: std::ops::Range<usize>,
    eval_spans: std::ops::Range<usize>,
    untraced_s: f64,
    generated: u64,
    gen_bytes_total: u64,
    tests: u64,
    fingerprint_fast_path: u64,
    word_compare_fallbacks: u64,
    ref_crashes: u64,
    evaluated: u64,
    discrepancies: u64,
}

/// The per-layer run: each campaign runs once untraced through
/// `run_campaign`, then is replayed stage by stage with spans and compared
/// with that run; the replay's classes are then evaluated under spans.
fn traced(args: &Args, report: &mut Report) -> Vec<Metric> {
    let workload = args.workload;
    let setup = Setup::build(workload, &args.inputs);
    let mut tracer = Tracer::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let configs = setup.configs.len();
    let mut runs: Vec<TracedRun> = Vec::new();
    // Only the first pass's spans are written out; every span feeds the
    // metrics.
    let mut first_pass_spans = 0;
    for k in 0.. {
        let (pass, i) = (k / configs, k % configs);
        if pass > 0 && Instant::now() >= deadline {
            break;
        }
        if pass == 1 && i == 0 {
            first_pass_spans = tracer.spans().len();
        }
        let config = &setup.configs[i];
        let start = Instant::now();
        let result = run_campaign(&setup.seeds, config);
        let untraced_s = start.elapsed().as_secs_f64();
        check_campaign(report, &result, workload.uses_index());

        let setup_span = tracer.spans().len();
        let replay = replay::replay_campaign(&setup.seeds, config, &mut tracer);
        let engine_spans = setup_span + 1..tracer.spans().len();
        let expected = CampaignDigest::of(&result);
        let got = CampaignDigest::of_replay(&replay);
        report.check(got == expected, || {
            format!(
                "campaign {i}: traced replay differs from run_campaign \
                 (generated {} vs {}, digest {:x} vs {:x}, tests {} vs {})",
                got.generated,
                expected.generated,
                got.gen_bytes,
                expected.gen_bytes,
                got.test_classes.len(),
                expected.test_classes.len()
            )
        });
        report.attempted += config.iterations as u64;
        report.failed += replay.crashes;

        let gen: Vec<&[u8]> = replay.gen_bytes.iter().map(|b| b.as_slice()).collect();
        let classes = evaluated_classes(workload, &gen, &replay.test_classes);
        let eval_start = tracer.spans().len();
        let root = tracer.enter(Name::Evaluate);
        let (mut discrepancies, mut crashed) = (0u64, 0u64);
        for bytes in &classes {
            let vector = tracer.leaf(Name::Diff, || setup.harness.run_parsed(&preparse(bytes)));
            discrepancies += u64::from(vector.is_discrepancy());
            crashed += u64::from(vector.has_crash());
        }
        tracer.exit(root);
        report.attempted += classes.len() as u64;
        report.failed += crashed;

        runs.push(TracedRun {
            config: i,
            setup_span,
            engine_spans,
            eval_spans: eval_start..tracer.spans().len(),
            untraced_s,
            generated: replay.gen_bytes.len() as u64,
            gen_bytes_total: replay.gen_bytes.iter().map(|b| b.len() as u64).sum(),
            tests: replay.test_classes.len() as u64,
            fingerprint_fast_path: replay.fingerprint_fast_path,
            word_compare_fallbacks: replay.word_compare_fallbacks,
            ref_crashes: replay.ref_crashes,
            evaluated: classes.len() as u64,
            discrepancies,
        });
    }
    if first_pass_spans == 0 {
        first_pass_spans = tracer.spans().len();
    }
    let self_ns = tracer.self_times_ns();
    let spans = tracer.spans();
    let loop_totals: Vec<LayerTotals> = runs
        .iter()
        .map(|r| LayerTotals::over(&tracer, &self_ns, r.engine_spans.clone()))
        .collect();
    let eval_totals: Vec<LayerTotals> = runs
        .iter()
        .map(|r| LayerTotals::over(&tracer, &self_ns, r.eval_spans.clone()))
        .collect();
    let secs = |id: usize| spans[id].duration_ns() as f64 * 1e-9;
    // Per-campaign value of a per-run quantity: the median over passes of
    // each configuration, averaged over the configurations.
    let per_campaign = |value: &dyn Fn(usize) -> f64| -> f64 {
        let total: f64 = (0..configs)
            .map(|c| {
                let values: Vec<f64> = (0..runs.len())
                    .filter(|&k| runs[k].config == c)
                    .map(value)
                    .collect();
                median(&values)
            })
            .sum();
        total / configs as f64
    };
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let layer_s = |name: Name| per_campaign(&|k| loop_totals[k].self_s(name));
    let layer_calls = |name: Name| per_campaign(&|k| loop_totals[k].calls(name) as f64);
    let loop_s = per_campaign(&|k| secs(runs[k].engine_spans.start));

    let metrics = vec![
        metric("mutation.apply_s", layer_s(Name::Mutation), "s"),
        metric("mutation.calls", layer_calls(Name::Mutation), "count"),
        metric(
            "mutation.applied_ratio",
            per_campaign(&|k| ratio(runs[k].generated, loop_totals[k].calls(Name::Mutation))),
            "ratio",
        ),
        metric("jimple.lower_s", layer_s(Name::Lower), "s"),
        metric(
            "jimple.bytes_per_class",
            per_campaign(&|k| ratio(runs[k].gen_bytes_total, runs[k].generated)),
            "B",
        ),
        metric("vm.preparse_s", layer_s(Name::Preparse), "s"),
        metric("vm.preparse.calls", layer_calls(Name::Preparse), "count"),
        metric("vm.ref_startup_s", layer_s(Name::RefStartup), "s"),
        metric(
            "vm.ref_startup.calls",
            layer_calls(Name::RefStartup),
            "count",
        ),
        metric(
            "vm.ref_crashes",
            per_campaign(&|k| runs[k].ref_crashes as f64),
            "count",
        ),
        metric("coverage.accept_s", layer_s(Name::Accept), "s"),
        metric(
            "coverage.accept_ratio",
            per_campaign(&|k| ratio(runs[k].tests, runs[k].generated)),
            "ratio",
        ),
        metric(
            "coverage.fp_fast_path_rate",
            per_campaign(&|k| {
                let r = &runs[k];
                ratio(
                    r.fingerprint_fast_path,
                    r.fingerprint_fast_path + r.word_compare_fallbacks,
                )
            }),
            "ratio",
        ),
        metric(
            "core.diff_s",
            per_campaign(&|k| eval_totals[k].self_s(Name::Diff)),
            "s",
        ),
        metric(
            "core.diff.calls",
            per_campaign(&|k| eval_totals[k].calls(Name::Diff) as f64),
            "count",
        ),
        metric(
            "core.discrepancy_ratio",
            per_campaign(&|k| ratio(runs[k].discrepancies, runs[k].evaluated)),
            "ratio",
        ),
        metric("core.engine_other_s", layer_s(Name::Engine), "s"),
        metric("core.engine_loop_s", loop_s, "s"),
        metric(
            "core.engine_setup_s",
            per_campaign(&|k| secs(runs[k].setup_span)),
            "s",
        ),
        metric(
            "trace.attributed_share",
            per_campaign(&|k| {
                1.0 - loop_totals[k].self_s(Name::Engine) / secs(runs[k].engine_spans.start)
            }),
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            per_campaign(&|k| {
                (secs(runs[k].setup_span) + secs(runs[k].engine_spans.start)) / runs[k].untraced_s
            }),
            "ratio",
        ),
    ];

    report.line(format!(
        "workload {}: corpus seed {}, campaign RNG seeds {} + k * {} for k < {configs}; \
         traced {} campaign replays, {} spans; values are per campaign \
         (median over a campaign's replays, mean over campaigns)",
        workload.name(),
        args.inputs.corpus_seed,
        args.inputs.rng_seed(),
        workload::RNG_STRIDE,
        runs.len(),
        spans.len()
    ));
    for m in &metrics {
        report.line(format!("  {:<28} {:>14.6} {}", m.name, m.value, m.unit));
    }
    report.line("  share of the campaign loop's wall time:");
    for name in [
        Name::Mutation,
        Name::Lower,
        Name::Preparse,
        Name::RefStartup,
        Name::Accept,
        Name::Engine,
    ] {
        report.line(format!(
            "    {:<20} {:>6.1}%",
            name.label(),
            100.0 * layer_s(name) / loop_s
        ));
    }
    write_spans(&tracer, first_pass_spans, args);
    metrics
}

/// Writes the first `count` spans under `repobench/out/`; a failure to
/// write is reported, not fatal.
fn write_spans(tracer: &Tracer, count: usize, args: &Args) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-c{}-r{}.spans.tsv",
        args.workload.name(),
        args.inputs.corpus_seed,
        args.inputs.rng_seed()
    ));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_tsv(&mut out, count)?;
        std::io::Write::flush(&mut out)
    };
    match write() {
        Ok(()) => eprintln!("repobench: spans written to {}", path.display()),
        Err(e) => eprintln!("repobench: cannot write {}: {e}", path.display()),
    }
}

/// Linear-interpolation median; NaN for no samples.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = 0.5 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}
