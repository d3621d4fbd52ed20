//! The `startup` bench-gate scenario: measures the analyze-once
//! verification layer against the cold analyze-per-profile baseline.
//!
//! Methodology (see EXPERIMENTS.md, "Startup-throughput benchmark"):
//!
//! * the workload is one candidate classfile the way a differential
//!   harness consumes it — preparsed once, then started on all five
//!   profiles — with [`METHODS`] verification-heavy worker methods whose
//!   bodies are runs of `getstatic`/`pop` over fat array descriptors, so
//!   per-method *analysis* (constant-pool member resolution, descriptor
//!   parsing, type interning) dominates the per-profile dataflow pass;
//! * the shared arm uses [`Jvm::new`]: the first eager profile fills the
//!   class's [`AnalysisTable`] and the remaining profiles consume it. The
//!   cold arm uses [`Jvm::cold_verify`]: same shared bootstrap library,
//!   but every profile re-derives every method's analysis — exactly the
//!   pre-PR-10 behavior, with library caching deliberately left on so the
//!   gap isolates what analysis sharing alone buys;
//! * every throughput number is the median over `repeats` interleaved
//!   timings;
//! * the floor that holds on any machine is `shared_speedup` — shared
//!   over cold five-profile startups/sec.
//!
//! [`AnalysisTable`]: classfuzz_vm::AnalysisTable

use classfuzz_classfile::{ClassFile, CodeAttribute, Instruction, MethodAccess, Opcode};
use classfuzz_vm::{preparse, Jvm, VmSpec};

use crate::gate::{interleaved, per_sec, Better, Gate, Metric};

/// Worker methods in the benchmark class: each is analyzed once on the
/// shared path and once *per eager profile* on the cold path.
pub const METHODS: usize = 24;

/// Five-profile startups per timing sample: keeps a sample well above
/// clock resolution while the scenario stays CI-sized.
const STARTS: usize = 60;

/// `getstatic`/`pop` pairs per worker method: the bulk of the per-method
/// analysis work (one member-ref resolution plus one fat-descriptor parse
/// per pair).
const PAIRS: usize = 40;

/// The fat field descriptors the workers cycle through — deep array types
/// so every `getstatic` analysis pays a multi-dimension descriptor parse
/// and an interner probe over a long key. The depth is pure analysis
/// cost: the dataflow pass only clones the interned `Arc` either way.
const DESCS: [&str; 4] = [
    "[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/String;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Object;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/Integer;",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[Ljava/lang/StringBuilder;",
];

/// Assembles the benchmark class: a `main` that returns immediately plus
/// [`METHODS`] worker methods of [`PAIRS`] `getstatic`/`pop` pairs over
/// the fat descriptors — never executed, but verified by every eager
/// profile, so their analysis cost is the whole story.
pub fn bench_class() -> Vec<u8> {
    let mut builder = ClassFile::builder("bench/Startup").super_class("java/lang/Object");
    let refs: Vec<_> = {
        let cp = builder.constant_pool_mut();
        DESCS
            .iter()
            .enumerate()
            .map(|(j, desc)| cp.field_ref("bench/Startup", &format!("f{j}"), desc))
            .collect()
    };
    for i in 0..METHODS {
        let mut insns = Vec::with_capacity(2 * PAIRS + 1);
        for p in 0..PAIRS {
            insns.push(Instruction::Field(
                Opcode::Getstatic,
                refs[(i + p) % refs.len()],
            ));
            insns.push(Instruction::Simple(Opcode::Pop));
        }
        insns.push(Instruction::Simple(Opcode::Return));
        builder = builder.method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            &format!("w{i}"),
            "()V",
            CodeAttribute {
                max_stack: 1,
                max_locals: 0,
                instructions: insns,
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        );
    }
    builder
        .method(
            MethodAccess::PUBLIC | MethodAccess::STATIC,
            "main",
            "([Ljava/lang/String;)V",
            CodeAttribute {
                max_stack: 0,
                max_locals: 1,
                instructions: vec![Instruction::Simple(Opcode::Return)],
                exception_table: Vec::new(),
                attributes: Vec::new(),
            },
        )
        .build()
        .to_bytes()
}

/// One harness-shaped evaluation: preparse the candidate once, then start
/// it on all five profiles. The fresh preparse per call is deliberate —
/// campaign engines see each candidate's bytes exactly once, so the
/// shared arm's analysis win is per-candidate, not amortized across the
/// whole run.
fn run_once(bytes: &[u8], cold: bool) {
    let parsed = preparse(bytes);
    for spec in VmSpec::all_five() {
        let jvm = if cold {
            Jvm::cold_verify(spec)
        } else {
            Jvm::new(spec)
        };
        let result = jvm.run_parsed(&parsed);
        assert_eq!(
            result.outcome.phase().code(),
            0,
            "bench class must start cleanly"
        );
    }
}

/// Runs the startup scenario.
pub fn run(repeats: usize, floor: f64) -> Vec<Metric> {
    starts_metrics(STARTS, repeats, floor)
}

/// Runs the scenario with `starts` five-profile startups per sample.
fn starts_metrics(starts: usize, repeats: usize, floor: f64) -> Vec<Metric> {
    let bytes = bench_class();
    // One warmup evaluation per arm so neither pays one-time library
    // initialization inside the timed region.
    run_once(&bytes, true);
    run_once(&bytes, false);

    let bytes = &bytes;
    let arm = |cold: bool| {
        per_sec(starts, move || {
            for _ in 0..starts {
                run_once(std::hint::black_box(bytes), cold);
            }
        })
    };
    let rates = interleaved(repeats, [&mut arm(true), &mut arm(false)]);
    metrics(starts, repeats, rates, floor)
}

/// The startup report: startups/sec are `[cold, shared]` — cold
/// per-profile analysis ([`Jvm::cold_verify`], the pre-PR-10 behavior)
/// against the shared per-class analysis table ([`Jvm::new`], the
/// production configuration).
pub(crate) fn metrics(
    starts: usize,
    repeats: usize,
    [cold, shared]: [f64; 2],
    floor: f64,
) -> Vec<Metric> {
    vec![
        Metric::count("methods", METHODS),
        Metric::count("pairs", PAIRS),
        Metric::count("starts", starts),
        Metric::count("repeats", repeats),
        Metric::new("startups_per_sec_cold", 1, cold),
        Metric::new("startups_per_sec_shared", 1, shared).gate(Gate::Regression(Better::Higher)),
        Metric::new("shared_speedup", 2, shared / cold.max(1e-9)).gate(Gate::Floor(floor)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{json_number, render};
    use classfuzz_vm::{ExecOutcome, Outcome};

    #[test]
    fn bench_class_starts_cleanly_on_both_arms() {
        let bytes = bench_class();
        let parsed = preparse(&bytes);
        for spec in VmSpec::all_five() {
            let name = spec.name.clone();
            let shared = Jvm::new(spec.clone()).run_traced_parsed(&parsed);
            let cold = Jvm::cold_verify(spec).run_traced_parsed(&parsed);
            assert_eq!(
                ExecOutcome::of(&shared.outcome),
                ExecOutcome::Completed { stdout: vec![] },
                "bench class on {name}: {:?}",
                shared.outcome
            );
            assert_eq!(shared, cold, "shared vs cold diverged on {name}");
        }
    }

    #[test]
    fn small_startup_report_is_consistent() {
        let metrics = starts_metrics(3, 1, 0.0);
        assert!(metrics.iter().all(|m| m.value > 0.0), "{metrics:?}");
        assert_eq!(
            json_number(&render(&metrics), "methods"),
            Some(METHODS as f64)
        );
    }

    #[test]
    fn shared_table_fills_once_across_profiles() {
        let parsed = preparse(&bench_class());
        let class = parsed.class().expect("bench class parses");
        assert_eq!(class.analysis.len(), METHODS + 1);
        Jvm::new(VmSpec::hotspot9()).run_parsed(&parsed);
        let filled = format!("{}", class.analysis);
        assert!(
            filled.contains(&format!("{}/{}", METHODS + 1, METHODS + 1)),
            "one eager startup analyzes every method: {filled}"
        );
        // A second profile reuses the same table (same Arc'd slots).
        let again = Jvm::new(VmSpec::gij()).run_parsed(&parsed);
        assert!(matches!(again.outcome, Outcome::Invoked { .. }));
    }
}
