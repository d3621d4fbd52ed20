//! The decode-free reference run (DESIGN.md §18) against the decode it
//! replaces.
//!
//! * For every registered mutator — the 129 classfile mutators and the 8
//!   execution mutators — over a generated seed corpus: wherever the writer
//!   calls an encoding exact, decoding the bytes gives back the lowered
//!   `ClassFile`; and the class summarized straight from the lowered
//!   `ClassFile` yields the same reference outcome and trace fingerprint,
//!   and the same five-profile `OutcomeVector`, as `preparse(&bytes)`. The
//!   pool is recycled between lowerings as in the engine, and the bytes
//!   stay those of the cold `lower_class(..).to_bytes()`.
//! * One hand-built class per lossy step of the writer: the check says
//!   "not exact", the bytes really do decode to something else, and the
//!   fallback's verdict — `ClassFormatError` text included — is
//!   `preparse(&bytes)`'s.

use classfuzz::classfile::{Attribute, ClassFile, Constant, Encoded, FieldAccess, MethodAccess};
use classfuzz::core::diff::DifferentialHarness;
use classfuzz::core::seeds::SeedCorpus;
use classfuzz::coverage::TraceFile;
use classfuzz::jimple::lower::{lower_class, lower_class_encoded, LowerScratch};
use classfuzz::jimple::{
    Body, CatchClause, Const, Expr, IrClass, IrField, IrMethod, JType, Label, Stmt, Target, Value,
};
use classfuzz::mutation::{registry, MutationCtx};
use classfuzz::vm::{preparse, preparse_encoded, Jvm, Outcome, PreparsedClass, VmSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The reference outcome and trace fingerprint of one traced run.
fn traced(jvm: &Jvm, parsed: &PreparsedClass) -> (Outcome, u64) {
    let mut scratch = TraceFile::new();
    let result = jvm.run_traced_into_parsed(parsed, &mut scratch);
    (result.outcome, scratch.fingerprint())
}

/// Asserts that the decode-free verdict of `encoded` is the decode's, on
/// the traced reference and on all five profiles; returns the decode-free
/// class.
fn assert_same_verdicts(
    encoded: Encoded,
    jvm: &Jvm,
    harness: &DifferentialHarness,
    what: &str,
) -> PreparsedClass {
    let decoded = preparse(&encoded.bytes);
    let (_, direct) = preparse_encoded(encoded);
    assert_eq!(
        traced(jvm, &direct),
        traced(jvm, &decoded),
        "{what}: reference outcome or trace diverged"
    );
    assert_eq!(
        harness.run_parsed(&direct),
        harness.run_parsed(&decoded),
        "{what}: five-profile outcomes diverged"
    );
    direct
}

#[test]
fn every_mutator_gives_the_decode_verdict_without_decoding() {
    let jvm = Jvm::new(VmSpec::hotspot9());
    let harness = DifferentialHarness::paper_five();
    let mut mutators = registry::all_mutators();
    mutators.extend(registry::exec_mutators(mutators.len()));
    assert_eq!(mutators.len(), 129 + 8);
    let mut scratch = LowerScratch::new();
    let (mut mutants, mut exact) = (0usize, 0usize);
    for corpus_seed in [3u64, 17] {
        let seeds = SeedCorpus::generate(6, corpus_seed).into_classes();
        let mut rng = StdRng::seed_from_u64(corpus_seed);
        for mutator in &mutators {
            for seed in &seeds {
                let mut mutant = IrClass::clone(seed);
                let mut ctx = MutationCtx::new(&mut rng, &seeds);
                if mutator.apply(&mut mutant, &mut ctx).is_err() {
                    continue;
                }
                mutant.ensure_main("Completed!");
                let what = format!("mutator {} on {}", mutator.id, mutant.name);
                let encoded = lower_class_encoded(&mutant, &mut scratch);
                assert_eq!(encoded.bytes, lower_class(&mutant).to_bytes(), "{what}");
                mutants += 1;
                if encoded.exact {
                    exact += 1;
                    assert_eq!(
                        ClassFile::from_bytes(&encoded.bytes).as_ref(),
                        Ok(&encoded.class),
                        "{what}: an exact encoding decoded to another class"
                    );
                }
                // As the engine does, the class's pool goes back to the
                // scratch once no run holds the class.
                let direct = assert_same_verdicts(encoded, &jvm, &harness, &what);
                let cf = direct
                    .into_classfile()
                    .expect("the runs released the class");
                scratch.recycle(cf.constant_pool);
            }
        }
    }
    // The check is conservative, not vacuous: ordinary mutants never take
    // the fallback.
    assert!(mutants > 500, "only {mutants} mutants generated");
    assert_eq!(exact, mutants, "ordinary mutants fell back to decoding");
}

/// Checks one lossy class: the writer must refuse to vouch for it, its
/// bytes must in fact decode to a different class, and the verdict must be
/// the decode's.
fn assert_falls_back(encoded: Encoded, what: &str) -> Outcome {
    assert!(
        !encoded.exact,
        "{what}: the check called a lossy encoding exact"
    );
    assert_ne!(
        ClassFile::from_bytes(&encoded.bytes).as_ref(),
        Ok(&encoded.class),
        "{what}: the encoding was not lossy after all"
    );
    let jvm = Jvm::new(VmSpec::hotspot9());
    // Vouching for the encoding anyway, so the lowered class is summarized
    // without a decode, would have skewed the verdict or the trace: the
    // fallback is what keeps them the decode's.
    let vouched = Encoded {
        exact: true,
        ..encoded.clone()
    };
    let skipped = traced(&jvm, &preparse_encoded(vouched).1);
    let decoded = traced(&jvm, &preparse(&encoded.bytes));
    assert_ne!(
        skipped, decoded,
        "{what}: the decode changed neither verdict nor trace"
    );
    assert_same_verdicts(encoded, &jvm, &DifferentialHarness::paper_five(), what);
    decoded.0
}

fn assert_class_format_error(outcome: &Outcome, what: &str) {
    match outcome {
        Outcome::Rejected { error, .. } => assert_eq!(
            error.kind.to_string(),
            "java.lang.ClassFormatError",
            "{what}: {outcome:?}"
        ),
        other => panic!("{what}: expected a ClassFormatError, got {other:?}"),
    }
}

/// `main` plus one more static method with the given body.
fn class_with_body(name: &str, body: Body) -> IrClass {
    let mut class = IrClass::with_hello_main(name, "Completed!");
    class.methods.push(IrMethod {
        body: Some(body),
        ..IrMethod::abstract_method(MethodAccess::STATIC, "m", Vec::new(), None)
    });
    class
}

#[test]
fn full_pool_names_an_attribute_null_and_falls_back() {
    let mut cf = lower_class(&IrClass::with_hello_main("lossy/FullPool", "Completed!"));
    // Fill every remaining slot, so the writer's interning of "Code" for
    // main's body degrades to the null index #0.
    let mut n = 0u32;
    while cf
        .constant_pool
        .try_push(Constant::Utf8(format!("filler{n}")))
        .is_ok()
    {
        n += 1;
    }
    let encoded = cf.encode(&mut Vec::new());
    // The premise: main still has its Code attribute, but the pool holds
    // no "Code" name for the writer to point it at.
    let main = encoded
        .class
        .methods
        .iter()
        .find(|m| encoded.class.constant_pool.utf8_text(m.name) == Some("main"))
        .expect("main survives the write");
    assert!(main
        .attributes
        .iter()
        .any(|a| matches!(a, Attribute::Code(_))));
    assert!(!encoded
        .class
        .constant_pool
        .iter()
        .any(|(_, c)| matches!(c, Constant::Utf8(text) if text == "Code")));
    let outcome = assert_falls_back(encoded, "full pool");
    assert_class_format_error(&outcome, "full pool");
}

#[test]
fn more_than_65535_methods_fall_back() {
    let mut class = IrClass::with_hello_main("lossy/Methods", "Completed!");
    for _ in 0..=u16::MAX as usize {
        class.methods.push(IrMethod::abstract_method(
            MethodAccess::PUBLIC | MethodAccess::ABSTRACT,
            "m",
            Vec::new(),
            None,
        ));
    }
    let encoded = lower_class_encoded(&class, &mut LowerScratch::new());
    let outcome = assert_falls_back(encoded, "65,537 methods");
    assert_class_format_error(&outcome, "65,537 methods");
}

#[test]
fn more_than_65535_exception_table_entries_fall_back() {
    let mut body = Body::new();
    let (start, end, handler) = (Label(0), Label(1), Label(2));
    body.stmts.extend([
        Stmt::Label(start),
        Stmt::Nop,
        Stmt::Label(end),
        Stmt::Return(None),
        Stmt::Label(handler),
        Stmt::Return(None),
    ]);
    body.catches = vec![
        CatchClause {
            start,
            end,
            handler,
            exception: Some("java/lang/Exception".into()),
        };
        u16::MAX as usize + 1
    ];
    let class = class_with_body("lossy/Handlers", body);
    let encoded = lower_class_encoded(&class, &mut LowerScratch::new());
    // The truncated count (0) drops every handler and the decoder reads
    // the table as the Code attribute's own attribute list; the class still
    // runs, so only the trace tells the two apart.
    let outcome = assert_falls_back(encoded, "65,536 handlers");
    assert!(matches!(outcome, Outcome::Invoked { .. }), "{outcome:?}");
}

#[test]
fn utf8_entry_over_65535_mutf8_bytes_falls_back() {
    // 40,000 NULs are 40,000 bytes of Rust text but 80,000 bytes of
    // modified UTF-8 (each NUL is C0 80): the check must count the latter.
    let mut class = IrClass::with_hello_main("lossy/LongUtf8", "Completed!");
    class.fields.push(IrField {
        access: FieldAccess::STATIC | FieldAccess::FINAL,
        name: "S".into(),
        ty: JType::string(),
        constant_value: Some(Const::Str("\0".repeat(40_000))),
    });
    let encoded = lower_class_encoded(&class, &mut LowerScratch::new());
    let outcome = assert_falls_back(encoded, "80,000-byte Utf8");
    assert_class_format_error(&outcome, "80,000-byte Utf8");
}

#[test]
fn goto_over_a_body_larger_than_32_kib_falls_back() {
    let mut body = Body::new();
    let local = body.declare("i0", JType::Int);
    let end = Label(0);
    body.stmts.push(Stmt::Goto(end));
    // `sipush 1000; istore_0` is 4 bytes: 10,000 of them put the label
    // ~40 KiB past the goto, outside its signed 16-bit offset.
    for _ in 0..10_000 {
        body.stmts.push(Stmt::Assign {
            target: Target::Local(local.clone()),
            value: Expr::Use(Value::int(1000)),
        });
    }
    body.stmts.push(Stmt::Label(end));
    body.stmts.push(Stmt::Return(None));
    let class = class_with_body("lossy/FarGoto", body);
    let encoded = lower_class_encoded(&class, &mut LowerScratch::new());
    let outcome = assert_falls_back(encoded, "goto over 40 KiB");
    assert_class_format_error(&outcome, "goto over 40 KiB");
}
