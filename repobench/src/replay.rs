//! Stage-by-stage replay of a sequential campaign through the library
//! crates' public functions, with a span around every call.
//!
//! The replay follows `classfuzz_core::run_campaign` step for step — the
//! same RNG draws in the same order, the same pool, the same acceptance
//! index — for the configurations the workloads use (uniform seed
//! selection, no pool cap, no crash corpus, no injected panics). The
//! benchmark checks that the replay produces the same generated classes and
//! the same TestClasses as `run_campaign`; if it did not, the per-layer
//! figures would describe a different program.

use std::sync::Arc;

use classfuzz_core::engine::{Algorithm, CampaignConfig, SeedSelect};
use classfuzz_coverage::{SuiteIndex, TraceFile, UniquenessCriterion};
use classfuzz_jimple::lower::{lower_class_bytes, LowerScratch};
use classfuzz_jimple::IrClass;
use classfuzz_mcmc::{MutatorChain, UniformSelector};
use classfuzz_mutation::{registry, MutationCtx, Mutator};
use classfuzz_vm::{preparse, run_contained, Jvm, VmSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::trace::{Name, Tracer};

/// What a replay produced, in the form the equivalence check compares.
pub struct Replay {
    pub gen_bytes: Vec<Vec<u8>>,
    pub test_classes: Vec<usize>,
    /// Contained mutator panics plus reference-VM crash verdicts.
    pub crashes: u64,
    /// Reference-VM crash verdicts alone.
    pub ref_crashes: u64,
    pub fingerprint_fast_path: u64,
    pub word_compare_fallbacks: u64,
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
}

/// Replays `run_campaign(seeds, config)` under `tracer`: one
/// `core.engine_setup` root for the seed pool, then one `core.engine` root
/// whose children are the per-iteration stage spans.
pub fn replay_campaign(seeds: &[IrClass], config: &CampaignConfig, tracer: &mut Tracer) -> Replay {
    assert!(
        config.seed_select == SeedSelect::Uniform
            && config.pool_cap.is_none()
            && config.crash_dir.is_none()
            && !config.inject_panic_mutator
            && !config.exec_diff,
        "the replay covers the benchmark's campaign configurations only"
    );
    let setup = tracer.enter(Name::EngineSetup);
    let mutators: Vec<Mutator> = registry::all_mutators();
    let mut rng = StdRng::seed_from_u64(config.rng_seed);
    let reference = Jvm::new(VmSpec::hotspot9());
    let mut selector = match config.algorithm {
        Algorithm::Classfuzz(_) => Selector::Chain(MutatorChain::new(mutators.len(), config.p)),
        _ => Selector::Uniform(UniformSelector::new(mutators.len())),
    };
    let mut index = match config.algorithm {
        Algorithm::Classfuzz(criterion) => Some(SuiteIndex::new(criterion)),
        Algorithm::Uniquefuzz => Some(SuiteIndex::new(UniquenessCriterion::StBr)),
        Algorithm::Randfuzz => None,
        Algorithm::Greedyfuzz => panic!("no workload runs greedyfuzz"),
    };
    let mut scratch = TraceFile::new();
    let mut lower = LowerScratch::new();
    // The mutation pool: seeds, then accepted mutants. Seeds are lowered
    // (and traced into the index) exactly as the engine's seed pool is.
    let mut pool: Vec<Arc<IrClass>> = seeds
        .iter()
        .map(|seed| {
            let bytes = lower_class_bytes(seed, &mut lower);
            if let Some(index) = index.as_mut() {
                reference.run_traced_into(&bytes, &mut scratch);
                index.insert(&scratch.snapshot());
            }
            Arc::new(seed.clone())
        })
        .collect();
    tracer.exit(setup);

    let mut out = Replay {
        gen_bytes: Vec::new(),
        test_classes: Vec::new(),
        crashes: 0,
        ref_crashes: 0,
        fingerprint_fast_path: 0,
        word_compare_fallbacks: 0,
    };
    let engine = tracer.enter(Name::Engine);
    for _ in 0..config.iterations {
        if pool.is_empty() {
            break;
        }
        let mutation = tracer.enter(Name::Mutation);
        let pick = rng.gen_range(0..pool.len());
        let mutator_id = selector.select(&mut rng);
        let mut mutant = IrClass::clone(&pool[pick]);
        let applied = run_contained(|| {
            let mut ctx = MutationCtx::new(&mut rng, seeds);
            mutators[mutator_id].apply(&mut mutant, &mut ctx)
        });
        match applied {
            Err(_) => {
                tracer.exit(mutation);
                out.crashes += 1;
                continue;
            }
            Ok(Err(_)) => {
                tracer.exit(mutation);
                continue;
            }
            Ok(Ok(())) => {}
        }
        mutant.ensure_main("Completed!");
        tracer.exit(mutation);

        let bytes = tracer.leaf(Name::Lower, || lower_class_bytes(&mutant, &mut lower));
        let accepted = match index.as_mut() {
            Some(index) => {
                let parsed = tracer.leaf(Name::Preparse, || preparse(&bytes));
                let result = tracer.leaf(Name::RefStartup, || {
                    reference.run_traced_into_parsed(&parsed, &mut scratch)
                });
                if result.outcome.crash_detail().is_some() {
                    out.crashes += 1;
                    out.ref_crashes += 1;
                }
                tracer.leaf(Name::Accept, || {
                    let trace = scratch.snapshot();
                    let fp = scratch.fingerprint();
                    index.insert_if_unique_with_fingerprint(&trace, fp)
                })
            }
            None => true,
        };
        if accepted {
            out.test_classes.push(out.gen_bytes.len());
            pool.push(Arc::new(mutant));
            selector.record_success(mutator_id);
        }
        out.gen_bytes.push(bytes);
    }
    tracer.exit(engine);
    if let Some(index) = &index {
        let counters = index.counters();
        out.fingerprint_fast_path = counters.fingerprint_fast_path;
        out.word_compare_fallbacks = counters.word_compare_fallbacks;
    }
    out
}
