//! The benchmark's workloads and the inputs each derives from its seeds.

use classfuzz_core::engine::{Algorithm, CampaignConfig};
use classfuzz_coverage::UniquenessCriterion;

/// Seeds per corpus, as in the paper's Table-4 set-up.
pub const SEED_COUNT: usize = 150;
/// Iterations per campaign: the Table-4 budget.
pub const ITERATIONS: usize = 3000;
/// The corpus seed unless `--corpus-seed` names another.
pub const DEFAULT_CORPUS_SEED: u64 = 2016;
/// First campaign RNG seed for `--seed 0`.
pub const DEFAULT_RNG_SEED: u64 = 13;
/// Distance between the RNG seeds of one pass's campaigns, large enough
/// that neighbouring `--seed` values share no campaign.
pub const RNG_STRIDE: u64 = 1_000_003;

/// The seeds a run's inputs are generated from.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    pub seed: u64,
    pub corpus_seed: u64,
}

impl Inputs {
    /// The RNG seed of the run's first campaign.
    pub fn rng_seed(&self) -> u64 {
        DEFAULT_RNG_SEED.wrapping_add(self.seed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential classfuzz[stbr], then five-JVM evaluation of TestClasses.
    Table4Stbr,
    /// Sequential randfuzz, then five-JVM evaluation of every GenClass.
    RandfuzzDifftest,
}

const ALL: [Workload; 2] = [Workload::Table4Stbr, Workload::RandfuzzDifftest];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table4Stbr => "table4-stbr",
            Workload::RandfuzzDifftest => "randfuzz-difftest",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn names() -> String {
        ALL.map(Workload::name).join(", ")
    }

    /// Whether the algorithm consults a uniqueness index.
    pub fn uses_index(self) -> bool {
        self != Workload::RandfuzzDifftest
    }

    /// Whether the five-JVM evaluation covers every generated class
    /// rather than only TestClasses.
    pub fn evaluates_all_generated(self) -> bool {
        self == Workload::RandfuzzDifftest
    }

    /// Campaigns per pass, each with its own RNG seed. The yield counts
    /// are means over one pass, and the timings and latency percentiles
    /// are taken over all of its campaigns, so more campaigns mean less
    /// dependence on one campaign's content. Randfuzz evaluates ten times
    /// as many classes per campaign as table4, which evaluates only
    /// TestClasses, so it needs half the campaigns.
    pub fn campaigns(self) -> u64 {
        match self {
            Workload::Table4Stbr => 32,
            Workload::RandfuzzDifftest => 16,
        }
    }

    /// One pass's campaign configurations.
    pub fn configs(self, inputs: &Inputs) -> Vec<CampaignConfig> {
        (0..self.campaigns())
            .map(|i| {
                let rng_seed = inputs.rng_seed().wrapping_add(i.wrapping_mul(RNG_STRIDE));
                let algorithm = match self {
                    Workload::Table4Stbr => Algorithm::Classfuzz(UniquenessCriterion::StBr),
                    Workload::RandfuzzDifftest => Algorithm::Randfuzz,
                };
                CampaignConfig::new(algorithm, ITERATIONS, rng_seed)
            })
            .collect()
    }
}
