//! In-memory span recorder for the traced replay.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! library crates; nothing inside the program is instrumented. Each span
//! has a name, a start and an end (nanoseconds since the recorder was
//! created), and the index of the span that was open when it started.

use std::io::{self, Write};
use std::time::Instant;

/// The span names: one per layer boundary the replay crosses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// Seed-pool lowering and tracing, acceptance seeding.
    EngineSetup,
    /// One whole campaign replay; its self time is `core.engine_other_s`.
    Engine,
    /// Pool pick, mutator selection, `Mutator::apply`, `ensure_main`.
    Mutation,
    /// `lower_class_bytes`.
    Lower,
    /// `classfuzz_vm::preparse`.
    Preparse,
    /// `Jvm::run_traced_into_parsed` on the hotspot9 reference.
    RefStartup,
    /// Trace snapshot, fingerprint and the acceptance decision.
    Accept,
    /// One five-JVM evaluation batch.
    Evaluate,
    /// One `run_parsed(&preparse(bytes))` verdict inside an evaluation.
    Diff,
}

impl Name {
    /// Every name, in the order the trace file's header lists them.
    pub const ALL: [Name; 9] = [
        Name::EngineSetup,
        Name::Engine,
        Name::Mutation,
        Name::Lower,
        Name::Preparse,
        Name::RefStartup,
        Name::Accept,
        Name::Evaluate,
        Name::Diff,
    ];

    /// The layer-prefixed span name.
    pub fn label(self) -> &'static str {
        match self {
            Name::EngineSetup => "core.engine_setup",
            Name::Engine => "core.engine",
            Name::Mutation => "mutation.apply",
            Name::Lower => "jimple.lower",
            Name::Preparse => "vm.preparse",
            Name::RefStartup => "vm.ref_startup",
            Name::Accept => "coverage.accept",
            Name::Evaluate => "core.evaluate",
            Name::Diff => "core.diff",
        }
    }

    fn index(self) -> usize {
        Name::ALL
            .iter()
            .position(|&n| n == self)
            .expect("every name is listed in Name::ALL")
    }
}

/// Marks a span with no parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans into a growing vector. Spans nest strictly: `exit` must
/// close the most recently entered open span.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn enter(&mut self, name: Name) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span that has no children.
    pub fn leaf<T>(&mut self, name: Name, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let value = f();
        self.exit(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the durations of its
    /// direct children.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes the first `count` spans, one tab-separated line each:
    /// `id name start_ns end_ns parent` (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write, count: usize) -> io::Result<()> {
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent")?;
        for (id, span) in self.spans.iter().take(count).enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}",
                span.name.label(),
                span.start_ns,
                span.end_ns
            )?;
        }
        Ok(())
    }
}

/// Per-name totals of self time and call counts over the spans of one
/// root (a replay or an evaluation batch).
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    self_ns: [u64; Name::ALL.len()],
    calls: [u64; Name::ALL.len()],
}

impl LayerTotals {
    /// Sums the spans in `ids` (a root and all its descendants).
    pub fn over(tracer: &Tracer, self_ns: &[u64], ids: std::ops::Range<usize>) -> LayerTotals {
        let mut totals = LayerTotals::default();
        for id in ids {
            let i = tracer.spans[id].name.index();
            totals.self_ns[i] += self_ns[id];
            totals.calls[i] += 1;
        }
        totals
    }

    pub fn self_s(&self, name: Name) -> f64 {
        self.self_ns[name.index()] as f64 * 1e-9
    }

    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name.index()]
    }
}
