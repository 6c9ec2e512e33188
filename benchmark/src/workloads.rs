//! The benchmark's workloads: one unit of work each, its set-up step, and
//! the golden gate every unit's output is diffed against.

use crate::trace::{self, Counts, Traced};
use std::path::PathBuf;
use std::time::Instant;
use verc3_core::{Enumeration, PatternMode, SynthOptions, SynthReport, Synthesizer};
use verc3_mck::{
    Checker, CheckerOptions, FixedResolver, HoleResolver, NoHoles, Outcome, SessionResolver,
    SharedResolver, TransitionSystem, Verdict,
};
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Pruned, refined, guided synthesis of MSI-large (Table I).
    SynthMsiLarge,
    /// Verification of the complete MSI protocol over four caches with data
    /// values.
    VerifyMsi4Data,
    /// Verification of every zoo spec under its golden assignment.
    SpecZoo,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SynthMsiLarge,
        Workload::VerifyMsi4Data,
        Workload::SpecZoo,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SynthMsiLarge => "synth_msi_large",
            Workload::VerifyMsi4Data => "verify_msi4_data",
            Workload::SpecZoo => "spec_zoo",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Golden `(evaluated, patterns, solutions)` of serial pruned MSI-large.
pub const MSI_LARGE_GOLDEN: (u64, usize, usize) = (1_057, 1_046, 8);

/// The display of every MSI-large solution, one per line, sorted.
pub const MSI_LARGE_SOLUTIONS: &str = include_str!("../goldens/msi_large_solutions.txt");

/// Golden `(verdict, states, transitions)` of the four-cache MSI with data.
pub const MSI4_DATA_GOLDEN: (Verdict, usize, usize) = (Verdict::Success, 82_089, 305_002);

/// The zoo specs, by file stem under the repository's `specs/` directory.
pub const ZOO: [&str; 5] = ["fig2", "msi_small", "german", "peterson", "bakery"];

/// The checker and synthesizer options every unit runs under: one thread.
pub fn checker() -> Checker {
    Checker::new(CheckerOptions::default().threads(1))
}

/// The MSI-large synthesizer: pruning, trace-refined patterns, guided
/// enumeration, sessions on, default chunking, one thread.
pub fn synthesizer() -> Synthesizer {
    Synthesizer::new(
        SynthOptions::default()
            .pruning(true)
            .pattern_mode(PatternMode::Refined)
            .enumeration(Enumeration::Guided)
            .reuse_sessions(true)
            .threads(1)
            .check_threads(1),
    )
}

/// The four-cache MSI with data values.
pub fn msi4_data() -> MsiConfig {
    MsiConfig {
        n_caches: 4,
        data_values: true,
        ..MsiConfig::golden()
    }
}

/// Path of a zoo spec.
pub fn spec_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../specs")
        .join(format!("{stem}.toml"))
}

/// What one unit of work measured and produced.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Time of the whole unit: set-up plus the run.
    pub wall_s: f64,
    /// The set-up part of the unit (includes `load_s`).
    pub setup_s: f64,
    /// Time inside `ProtocolSpec::from_path` (spec workloads only).
    pub load_s: f64,
    /// Time inside `Synthesizer::run` (synthesis workloads only).
    pub synth_s: f64,
    /// Time inside checker calls made by the benchmark itself.
    pub check_s: f64,
    /// Work counts the program reports, by per-layer metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Callback tallies (traced units only).
    pub probe: Option<Counts>,
    /// Differences from the goldens; empty when the output is correct.
    pub deviations: Vec<String>,
}

impl Sample {
    /// The work count recorded under `name` (0 when absent).
    pub fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, v)| v)
    }

    /// `wall_s` not covered by the set-up, synthesis and check spans, as a
    /// share of `wall_s`.
    pub fn unaccounted(&self) -> f64 {
        (self.wall_s - self.setup_s - self.synth_s - self.check_s) / self.wall_s
    }

    /// Time of the synthesis or check span the callbacks ran in, minus
    /// their estimated time.
    pub fn self_s(&self) -> f64 {
        self.synth_s + self.check_s - self.probe.map_or(0.0, |c| c.callback_s())
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Builds a workload's inputs the way a user would before the first state
/// is explored, and drops them afterwards. Returns the set-up time.
pub fn setup_once(workload: Workload) -> Result<f64, String> {
    fn timed<T>(build: impl FnOnce() -> Result<T, String>) -> Result<f64, String> {
        let start = Instant::now();
        let built = build()?;
        let t = secs(start);
        drop(built);
        Ok(t)
    }
    match workload {
        Workload::SynthMsiLarge => {
            timed(|| Ok((MsiModel::new(MsiConfig::msi_large()), synthesizer())))
        }
        Workload::VerifyMsi4Data => timed(|| Ok((MsiModel::new(msi4_data()), checker()))),
        Workload::SpecZoo => timed(|| {
            ZOO.iter()
                .map(|stem| {
                    let spec =
                        ProtocolSpec::from_path(spec_path(stem)).map_err(|e| e.to_string())?;
                    Ok((golden_resolver(&spec)?, spec.model(), spec, checker()))
                })
                .collect::<Result<Vec<_>, String>>()
        }),
    }
}

/// Runs one unit of `workload`, wrapping each model in [`Traced`] when
/// `traced` is set, and gates its output.
pub fn run_unit(workload: Workload, traced: bool) -> Sample {
    let unit = match workload {
        Workload::SynthMsiLarge => synth_msi_large,
        Workload::VerifyMsi4Data => verify_msi4_data,
        Workload::SpecZoo => spec_zoo,
    };
    collect(traced, || (unit(traced), ())).0
}

/// Runs `unit` and, when `traced` is set, stores the callback tallies it
/// caused in the returned sample.
pub fn collect<T>(traced: bool, unit: impl FnOnce() -> (Sample, T)) -> (Sample, T) {
    trace::take();
    let (mut sample, out) = unit();
    if traced {
        sample.probe = Some(trace::take());
    }
    (sample, out)
}

/// Builds a model with `make` and synthesizes it with [`synthesizer`],
/// timing the set-up and the run, through [`Traced`] when `traced` is set.
pub fn synthesize<M>(make: impl FnOnce() -> M, traced: bool) -> (Sample, SynthReport)
where
    M: TransitionSystem + 'static,
{
    fn go<M: TransitionSystem>(start: Instant, model: M, sample: &mut Sample) -> SynthReport {
        let synth = synthesizer();
        sample.setup_s = secs(start);
        let run = Instant::now();
        let report = synth.run(&model);
        sample.synth_s = secs(run);
        sample.wall_s = secs(start);
        report
    }
    let mut sample = Sample::default();
    let start = Instant::now();
    let model = make();
    let report = if traced {
        go(start, Traced::new(model), &mut sample)
    } else {
        go(start, model, &mut sample)
    };
    let stats = report.stats();
    sample.counts = vec![
        ("synth.evaluated", stats.evaluated as f64),
        ("synth.skipped", stats.skipped_by_pruning as f64),
        ("synth.probes", stats.probes as f64),
        ("synth.patterns_dense", stats.patterns_dense as f64),
        ("synth.patterns_sparse", stats.patterns_sparse as f64),
        ("synth.generations", stats.generations.len() as f64),
        ("synth.solutions", report.solutions().len() as f64),
        (
            "checker.states_expanded",
            stats.check_states_expanded as f64,
        ),
        ("checker.states_reused", stats.check_states_reused as f64),
    ];
    (sample, report)
}

/// Builds a model with `make` and checks it with [`checker`] in a fresh
/// session under `resolver`, timing the set-up and the check, through
/// [`Traced`] when `traced` is set.
pub fn verify<M>(
    make: impl FnOnce() -> M,
    resolver: &dyn SessionResolver,
    traced: bool,
) -> (Sample, Outcome<M::State>)
where
    M: TransitionSystem + 'static,
{
    fn go<M: TransitionSystem>(
        start: Instant,
        model: M,
        resolver: &dyn SessionResolver,
        sample: &mut Sample,
    ) -> Outcome<M::State> {
        let checker = checker();
        sample.setup_s = secs(start);
        let run = Instant::now();
        let out = checker.session(&model).check(resolver);
        sample.check_s = secs(run);
        sample.wall_s = secs(start);
        out
    }
    let mut sample = Sample::default();
    let start = Instant::now();
    let model = make();
    let out = if traced {
        go(start, Traced::new(model), resolver, &mut sample)
    } else {
        go(start, model, resolver, &mut sample)
    };
    let stats = out.stats();
    sample.counts = vec![
        ("checker.states", stats.states_visited as f64),
        ("checker.transitions", stats.transitions as f64),
        ("checker.peak_queue", stats.peak_queue as f64),
    ];
    (sample, out)
}

fn synth_msi_large(traced: bool) -> Sample {
    let (mut sample, report) = synthesize(|| MsiModel::new(MsiConfig::msi_large()), traced);
    let stats = report.stats();
    let got = (stats.evaluated, stats.patterns, report.solutions().len());
    if got != MSI_LARGE_GOLDEN {
        sample.deviations.push(format!(
            "evaluated/patterns/solutions {got:?} (golden {MSI_LARGE_GOLDEN:?})"
        ));
    }
    if report.is_resumable() {
        sample
            .deviations
            .push(format!("run stopped early: {}", report.stop_reason()));
    }
    let mut shown: Vec<String> = report
        .solutions()
        .iter()
        .map(|s| s.display_named(report.holes()))
        .collect();
    shown.sort();
    let golden: Vec<&str> = MSI_LARGE_SOLUTIONS.lines().collect();
    if shown != golden {
        sample
            .deviations
            .push(format!("solutions {shown:?} (golden {golden:?})"));
    }
    sample
}

/// Diffs a verification outcome against `(verdict, states, transitions)`;
/// `None` gates nothing.
pub fn gate_outcome<S>(
    label: &str,
    out: &Outcome<S>,
    want: (Option<&str>, Option<usize>, Option<usize>),
    deviations: &mut Vec<String>,
) {
    let stats = out.stats();
    let verdict = format!("{:?}", out.verdict());
    if want.0.is_some_and(|v| v != verdict) {
        deviations.push(format!("{label}: verdict {verdict} (golden {:?})", want.0));
    }
    if want.1.is_some_and(|v| v != stats.states_visited) {
        deviations.push(format!(
            "{label}: states {} (golden {:?})",
            stats.states_visited, want.1
        ));
    }
    if want.2.is_some_and(|v| v != stats.transitions) {
        deviations.push(format!(
            "{label}: transitions {} (golden {:?})",
            stats.transitions, want.2
        ));
    }
}

fn verify_msi4_data(traced: bool) -> Sample {
    let (mut sample, out) = verify(|| MsiModel::new(msi4_data()), &NoHoles, traced);
    let (verdict, states, transitions) = MSI4_DATA_GOLDEN;
    let verdict = format!("{verdict:?}");
    let want = (Some(verdict.as_str()), Some(states), Some(transitions));
    gate_outcome("msi4_data", &out, want, &mut sample.deviations);
    sample
}

/// A spec's `[golden.assignment]` as a session resolver: every worker
/// answers from the same fixed name → action map.
#[derive(Debug)]
pub struct GoldenResolver(FixedResolver);

impl SharedResolver for GoldenResolver {
    fn worker(&self) -> Box<dyn HoleResolver + '_> {
        Box::new(self.0.clone())
    }
}

impl SessionResolver for GoldenResolver {
    /// Each session serves exactly one check, so no checkpoint is ever
    /// validated against this answer.
    fn assignment(&self, _hole: usize) -> Option<u16> {
        None
    }
}

/// The resolver for a spec's committed golden assignment (answers nothing
/// for hole-free specs, which never consult it).
pub fn golden_resolver(spec: &ProtocolSpec) -> Result<GoldenResolver, String> {
    let mut fixed = FixedResolver::new();
    for (hole, action) in &spec.golden().assignment {
        let idx = spec
            .action_index(hole, action)
            .ok_or_else(|| format!("golden assignment {hole}@{action} is not in the hole space"))?;
        fixed.assign(hole.clone(), idx);
    }
    Ok(GoldenResolver(fixed))
}

fn spec_zoo(traced: bool) -> Sample {
    let mut zoo = Sample::default();
    let (mut states, mut transitions, mut peak_queue) = (0.0, 0.0, 0.0f64);
    let start = Instant::now();
    for stem in ZOO {
        let load = Instant::now();
        let loaded = ProtocolSpec::from_path(spec_path(stem)).map_err(|e| e.to_string());
        zoo.load_s += secs(load);
        let (golden, spec) = match loaded.and_then(|spec| Ok((golden_resolver(&spec)?, spec))) {
            Ok(loaded) => loaded,
            Err(e) => {
                zoo.deviations.push(format!("{stem}: {e}"));
                continue;
            }
        };
        zoo.setup_s += secs(load);
        let (sample, out) = verify(|| spec.model(), &golden, traced);
        zoo.setup_s += sample.setup_s;
        zoo.check_s += sample.check_s;

        let g = spec.golden();
        if g.verdict.is_none() || g.states.is_none() || g.transitions.is_none() {
            zoo.deviations
                .push(format!("{stem}: [golden] lacks verdict/states/transitions"));
        }
        let want = (g.verdict.as_deref(), g.states, g.transitions);
        gate_outcome(stem, &out, want, &mut zoo.deviations);
        states += sample.count("checker.states");
        transitions += sample.count("checker.transitions");
        peak_queue = peak_queue.max(sample.count("checker.peak_queue"));
    }
    zoo.wall_s = secs(start);
    zoo.counts = vec![
        ("checker.states", states),
        ("checker.transitions", transitions),
        ("checker.peak_queue", peak_queue),
    ];
    zoo
}
