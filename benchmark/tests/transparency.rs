//! The traced wrapper must not change what the program does, and its spans
//! must add up to the traced wall time.
//!
//! Synthesis and MSI verification run on downsized twins of their workloads
//! (MSI-tiny, three caches); the zoo runs in full. Run with `--release` for
//! realistic timings; the assertions hold in either profile.

use verc3_benchmark::median;
use verc3_benchmark::trace::Counts;
use verc3_benchmark::workloads::{
    collect, gate_outcome, golden_resolver, run_unit, spec_path, synthesize, verify, Sample,
    Workload, ZOO,
};
use verc3_mck::NoHoles;
use verc3_protocols::msi::{MsiConfig, MsiModel};
use verc3_spec::ProtocolSpec;

/// Traced units per check. A timed call the host preempts is scaled up by
/// the sampling period, so additivity is judged on medians over several
/// units, as the benchmark reports them.
const UNITS: usize = 5;

/// Callback time fits inside the span it ran in (no negative self time),
/// and the set-up, synthesis and check spans cover the unit's wall time to
/// within 10 %. Returns the first unit's tallies.
fn assert_additive(samples: &[Sample]) -> Counts {
    let self_s = median(&samples.iter().map(Sample::self_s).collect::<Vec<_>>());
    assert!(
        self_s >= 0.0,
        "callbacks exceed their span by {:.6} s",
        -self_s
    );
    let unaccounted = median(&samples.iter().map(Sample::unaccounted).collect::<Vec<_>>());
    assert!(
        (0.0..=0.10).contains(&unaccounted),
        "unaccounted share {unaccounted:.4}"
    );
    samples[0]
        .probe
        .expect("a traced unit carries callback tallies")
}

/// Runs `unit` traced [`UNITS`] times.
fn traced<T>(unit: impl Fn() -> (Sample, T)) -> Vec<(Sample, T)> {
    (0..UNITS).map(|_| collect(true, &unit)).collect()
}

#[test]
fn traced_synthesis_matches_bare_on_msi_tiny() {
    let make = || MsiModel::new(MsiConfig::msi_tiny());
    let (bare_sample, bare) = collect(false, || synthesize(make, false));
    assert!(bare_sample.probe.is_none());
    assert!(!bare.solutions().is_empty());

    let runs = traced(|| synthesize(make, true));
    for (sample, report) in &runs {
        assert_eq!(bare_sample.counts, sample.counts);
        assert_eq!(bare.stats().generations, report.stats().generations);
        assert_eq!(bare.holes(), report.holes());
        assert_eq!(bare.solutions(), report.solutions());
    }
    let samples: Vec<Sample> = runs.into_iter().map(|(s, _)| s).collect();
    let probe = assert_additive(&samples);
    assert!(samples
        .iter()
        .all(|s| s.probe.map(|p| p.calls()) == Some(probe.calls())));
    assert!(probe.rule.calls > 0 && probe.rule.timed > 0);
    assert!(probe.rule_fired > 0 && probe.rule_fired < probe.rule.calls);
    assert!(probe.canonicalize.calls > 0 && probe.property.calls > 0);
    assert!(probe.choose_calls > 0, "the skeleton consults its holes");
}

#[test]
fn traced_verification_matches_bare_on_msi3_data() {
    let make = || {
        MsiModel::new(MsiConfig {
            data_values: true,
            ..MsiConfig::golden()
        })
    };
    let (bare_sample, bare) = collect(false, || verify(make, &NoHoles, false));
    let runs = traced(|| verify(make, &NoHoles, true));
    for (sample, out) in &runs {
        assert_eq!(bare.verdict(), out.verdict());
        assert_eq!(bare.stats(), out.stats());
        assert_eq!(bare_sample.counts, sample.counts);
    }
    let samples: Vec<Sample> = runs.into_iter().map(|(s, _)| s).collect();
    let probe = assert_additive(&samples);
    // Every explored successor is canonicalized, plus the initial state.
    assert_eq!(
        probe.canonicalize.calls,
        bare.stats().transitions as u64 + 1
    );
    assert_eq!(probe.choose_calls, 0, "the complete protocol has no holes");
}

#[test]
fn traced_zoo_matches_bare_spec_by_spec() {
    for stem in ZOO {
        let spec = ProtocolSpec::from_path(spec_path(stem)).expect("zoo spec loads");
        let golden = golden_resolver(&spec).expect("golden assignment fits");
        let (_, bare) = collect(false, || verify(|| spec.model(), &golden, false));
        let (_, out) = collect(true, || verify(|| spec.model(), &golden, true));
        assert_eq!(bare.verdict(), out.verdict(), "{stem}");
        assert_eq!(bare.stats(), out.stats(), "{stem}");
    }
}

#[test]
fn zoo_unit_passes_its_gate_traced_and_bare() {
    let bare = run_unit(Workload::SpecZoo, false);
    assert_eq!(bare.deviations, Vec::<String>::new());
    let samples: Vec<Sample> = (0..UNITS)
        .map(|_| run_unit(Workload::SpecZoo, true))
        .collect();
    for traced in &samples {
        assert_eq!(traced.deviations, Vec::<String>::new());
        assert_eq!(bare.counts, traced.counts);
        assert!(traced.load_s > 0.0 && traced.load_s <= traced.setup_s);
    }
    assert_additive(&samples);
}

#[test]
fn gate_reports_every_deviation() {
    let (_, out) = verify(|| MsiModel::new(MsiConfig::golden()), &NoHoles, false);
    let stats = out.stats().clone();
    let mut deviations = Vec::new();
    gate_outcome(
        "golden",
        &out,
        (
            Some("Success"),
            Some(stats.states_visited),
            Some(stats.transitions),
        ),
        &mut deviations,
    );
    assert!(deviations.is_empty(), "{deviations:?}");
    gate_outcome(
        "golden",
        &out,
        (Some("Failure"), Some(stats.states_visited + 1), Some(0)),
        &mut deviations,
    );
    assert_eq!(deviations.len(), 3, "{deviations:?}");
}
