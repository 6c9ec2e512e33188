//! The protocol zoo: every spec in `specs/` must load, verify to its
//! committed golden verdict and state/transition counts, and — where the
//! spec commits synthesis goldens — reproduce them. Plus structured
//! rejection tests: malformed specs fail with `InvalidSpec`, never a panic.

use std::collections::BTreeMap;
use std::path::PathBuf;

use verc3::mck::{Checker, CheckerOptions, FixedResolver, Verdict};
use verc3::spec::{InvalidSpec, ProtocolSpec};
use verc3::synth::{PatternMode, SynthOptions, Synthesizer};

fn zoo_paths() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("specs/ directory exists")
        .map(|e| e.expect("readable dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "the zoo holds at least five protocols");
    paths
}

fn golden_resolver(spec: &ProtocolSpec) -> FixedResolver {
    let mut r = FixedResolver::new();
    for (hole, action) in &spec.golden().assignment {
        let idx = spec
            .action_index(hole, action)
            .unwrap_or_else(|| panic!("golden assignment {hole}@{action} not in hole space"));
        r.assign(hole.clone(), idx);
    }
    r
}

/// Every committed spec loads, and verification with the golden assignment
/// reproduces the committed verdict and counts exactly — on the reference
/// serial driver and on the parallel session engine alike.
#[test]
fn zoo_specs_verify_to_their_goldens() {
    for path in zoo_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = ProtocolSpec::from_path(&path)
            .unwrap_or_else(|e| panic!("{name}: failed to load: {e}"));
        let golden = spec.golden();
        assert!(
            golden.gates_verification(),
            "{name}: zoo specs must commit a verification golden"
        );

        let mut resolver = golden_resolver(&spec);
        let model = spec.model();
        // `clamp_threads(false)`: the parallel leg must stay multi-threaded
        // even on single-core runners.
        let runs = [
            (
                "reference",
                Checker::new(CheckerOptions::default()).run_with(&model, &mut resolver),
            ),
            (
                "4 threads",
                Checker::new(CheckerOptions::default().threads(4).clamp_threads(false))
                    .run_shared(&model, &resolver),
            ),
        ];
        for (driver, out) in runs {
            println!(
                "{name} ({driver}): verdict={:?} states={} transitions={}",
                out.verdict(),
                out.stats().states_visited,
                out.stats().transitions
            );

            let expected = match golden.verdict.as_deref() {
                Some("Success") => Verdict::Success,
                Some("Failure") => Verdict::Failure,
                other => panic!("{name}: unsupported golden verdict {other:?}"),
            };
            assert_eq!(
                out.verdict(),
                expected,
                "{name} ({driver}): verdict ({})",
                out.failure().map(|f| f.to_string()).unwrap_or_default()
            );
            if let Some(states) = golden.states {
                assert_eq!(
                    out.stats().states_visited,
                    states,
                    "{name} ({driver}): states"
                );
            }
            if let Some(transitions) = golden.transitions {
                assert_eq!(
                    out.stats().transitions,
                    transitions,
                    "{name} ({driver}): transitions"
                );
            }
        }
    }
}

/// Specs that commit synthesis goldens reproduce them. The MSI port is
/// excluded in debug builds (unoptimized full synthesis is too slow; the
/// release-mode differential suite covers it).
#[test]
fn zoo_specs_reproduce_their_synthesis_goldens() {
    for path in zoo_paths() {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let spec = ProtocolSpec::from_path(&path)
            .unwrap_or_else(|e| panic!("{name}: failed to load: {e}"));
        let golden = spec.golden();
        if !golden.gates_synthesis() {
            continue;
        }
        if cfg!(debug_assertions) && name.starts_with("msi") {
            continue;
        }

        let mut opts = SynthOptions::default();
        if golden.synth_refined {
            opts = opts.pattern_mode(PatternMode::Refined);
        }
        let report = Synthesizer::new(opts).run(&spec.model());
        println!(
            "{name}: synth evaluated={} patterns={} solutions={}",
            report.stats().evaluated,
            report.stats().patterns,
            report.solutions().len()
        );
        if let Some(evaluated) = golden.synth_evaluated {
            assert_eq!(report.stats().evaluated, evaluated, "{name}: evaluated");
        }
        if let Some(patterns) = golden.synth_patterns {
            assert_eq!(report.stats().patterns as u64, patterns, "{name}: patterns");
        }
        if let Some(solutions) = golden.synth_solutions {
            assert_eq!(report.solutions().len(), solutions, "{name}: solutions");
        }

        // The committed assignment is among the solutions.
        if !golden.assignment.is_empty() {
            let assignment: BTreeMap<&str, usize> = golden
                .assignment
                .iter()
                .map(|(h, a)| (h.as_str(), spec.action_index(h, a).unwrap()))
                .collect();
            let found = report.solutions().iter().any(|sol| {
                assignment.iter().all(|(hole, idx)| {
                    report
                        .holes()
                        .iter()
                        .position(|h| h.name == **hole)
                        .map(|slot| sol.action_for(slot) == Some(*idx as u16))
                        .unwrap_or(false)
                })
            });
            assert!(found, "{name}: golden assignment must be a solution");
        }
    }
}

// --- Malformed specs are rejected with structured errors, never panics ----

fn load(src: &str) -> Result<ProtocolSpec, InvalidSpec> {
    ProtocolSpec::from_toml_str(src)
}

const MINIMAL_HEAD: &str = r#"
[protocol]
name = "broken"
pids = 2
symmetry = false

[vars]
x = "int"
"#;

const MINIMAL_PROPERTY: &str = r#"
[[property]]
kind = "invariant"
name = "trivial"
expr = "x == 0 || x != 0"
"#;

#[test]
fn unknown_variable_is_rejected() {
    let src = format!(
        "{MINIMAL_HEAD}
[[rule]]
name = \"r\"
body = \"require y == 0;\"
{MINIMAL_PROPERTY}"
    );
    let err = load(&src).expect_err("unknown variable must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("y"),
        "error names the unknown identifier: {msg}"
    );
}

#[test]
fn unknown_record_field_is_rejected() {
    let src = r#"
[protocol]
name = "broken"
pids = 2
symmetry = false

[records.R]
fields = ["a: int"]

[vars]
r = "R"

[[rule]]
name = "r"
body = "require r.b == 0;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "r.a == 0 || r.a != 0"
"#;
    let err = load(src).expect_err("unknown field must be rejected");
    assert!(
        err.to_string().contains("b"),
        "error names the field: {err}"
    );
}

#[test]
fn duplicate_hole_name_is_rejected() {
    let src = format!(
        "{MINIMAL_HEAD}
[libs]
l = [\"a\", \"b\"]

[[hole]]
name = \"h\"
lib = \"l\"

[[hole]]
name = \"h\"
lib = \"l\"

[[rule]]
name = \"r\"
body = \"require x == 0;\"
{MINIMAL_PROPERTY}"
    );
    let err = load(&src).expect_err("duplicate hole must be rejected");
    assert!(err.to_string().contains("h"), "error names the hole: {err}");
}

#[test]
fn symmetry_without_pid_indexed_first_variable_is_rejected() {
    let src = r#"
[protocol]
name = "broken"
pids = 2
symmetry = true

[vars]
x = "int"

[[rule]]
name = "r"
body = "require x == 0;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "x == 0 || x != 0"
"#;
    let err = load(src).expect_err("non-equivariant state must be rejected");
    let msg = err.to_string();
    assert!(
        msg.contains("symmetry") || msg.contains("array"),
        "error explains the equivariance requirement: {msg}"
    );
}

#[test]
fn unknown_type_is_rejected() {
    let src = r#"
[protocol]
name = "broken"
pids = 2
symmetry = false

[vars]
x = "Widget"

[[rule]]
name = "r"
body = "require true;"

[[property]]
kind = "invariant"
name = "trivial"
expr = "true"
"#;
    let err = load(src).expect_err("unknown type must be rejected");
    assert!(
        err.to_string().contains("Widget"),
        "error names the type: {err}"
    );
}

#[test]
fn unknown_hole_reference_is_rejected() {
    let src = format!(
        "{MINIMAL_HEAD}
[[rule]]
name = \"r\"
body = \"\"\"
require x == 0;
choose a = hole(\"ghost\");
x = a;
\"\"\"
{MINIMAL_PROPERTY}"
    );
    let err = load(&src).expect_err("undeclared hole must be rejected");
    assert!(
        err.to_string().contains("ghost"),
        "error names the hole: {err}"
    );
}
