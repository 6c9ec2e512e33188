//! Runs one workload for a fixed time and prints its metrics.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <synth_msi_large|verify_msi4_data|spec_zoo> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it holds
//! the host diagnostics. `--trace 0` reports the end-to-end metrics,
//! `--trace 1` the per-layer ones.

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};
use verc3_benchmark::host::{self, Calibration};
use verc3_benchmark::trace;
use verc3_benchmark::workloads::{run_unit, setup_once, Sample, Workload};
use verc3_benchmark::{median, quantile};

/// Rounds after which the peak resident set is read. Allocator
/// fragmentation lets `VmHWM` creep up over hundreds of units, so reading it
/// after a fixed amount of work keeps it independent of how many units the
/// host's speed allowed in the measured window.
const RSS_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let traced = match number("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?,
        traced,
    })
}

/// Runs one unit, turning a panic into a failed sample.
fn guarded(workload: Workload, traced: bool) -> Sample {
    let start = Instant::now();
    catch_unwind(AssertUnwindSafe(|| run_unit(workload, traced))).unwrap_or_else(|_| Sample {
        wall_s: start.elapsed().as_secs_f64(),
        deviations: vec!["unit panicked".to_owned()],
        ..Sample::default()
    })
}

struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push('}');
        out
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let workload = args.workload;

    // The protocols are fixed inputs (the paper's and the zoo's); the seed
    // drives the calibration kernel's access pattern.
    let mut calibration = Calibration::new(args.seed);
    trace::clock_overhead_ns();
    let (load_start, steal_start) = (host::loadavg(), host::steal_ticks());

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut record = |sample: &Sample| {
        attempted += 1;
        if !sample.deviations.is_empty() {
            failed += 1;
            eprintln!("{}: {}", workload.name(), sample.deviations.join("; "));
        }
    };

    // Warm-up: gated like every unit, not timed. It also sizes the set-up
    // batch so that set-up samples take about 2 % of the run.
    let warm = guarded(workload, false);
    record(&warm);
    let setup_reps = (0.02 * warm.wall_s / warm.setup_s.max(1e-6)).clamp(3.0, 64.0) as usize;

    let mut plain: Vec<Sample> = Vec::new();
    let mut traced: Vec<Sample> = Vec::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut setup_errors = 0u64;
    let mut peak_rss_mb = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    for round in 0.. {
        // The traced pass alternates traced and untraced units, swapping
        // which goes first each round, so the overhead ratio compares units
        // run under the same host conditions and cache history.
        let modes: &[bool] = match (args.traced, round % 2) {
            (false, _) => &[false],
            (true, 0) => &[false, true],
            (true, _) => &[true, false],
        };
        for &mode in modes {
            let sample = guarded(workload, mode);
            record(&sample);
            if mode { &mut traced } else { &mut plain }.push(sample);
        }
        for _ in 0..setup_reps {
            match setup_once(workload) {
                Ok(t) => setups.push(t),
                Err(e) => {
                    setup_errors += 1;
                    eprintln!("{}: set-up failed: {e}", workload.name());
                }
            }
        }
        calibration.run();
        if round + 1 == RSS_ROUNDS {
            peak_rss_mb = host::peak_rss_mb();
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    attempted += setup_errors;
    failed += setup_errors;

    let plain_wall: Vec<f64> = plain.iter().map(|s| s.wall_s).collect();
    let mut metrics = Metrics(Vec::new());
    if args.traced {
        failed += per_layer(&plain, &traced, &mut metrics);
    } else {
        metrics.push("wall_s", median(&plain_wall), "s");
        metrics.push("setup_s", median(&setups), "s");
        let peak_rss_mb = peak_rss_mb.or_else(host::peak_rss_mb);
        metrics.push("peak_rss_mb", peak_rss_mb.unwrap_or(0.0), "MiB");
    }

    let spread = |v: &[f64]| (quantile(v, 0.75) - quantile(v, 0.25)) / median(v);
    let opt = |v: Option<f64>| v.map_or("null".to_owned(), |v| v.to_string());
    println!(
        "{{\"host\": {{\"workload\": \"{}\", \"units\": {}, \"traced_units\": {}, \
         \"setup_samples\": {}, \"wall_iqr_share\": {}, \"setup_iqr_share\": {}, \
         \"loadavg_start\": {}, \"loadavg_end\": {}, \"steal_ticks\": {}, \
         \"calib_alu_ms\": {}, \"calib_alu_iqr_share\": {}, \
         \"calib_mem_ms\": {}, \"calib_mem_iqr_share\": {}, \"clock_ns\": {}}}}}",
        workload.name(),
        plain.len(),
        traced.len(),
        setups.len(),
        spread(&plain_wall),
        spread(&setups),
        opt(load_start),
        opt(host::loadavg()),
        opt(steal_start
            .zip(host::steal_ticks())
            .map(|(a, b)| b.saturating_sub(a) as f64)),
        median(&calibration.alu_ms),
        spread(&calibration.alu_ms),
        median(&calibration.mem_ms),
        spread(&calibration.mem_ms),
        trace::clock_overhead_ns(),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics.to_json()
    );
}

/// Fills the per-layer metrics from the traced units; returns how many
/// units disagree with the first unit's work counts (each is a failure:
/// the wrapper must not change what the program does).
fn per_layer(plain: &[Sample], traced: &[Sample], m: &mut Metrics) -> u64 {
    let Some(first) = traced.first() else {
        return 1;
    };
    let probe = first.probe.unwrap_or_default();
    let mut mismatches = 0;
    for s in plain.iter().chain(traced) {
        if s.counts != first.counts {
            mismatches += 1;
            eprintln!("work counts differ: {:?} vs {:?}", s.counts, first.counts);
        }
    }
    for s in traced {
        if s.probe.unwrap_or_default().calls() != probe.calls() {
            mismatches += 1;
            eprintln!("callback counts differ between traced units");
        }
    }

    let med = |f: &dyn Fn(&Sample) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let count = |name: &str| first.count(name);
    let est = |f: fn(&trace::Counts) -> f64| med(&|s: &Sample| f(&s.probe.unwrap_or_default()));

    m.push("synth.run_s", med(&|s| s.synth_s), "s");
    let self_s = med(&Sample::self_s);
    let in_synth = first.synth_s > 0.0;
    m.push("synth.self_s", if in_synth { self_s } else { 0.0 }, "s");
    for name in [
        "synth.evaluated",
        "synth.skipped",
        "synth.probes",
        "synth.patterns_dense",
        "synth.patterns_sparse",
        "synth.generations",
        "synth.solutions",
        "checker.states_expanded",
        "checker.states_reused",
    ] {
        m.push(name, count(name), "count");
    }
    let (expanded, reused) = (
        count("checker.states_expanded"),
        count("checker.states_reused"),
    );
    m.push(
        "checker.reuse_ratio",
        if expanded + reused > 0.0 {
            reused / (expanded + reused)
        } else {
            0.0
        },
        "ratio",
    );
    m.push("checker.check_s", med(&|s| s.check_s), "s");
    m.push("checker.self_s", if in_synth { 0.0 } else { self_s }, "s");
    for name in [
        "checker.states",
        "checker.transitions",
        "checker.peak_queue",
    ] {
        m.push(name, count(name), "count");
    }
    m.push(
        "scalarset.canonicalize_calls",
        probe.canonicalize.calls as f64,
        "count",
    );
    m.push(
        "scalarset.canonicalize_s",
        est(|p| p.canonicalize.estimated_s()),
        "s",
    );
    m.push("model.rule_calls", probe.rule.calls as f64, "count");
    m.push("model.rule_s", est(|p| p.rule.estimated_s()), "s");
    m.push(
        "model.rule_fired",
        probe.rule_fired as f64 / (probe.rule.calls as f64).max(1.0),
        "ratio",
    );
    m.push("model.property_calls", probe.property.calls as f64, "count");
    m.push("model.property_s", est(|p| p.property.estimated_s()), "s");
    m.push("resolver.choose_calls", probe.choose_calls as f64, "count");
    m.push("spec.load_s", med(&|s| s.load_s), "s");

    // Each round ran one traced and one untraced unit back to back; the
    // median of their ratios is immune to host drift between rounds.
    let ratios: Vec<f64> = traced
        .iter()
        .zip(plain)
        .map(|(t, p)| t.wall_s / p.wall_s)
        .collect();
    m.push("trace.overhead", median(&ratios), "ratio");
    let unaccounted = med(&|s| s.unaccounted());
    m.push("trace.unaccounted", unaccounted, "ratio");
    // Medians, like the metrics: a timed call the host preempts is scaled
    // up by the sampling period, so one unit's estimate can overshoot.
    if unaccounted > 0.10 || self_s < 0.0 {
        eprintln!(
            "warning: traced spans do not add up (unaccounted {unaccounted:.3}, \
             self time {self_s:.6} s)"
        );
    }
    mismatches
}
