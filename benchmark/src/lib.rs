//! End-to-end and per-layer benchmark of the VerC3 workspace.
//!
//! Everything is measured from outside the program: the benchmark times its
//! own calls into the public APIs (`MsiModel::new`, `ProtocolSpec::from_path`,
//! `Synthesizer::run`, `Checker::run`, `CheckSession::check`) and, in the
//! traced pass, the model callbacks through the [`trace::Traced`] wrapper.
//! See `README.md` for the workloads and metrics.

pub mod host;
pub mod trace;
pub mod workloads;

/// The median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values` by linear interpolation (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
