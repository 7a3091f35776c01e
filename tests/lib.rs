//! Cross-crate integration tests for the rvhpc workspace live in the
//! `tests/` directory of this package; this library only hosts shared
//! helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Geometric-mean ratio between paired values — the loose-tolerance metric
/// the shape tests use (1.0 = perfect agreement).
pub fn geomean_ratio(model: &[f64], paper: &[f64]) -> f64 {
    assert_eq!(model.len(), paper.len());
    let log_sum: f64 = model.iter().zip(paper).map(|(m, p)| (m / p).ln()).sum();
    (log_sum / model.len() as f64).exp()
}
