//! Naive all-pairs Pareto filter: the reference that
//! `bitwave_core::pareto::pareto_front_indices` is checked against.
//!
//! Dependency-free (axes are described by a `maximise` flag rather than the
//! crate's `Direction`), so both the crate's unit tests and its integration
//! tests can include this one file.

/// Indices (ascending) of the rows that no other row dominates.  Row `a`
/// dominates row `b` when it is at least as good on every axis and strictly
/// better on at least one; `maximise[k]` says larger values win on axis
/// `k`.  Every comparison with NaN is false, so a row containing NaN never
/// dominates and is never dominated, and exact duplicates all survive.
pub fn front_indices<const N: usize>(rows: &[[f64; N]], maximise: &[bool; N]) -> Vec<usize> {
    // Negating the maximised axes turns every axis into "smaller wins".
    let cost = |row: &[f64; N], k: usize| if maximise[k] { -row[k] } else { row[k] };
    let dominates = |a: &[f64; N], b: &[f64; N]| {
        (0..N).all(|k| cost(a, k) <= cost(b, k)) && (0..N).any(|k| cost(a, k) < cost(b, k))
    };
    (0..rows.len())
        .filter(|&i| !rows.iter().any(|other| dominates(other, &rows[i])))
        .collect()
}
