//! Top-k selection utilities used by magnitude-based dynamic pruning.
//!
//! The paper's per-token thresholding strategy (Section 3.1) is exactly
//! "keep the top-K largest magnitude activations for each token"; these
//! helpers implement that selection plus threshold-based variants.
//!
//! # Selection order
//!
//! Every top-k list is ordered by score descending, ties broken by lower
//! index first, so the selection is deterministic. `-0.0` and `+0.0` are
//! equal scores. A NaN score ranks below every number (including `-inf`);
//! NaNs among themselves are ordered by index.
//!
//! The selection packs each candidate into one `u64` key,
//! `(!ordered_bits(score)) << 32 | index` (see [`packed_key`]), so ascending
//! key order *is* the selection order and the top k are found with integer
//! `select_nth_unstable` + `sort_unstable`.
//! [`crate::reference::top_k_indices`] is the parity oracle: a comparator
//! full sort.

use crate::error::{Result, TensorError};

/// Maps a score to a `u32` whose unsigned order is the score's numeric
/// order: the usual sign-flip map, with `-0.0` canonicalised to `+0.0` and
/// every NaN mapped to `0` (below `-inf`).
#[inline]
fn ordered_bits(score: f32) -> u32 {
    // `-0.0 + 0.0 == +0.0` under round-to-nearest; every other value
    // (NaN included) passes through unchanged
    let bits = (score + 0.0).to_bits();
    // negative: flip every bit; non-negative: set the sign bit
    let flip = ((bits as i32) >> 31) as u32 | 0x8000_0000;
    if score.is_nan() {
        0
    } else {
        bits ^ flip
    }
}

/// Packs one top-k candidate into a key whose ascending order is the
/// selection order (score descending, then index ascending).
///
/// `index` must fit in 32 bits.
#[inline]
pub fn packed_key(score: f32, index: usize) -> u64 {
    debug_assert!(
        index <= u32::MAX as usize,
        "top-k index {index} exceeds 32 bits"
    );
    (u64::from(!ordered_bits(score)) << 32) | index as u64
}

/// Selects the `k` smallest [`packed_key`]s of `keys` (reordering `keys` in
/// place) and writes their indices to `out` in selection order.
///
/// Keys are unique (the low half is the index), so the top-k *set* is
/// unique: selecting it in O(n) and sorting only those k gives exactly the
/// list a full sort would.
pub fn top_k_keys_into(keys: &mut [u64], k: usize, out: &mut Vec<usize>) {
    out.clear();
    let k = k.min(keys.len());
    if k == 0 {
        return;
    }
    if k < keys.len() {
        keys.select_nth_unstable(k);
    }
    let top = &mut keys[..k];
    top.sort_unstable();
    out.extend(top.iter().map(|&key| key as u32 as usize));
}

/// Returns the indices of the `k` largest elements of `scores` (by value, not
/// magnitude), in descending score order.
///
/// When `k >= scores.len()` all indices are returned. Ties are broken by
/// lower index first; NaN ranks last (see the [module docs](self)).
///
/// # Example
///
/// ```
/// let idx = tensor::topk::top_k_indices(&[0.1, 3.0, 2.0], 2);
/// assert_eq!(idx, vec![1, 2]);
/// ```
pub fn top_k_indices(scores: &[f32], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_indices_into(scores, k, &mut Vec::new(), &mut out);
    out
}

/// Allocation-free [`top_k_indices`]: `keys` holds the packed keys (reused
/// across calls), `out` receives the selection (cleared first). Selection
/// and ordering are identical to the allocating variant.
pub fn top_k_indices_into(scores: &[f32], k: usize, keys: &mut Vec<u64>, out: &mut Vec<usize>) {
    keys.clear();
    keys.extend(scores.iter().enumerate().map(|(i, &s)| packed_key(s, i)));
    top_k_keys_into(keys, k, out);
}

/// Returns the indices of the `k` elements with the largest *absolute* value.
///
/// This is the per-token top-K magnitude selection used by GLU pruning and
/// DIP (Eqs. 4, 7, 8 in the paper).
pub fn top_k_by_magnitude(values: &[f32], k: usize) -> Vec<usize> {
    let mut out = Vec::new();
    top_k_by_magnitude_into(values, k, &mut Vec::new(), &mut out);
    out
}

/// Allocation-free [`top_k_by_magnitude`]: `keys` holds the packed
/// magnitude keys (reused across calls), `out` receives the selection.
pub fn top_k_by_magnitude_into(
    values: &[f32],
    k: usize,
    keys: &mut Vec<u64>,
    out: &mut Vec<usize>,
) {
    keys.clear();
    keys.extend(
        values
            .iter()
            .enumerate()
            .map(|(i, v)| packed_key(v.abs(), i)),
    );
    top_k_keys_into(keys, k, out);
}

/// Returns indices whose absolute value is strictly greater than `threshold`.
pub fn indices_above_threshold(values: &[f32], threshold: f32) -> Vec<usize> {
    let mut out = Vec::new();
    indices_above_threshold_into(values, threshold, &mut out);
    out
}

/// Allocation-free [`indices_above_threshold`] into a reused buffer.
pub fn indices_above_threshold_into(values: &[f32], threshold: f32, out: &mut Vec<usize>) {
    out.clear();
    out.extend(
        values
            .iter()
            .enumerate()
            .filter(|(_, v)| v.abs() > threshold)
            .map(|(i, _)| i),
    );
}

/// Computes the number of elements to keep for a target *density*
/// (fraction of elements retained), rounding to the nearest integer and
/// clamping to `[0, len]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidParameter`] if `density` is not finite or
/// lies outside `[0, 1]`.
pub fn count_for_density(len: usize, density: f32) -> Result<usize> {
    if !density.is_finite() || !(0.0..=1.0).contains(&density) {
        return Err(TensorError::InvalidParameter {
            name: "density",
            reason: format!("must be in [0, 1], got {density}"),
        });
    }
    Ok(((len as f64) * (density as f64)).round() as usize)
}

/// Selects the top-`density` fraction of elements by magnitude.
///
/// # Errors
///
/// Propagates the density validation error from [`count_for_density`].
pub fn top_density_by_magnitude(values: &[f32], density: f32) -> Result<Vec<usize>> {
    let k = count_for_density(values.len(), density)?;
    Ok(top_k_by_magnitude(values, k))
}

/// Returns the magnitude of the `k`-th largest |value| (the per-token
/// threshold that [`top_k_by_magnitude`] implicitly applies). Returns 0 when
/// `k == 0` or the input is empty; returns `-inf` when `k > len` so that all
/// elements pass.
pub fn kth_magnitude(values: &[f32], k: usize) -> f32 {
    if k == 0 || values.is_empty() {
        return 0.0;
    }
    if k > values.len() {
        return f32::NEG_INFINITY;
    }
    let mut mags: Vec<f32> = values.iter().map(|v| v.abs()).collect();
    mags.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    mags[k - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn top_k_indices_orders_by_score() {
        let idx = top_k_indices(&[0.5, 2.0, 1.0, 3.0], 3);
        assert_eq!(idx, vec![3, 1, 2]);
    }

    #[test]
    fn top_k_handles_edge_cases() {
        assert!(top_k_indices(&[], 3).is_empty());
        assert!(top_k_indices(&[1.0, 2.0], 0).is_empty());
        assert_eq!(top_k_indices(&[1.0, 2.0], 10), vec![1, 0]);
    }

    #[test]
    fn ties_break_by_lower_index() {
        let idx = top_k_indices(&[1.0, 1.0, 1.0], 2);
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn nan_ranks_below_every_number_then_by_index() {
        let nan = f32::NAN;
        let scores = [nan, f32::NEG_INFINITY, -nan, 1.0, nan, -0.0];
        assert_eq!(top_k_indices(&scores, 6), vec![3, 5, 1, 0, 2, 4]);
        assert_eq!(top_k_indices(&scores, 3), vec![3, 5, 1]);
        // |NaN| is NaN: magnitude selection ranks it last as well
        assert_eq!(top_k_by_magnitude(&[nan, -2.0, 0.0], 3), vec![1, 2, 0]);
    }

    #[test]
    fn signed_zeros_tie_and_order_is_numeric() {
        assert_eq!(top_k_indices(&[-0.0, 0.0, -0.0], 3), vec![0, 1, 2]);
        assert_eq!(ordered_bits(-0.0), ordered_bits(0.0));
        let ascending = [
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0,
            -f32::MIN_POSITIVE,
            -1e-45,
            0.0,
            1e-45,
            f32::MIN_POSITIVE,
            1.0,
            f32::MAX,
            f32::INFINITY,
        ];
        for w in ascending.windows(2) {
            assert!(
                ordered_bits(w[0]) < ordered_bits(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        assert!(ordered_bits(f32::NAN) < ordered_bits(f32::NEG_INFINITY));
    }

    #[test]
    fn magnitude_selection_uses_abs() {
        let idx = top_k_by_magnitude(&[-5.0, 1.0, 3.0], 2);
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn threshold_selection() {
        let idx = indices_above_threshold(&[-0.5, 0.2, 1.5, -2.0], 0.4);
        assert_eq!(idx, vec![0, 2, 3]);
    }

    #[test]
    fn count_for_density_rounds_and_validates() {
        assert_eq!(count_for_density(10, 0.5).unwrap(), 5);
        assert_eq!(count_for_density(3, 0.5).unwrap(), 2);
        assert_eq!(count_for_density(10, 0.0).unwrap(), 0);
        assert_eq!(count_for_density(10, 1.0).unwrap(), 10);
        assert!(count_for_density(10, 1.5).is_err());
        assert!(count_for_density(10, -0.1).is_err());
        assert!(count_for_density(10, f32::NAN).is_err());
    }

    #[test]
    fn top_density_selects_expected_fraction() {
        let v: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let idx = top_density_by_magnitude(&v, 0.25).unwrap();
        assert_eq!(idx.len(), 25);
        assert!(idx.contains(&99));
        assert!(!idx.contains(&0));
    }

    #[test]
    fn kth_magnitude_matches_selection_boundary() {
        let v = [0.1, -0.9, 0.5, 0.3];
        assert!((kth_magnitude(&v, 2) - 0.5).abs() < 1e-6);
        assert_eq!(kth_magnitude(&v, 0), 0.0);
        assert_eq!(kth_magnitude(&v, 10), f32::NEG_INFINITY);
        assert_eq!(kth_magnitude(&[], 3), 0.0);
    }
}
