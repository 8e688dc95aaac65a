//! Row-blocking and sparse-row merge helpers shared by the CSR builders
//! and the blocked inference kernels.

use crate::{shape_err, ShapeError};

/// Iterates `0..n_rows` in contiguous chunks of at most `block` rows — the
/// shared row-blocking helper behind the blocked inference kernels (tree
/// ensembles walk all trees over one cache-sized row block before moving
/// to the next). A `block` of zero is treated as one.
pub fn row_blocks(n_rows: usize, block: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let block = block.max(1);
    (0..n_rows)
        .step_by(block)
        .map(move |start| start..(start + block).min(n_rows))
}

/// Sorts `pairs` by index, merges duplicates, drops zeros and appends the
/// result to `indices`/`values`, validating every index against `bound`.
///
/// This is the single merge routine behind [`SparseVec::from_pairs`] and
/// [`CsrBuilder::push_row_pairs`], so both construction paths agree
/// bit-for-bit on duplicate handling.
/// `pairs` is cleared on success so callers can reuse it as a scratch
/// buffer (its capacity — sized by the previous row — is retained).
///
/// [`SparseVec::from_pairs`]: crate::SparseVec::from_pairs
/// [`CsrBuilder::push_row_pairs`]: crate::CsrBuilder::push_row_pairs
pub(crate) fn merge_pairs_into(
    pairs: &mut Vec<(u32, f64)>,
    bound: usize,
    indices: &mut Vec<u32>,
    values: &mut Vec<f64>,
) -> Result<(), ShapeError> {
    pairs.sort_unstable_by_key(|&(i, _)| i);
    let start = indices.len();
    for &(i, v) in pairs.iter() {
        if i as usize >= bound {
            indices.truncate(start);
            values.truncate(start);
            return Err(shape_err(format!(
                "index {i} out of bounds for dim {bound}"
            )));
        }
        if let Some(&last) = indices.last() {
            if indices.len() > start && last == i {
                *values.last_mut().expect("values parallel to indices") += v;
                continue;
            }
        }
        indices.push(i);
        values.push(v);
    }
    // Collisions may cancel out exactly; compact away resulting zeros.
    if values[start..].contains(&0.0) {
        let mut write = start;
        for read in start..indices.len() {
            if values[read] != 0.0 {
                indices[write] = indices[read];
                values[write] = values[read];
                write += 1;
            }
        }
        indices.truncate(write);
        values.truncate(write);
    }
    pairs.clear();
    Ok(())
}
