//! Row blocking for the blocked inference kernels.

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
