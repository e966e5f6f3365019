//! Block partitioning of the population (paper §3.2, Figure 2).
//!
//! The population is split into contiguous blocks of row-major indices —
//! "successive individuals in the same block … the successor of an
//! individual is its right neighbor, moving to the next row at the end of
//! a row". Block sizes differ by at most one when the population does not
//! divide evenly.

use std::ops::Range;

/// Splits `len` individuals into `n_blocks` contiguous ranges whose sizes
/// differ by at most one (larger blocks first).
///
/// # Panics
///
/// Panics if `n_blocks` is zero or exceeds `len`.
pub fn partition_blocks(len: usize, n_blocks: usize) -> Vec<Range<usize>> {
    assert!(n_blocks > 0, "need at least one block");
    assert!(n_blocks <= len, "more blocks ({n_blocks}) than individuals ({len})");
    let base = len / n_blocks;
    let extra = len % n_blocks;
    let mut blocks = Vec::with_capacity(n_blocks);
    let mut start = 0;
    for b in 0..n_blocks {
        let size = base + usize::from(b < extra);
        blocks.push(start..start + size);
        start += size;
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split() {
        let blocks = partition_blocks(256, 4);
        assert_eq!(blocks.len(), 4);
        for (b, r) in blocks.iter().enumerate() {
            assert_eq!(r.len(), 64, "block {b}");
        }
        assert_eq!(blocks[0], 0..64);
        assert_eq!(blocks[3], 192..256);
    }

    #[test]
    fn uneven_split_differs_by_at_most_one() {
        let blocks = partition_blocks(256, 3);
        let sizes: Vec<usize> = blocks.iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 256);
        assert_eq!(sizes, vec![86, 85, 85]);
    }

    #[test]
    fn blocks_are_contiguous_and_cover() {
        let blocks = partition_blocks(100, 7);
        let mut next = 0;
        for r in &blocks {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 100);
    }

    #[test]
    fn single_block_is_everything() {
        let blocks = partition_blocks(64, 1);
        assert_eq!(blocks, vec![0..64]);
    }

    #[test]
    #[should_panic(expected = "more blocks")]
    fn too_many_blocks_panics() {
        partition_blocks(4, 5);
    }
}
