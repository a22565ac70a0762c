//! Compressed DBB vectors and matrices, stored flat.

use crate::block::pack_block;
use crate::{DbbBlock, DbbConfig, DbbError};
use s2ta_tensor::Matrix;
use std::ops::Range;

/// The flat block storage behind [`DbbVector`] and [`DbbMatrix`]: every
/// block's `nnz` value bytes back to back in one buffer, and its mask in
/// a second. Each buffer is sized once, at compression, so the host
/// holds about [`DbbConfig::block_bytes`] per block and one pair of
/// allocations per container, whatever the block count.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Blocks {
    values: Vec<i8>,
    masks: Vec<u16>,
    config: DbbConfig,
}

impl Blocks {
    fn with_capacity(blocks: usize, config: DbbConfig) -> Self {
        Self {
            values: Vec::with_capacity(blocks * config.nnz()),
            masks: Vec::with_capacity(blocks),
            config,
        }
    }

    /// Appends one reduction vector, zero-padding its tail block. An
    /// error names the offending block counted from the vector's start.
    fn push_vector(&mut self, data: &[i8]) -> Result<(), DbbError> {
        assert!(!data.is_empty(), "cannot compress an empty vector");
        let config = self.config;
        for (block, chunk) in data.chunks(config.bz()).enumerate() {
            let mask = pack_block(chunk, config, &mut self.values)
                .map_err(|found| DbbError::BoundExceeded { block, found, bound: config.nnz() })?;
            self.masks.push(mask);
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.masks.len()
    }

    fn get(&self, i: usize) -> DbbBlock<'_> {
        let nnz = self.config.nnz();
        DbbBlock::new(&self.values[i * nnz..(i + 1) * nnz], self.masks[i], self.config)
    }

    fn range(&self, blocks: Range<usize>) -> impl ExactSizeIterator<Item = DbbBlock<'_>> + '_ {
        let nnz = self.config.nnz();
        self.values[blocks.start * nnz..blocks.end * nnz]
            .chunks_exact(nnz)
            .zip(&self.masks[blocks])
            .map(|(values, &mask)| DbbBlock::new(values, mask, self.config))
    }

    /// Expands `blocks` into `out` (zeroed by the caller), dropping the
    /// padding past `out.len()`.
    fn expand(&self, blocks: Range<usize>, out: &mut [i8]) {
        let bz = self.config.bz();
        for (bi, block) in self.range(blocks).enumerate() {
            for (pos, v) in block.nonzeros() {
                if let Some(slot) = out.get_mut(bi * bz + pos) {
                    *slot = v;
                }
            }
        }
    }

    fn nnz(&self) -> usize {
        self.masks.iter().map(|m| m.count_ones() as usize).sum()
    }

    fn storage_bytes(&self) -> usize {
        self.len() * self.config.block_bytes()
    }
}

/// A reduction vector compressed as a sequence of DBB blocks: one buffer
/// of `nnz` value bytes per block and one buffer of block masks, read as
/// [`DbbBlock`] views.
///
/// The final block is zero-padded when the vector length is not a multiple
/// of `BZ` (the hardware reads a whole block regardless).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbbVector {
    blocks: Blocks,
    len: usize,
}

impl DbbVector {
    /// Compresses a dense reduction vector.
    ///
    /// # Errors
    ///
    /// Returns [`DbbError::BoundExceeded`] naming the first offending
    /// block if any block has more than `config.nnz()` non-zeros.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn compress(data: &[i8], config: DbbConfig) -> Result<Self, DbbError> {
        let mut blocks = Blocks::with_capacity(data.len().div_ceil(config.bz()), config);
        blocks.push_vector(data)?;
        Ok(Self { blocks, len: data.len() })
    }

    /// The compressed blocks, in reduction order.
    pub fn blocks(&self) -> impl ExactSizeIterator<Item = DbbBlock<'_>> + '_ {
        self.blocks.range(0..self.blocks.len())
    }

    /// Block `i`, in reduction order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn block(&self, i: usize) -> DbbBlock<'_> {
        self.blocks.get(i)
    }

    /// Length of the original (expanded) vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the original vector was empty (never — compression rejects it).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration all blocks share.
    pub fn config(&self) -> DbbConfig {
        self.blocks.config
    }

    /// Expands back to the dense vector (original length, padding dropped).
    pub fn decompress(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.len];
        self.blocks.expand(0..self.blocks.len(), &mut out);
        out
    }

    /// Total compressed storage in bytes (values + masks).
    pub fn storage_bytes(&self) -> usize {
        self.blocks.storage_bytes()
    }

    /// Total non-zeros actually stored.
    pub fn nnz(&self) -> usize {
        self.blocks.nnz()
    }
}

/// How a matrix maps to reduction vectors for DBB blocking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockAxis {
    /// Each row is a reduction vector (weight matrices: `M x K`).
    Rows,
    /// Each column is a reduction vector (im2col activations: `K x N`).
    Cols,
}

/// A matrix whose reduction vectors are DBB-compressed, stored flat like
/// a [`DbbVector`]: vector `v`'s blocks are blocks
/// `v * blocks_per_vector ..` of one value buffer and one mask buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbbMatrix {
    blocks: Blocks,
    axis: BlockAxis,
    rows: usize,
    cols: usize,
}

impl DbbMatrix {
    /// Compresses `m` along `axis`.
    ///
    /// # Errors
    ///
    /// Returns the first DBB bound violation encountered, its block
    /// counted from the start of its reduction vector.
    pub fn compress(m: &Matrix, axis: BlockAxis, config: DbbConfig) -> Result<Self, DbbError> {
        let (vectors, k) = match axis {
            BlockAxis::Rows => (m.rows(), m.cols()),
            BlockAxis::Cols => (m.cols(), m.rows()),
        };
        let mut blocks = Blocks::with_capacity(vectors * k.div_ceil(config.bz()), config);
        match axis {
            BlockAxis::Rows => (0..m.rows()).try_for_each(|r| blocks.push_vector(m.row(r)))?,
            BlockAxis::Cols => {
                let mut col = Vec::with_capacity(m.rows());
                for c in 0..m.cols() {
                    col.clear();
                    col.extend((0..m.rows()).map(|r| m.get(r, c)));
                    blocks.push_vector(&col)?;
                }
            }
        }
        Ok(Self { blocks, axis, rows: m.rows(), cols: m.cols() })
    }

    /// Number of compressed reduction vectors (rows or columns, per `axis`).
    pub fn vector_count(&self) -> usize {
        match self.axis {
            BlockAxis::Rows => self.rows,
            BlockAxis::Cols => self.cols,
        }
    }

    /// Blocks per reduction vector: `ceil(K / BZ)`.
    pub fn blocks_per_vector(&self) -> usize {
        let k = match self.axis {
            BlockAxis::Rows => self.cols,
            BlockAxis::Cols => self.rows,
        };
        k.div_ceil(self.config().bz())
    }

    /// The blocks of reduction vector `v`, in reduction order.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.vector_count()`.
    pub fn vector_blocks(&self, v: usize) -> impl ExactSizeIterator<Item = DbbBlock<'_>> + '_ {
        assert!(v < self.vector_count(), "vector {v} out of range");
        let per = self.blocks_per_vector();
        self.blocks.range(v * per..(v + 1) * per)
    }

    /// Block `bi` of reduction vector `v`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn block(&self, v: usize, bi: usize) -> DbbBlock<'_> {
        let per = self.blocks_per_vector();
        assert!(bi < per, "block {bi} out of range");
        self.blocks.get(v * per + bi)
    }

    /// Blocking orientation.
    pub fn axis(&self) -> BlockAxis {
        self.axis
    }

    /// The shared configuration.
    pub fn config(&self) -> DbbConfig {
        self.blocks.config
    }

    /// Original matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Expands back to the dense matrix.
    pub fn decompress(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        let per = self.blocks_per_vector();
        match self.axis {
            BlockAxis::Rows => {
                for (r, row) in m.data_mut().chunks_exact_mut(self.cols.max(1)).enumerate() {
                    self.blocks.expand(r * per..(r + 1) * per, row);
                }
            }
            BlockAxis::Cols => {
                let mut col = vec![0i8; self.rows];
                for c in 0..self.cols {
                    col.fill(0);
                    self.blocks.expand(c * per..(c + 1) * per, &mut col);
                    for (r, &v) in col.iter().enumerate() {
                        m.set(r, c, v);
                    }
                }
            }
        }
        m
    }

    /// Total compressed storage in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.blocks.storage_bytes()
    }

    /// Dense storage the compression replaces, in bytes.
    pub fn dense_bytes(&self) -> usize {
        self.rows * self.cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use s2ta_tensor::sparsity::SparseSpec;

    #[test]
    fn vector_roundtrip_with_tail_padding() {
        let cfg = DbbConfig::new(4, 8);
        let data: Vec<i8> = vec![1, 0, 0, 2, 0, 0, 0, 3, 4, 0, 5]; // len 11
        let v = DbbVector::compress(&data, cfg).unwrap();
        assert_eq!(v.blocks().len(), 2);
        assert_eq!(v.decompress(), data);
        assert_eq!(v.nnz(), 5);
        assert_eq!(v.storage_bytes(), 10);
    }

    #[test]
    fn vector_violation_names_block() {
        let cfg = DbbConfig::new(2, 8);
        let mut data = vec![0i8; 16];
        data[8..12].copy_from_slice(&[1, 2, 3, 0]);
        let err = DbbVector::compress(&data, cfg).unwrap_err();
        assert_eq!(err, DbbError::BoundExceeded { block: 1, found: 3, bound: 2 });
    }

    #[test]
    fn matrix_roundtrip_both_axes() {
        let mut rng = rand::rngs::mock::StepRng::new(12345, 98765);
        let m = SparseSpec::random(0.6).matrix(12, 20, &mut rng);
        let cfg = DbbConfig::dense(8); // dense bound always satisfiable
        for axis in [BlockAxis::Rows, BlockAxis::Cols] {
            let dm = DbbMatrix::compress(&m, axis, cfg).unwrap();
            assert_eq!(dm.decompress(), m);
            assert_eq!(dm.shape(), (12, 20));
        }
    }

    #[test]
    fn block_views_read_each_vector_of_the_flat_storage() {
        let cfg = DbbConfig::new(4, 8);
        // 3 x 11, non-zero at odd flat indices: at most 4 non-zeros in
        // any 8 consecutive elements, and 3-long columns fit any bound.
        let data: Vec<i8> = (0..33).map(|i| if i % 2 == 0 { 0 } else { i as i8 - 40 }).collect();
        let m = Matrix::from_vec(3, 11, data);
        let rows = DbbMatrix::compress(&m, BlockAxis::Rows, cfg).unwrap();
        assert_eq!((rows.vector_count(), rows.blocks_per_vector()), (3, 2));
        for r in 0..3 {
            let mut expanded: Vec<i8> =
                rows.vector_blocks(r).flat_map(|b| b.decompress()).collect();
            assert_eq!(expanded.split_off(11), vec![0; 5], "tail padding is zero");
            assert_eq!(expanded, m.row(r));
            assert_eq!(rows.block(r, 1), rows.vector_blocks(r).nth(1).unwrap());
            assert_eq!(DbbVector::compress(m.row(r), cfg).unwrap().block(1), rows.block(r, 1));
        }
        let cols = DbbMatrix::compress(&m, BlockAxis::Cols, cfg).unwrap();
        assert_eq!((cols.vector_count(), cols.blocks_per_vector()), (11, 1));
        for c in 0..11 {
            let col: Vec<i8> = (0..3).map(|r| m.get(r, c)).collect();
            assert_eq!(cols.block(c, 0).decompress()[..3], col[..]);
        }
        // Flat storage: `nnz` value bytes and one mask per block.
        assert_eq!(rows.storage_bytes(), 6 * cfg.block_bytes());
    }

    #[test]
    fn compression_saves_bytes() {
        // 4/8-satisfying matrix: alternate zero / non-zero.
        let data: Vec<i8> = (0..64).map(|i| if i % 2 == 0 { 0 } else { 1 }).collect();
        let m = Matrix::from_vec(8, 8, data);
        let dm = DbbMatrix::compress(&m, BlockAxis::Rows, DbbConfig::new(4, 8)).unwrap();
        assert_eq!(dm.storage_bytes(), 8 * 5);
        assert_eq!(dm.dense_bytes(), 64);
    }

    proptest! {
        #[test]
        fn prop_vector_roundtrip_dense_bound(data in prop::collection::vec(any::<i8>(), 1..120)) {
            // With the dense bound every vector compresses and round-trips.
            let v = DbbVector::compress(&data, DbbConfig::dense(8)).unwrap();
            prop_assert_eq!(v.decompress(), data);
        }

        #[test]
        fn prop_storage_never_exceeds_dense_plus_mask(
            data in prop::collection::vec(any::<i8>(), 1..120),
            nnz in 1usize..8,
        ) {
            let cfg = DbbConfig::new(nnz, 8);
            if let Ok(v) = DbbVector::compress(&data, cfg) {
                let blocks = data.len().div_ceil(8);
                prop_assert_eq!(v.storage_bytes(), blocks * (nnz + 1));
                prop_assert!(v.nnz() <= blocks * nnz);
            }
        }
    }
}
