//! A single compressed DBB block: values plus positional bitmask (Fig. 5).

use crate::DbbConfig;

/// One compressed DBB block, borrowed from the flat storage of a
/// [`crate::DbbVector`] or [`crate::DbbMatrix`].
///
/// `values` holds exactly `config.nnz()` bytes — zero-padded at the tail
/// if the source block had fewer non-zeros — and `mask` is the `BZ`-bit
/// positional mask whose set bits mark the expanded positions of the
/// stored values, in ascending position order. This mirrors the hardware
/// storage layout, so [`DbbBlock::storage_bytes`] is exactly the SRAM
/// footprint. A block is a `Copy` view: the containers keep every block's
/// values in one buffer and its mask in another, and no block owns heap
/// memory of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DbbBlock<'a> {
    values: &'a [i8],
    mask: u16,
    config: DbbConfig,
}

/// Appends the compressed form of one expanded block (`data`, at most
/// `config.bz()` elements; a short tail reads as zero-padded) to
/// `values` — exactly `config.nnz()` bytes — and returns its mask, or
/// the block's non-zero count if it exceeds the bound.
pub(crate) fn pack_block(
    data: &[i8],
    config: DbbConfig,
    values: &mut Vec<i8>,
) -> Result<u16, usize> {
    debug_assert!(data.len() <= config.bz(), "block data exceeds BZ elements");
    let found = data.iter().filter(|&&v| v != 0).count();
    if found > config.nnz() {
        return Err(found);
    }
    let mut mask = 0u16;
    for (i, &v) in data.iter().enumerate() {
        if v != 0 {
            values.push(v);
            mask |= 1 << i;
        }
    }
    values.resize(values.len() + config.nnz() - found, 0);
    Ok(mask)
}

impl<'a> DbbBlock<'a> {
    pub(crate) fn new(values: &'a [i8], mask: u16, config: DbbConfig) -> Self {
        debug_assert_eq!(values.len(), config.nnz());
        Self { values, mask, config }
    }

    /// The stored (compressed) values, length exactly `config.nnz()`.
    pub fn values(&self) -> &'a [i8] {
        self.values
    }

    /// The positional bitmask `M`: bit `i` set iff expanded position `i`
    /// holds a non-zero.
    pub fn mask(&self) -> u16 {
        self.mask
    }

    /// The block's configuration.
    pub fn config(&self) -> DbbConfig {
        self.config
    }

    /// Number of genuinely non-zero values stored (mask population count).
    pub fn nnz(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// Expands back to the dense `BZ`-element block.
    pub fn decompress(&self) -> Vec<i8> {
        let mut out = vec![0i8; self.config.bz()];
        for (pos, v) in self.nonzeros() {
            out[pos] = v;
        }
        out
    }

    /// The value at expanded position `pos`, resolved through the mask —
    /// what the hardware's `M`-controlled mux (Fig. 6c/6e) steers to a MAC.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= config.bz()`.
    pub fn value_at(&self, pos: usize) -> i8 {
        assert!(pos < self.config.bz(), "position {pos} out of block");
        if self.mask & (1 << pos) == 0 {
            0
        } else {
            // Index into compressed storage = number of set mask bits
            // below `pos` (the mux select logic).
            let below = (self.mask & ((1 << pos) - 1)).count_ones() as usize;
            self.values[below]
        }
    }

    /// Iterator over `(expanded_position, value)` of the stored non-zeros,
    /// in ascending position order — the serialization order of the
    /// time-unrolled datapath (Fig. 6e).
    pub fn nonzeros(&self) -> impl Iterator<Item = (usize, i8)> + 'a {
        let (mut mask, values) = (self.mask, self.values);
        values.iter().map_while(move |&v| {
            (mask != 0).then(|| {
                let pos = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                (pos, v)
            })
        })
    }

    /// Storage footprint in bytes: `NNZ` values + mask bytes.
    pub fn storage_bytes(&self) -> usize {
        self.config.block_bytes()
    }
}

#[cfg(test)]
mod tests {
    use crate::{DbbConfig, DbbError, DbbVector};

    fn cfg48() -> DbbConfig {
        DbbConfig::new(4, 8)
    }

    /// Compresses one whole block through a one-block vector.
    fn one_block(data: &[i8], config: DbbConfig) -> DbbVector {
        assert_eq!(data.len(), config.bz());
        DbbVector::compress(data, config).unwrap()
    }

    #[test]
    fn paper_fig5_example() {
        // Fig. 5: a 4/8 block keeps the non-zeros and a bitmask.
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let v = one_block(&data, cfg48());
        let b = v.block(0);
        assert_eq!(b.values(), &[9, 4, 3, 5]);
        assert_eq!(b.mask(), 0b0101_1010);
        assert_eq!(b.decompress(), data);
        assert_eq!(b.nnz(), 4);
        assert_eq!(b.storage_bytes(), 5);
    }

    #[test]
    fn underfull_block_zero_pads() {
        let data = [0, 0, -3, 0, 0, 0, 0, 0];
        let v = one_block(&data, cfg48());
        let b = v.block(0);
        assert_eq!(b.values(), &[-3, 0, 0, 0]);
        assert_eq!(b.nnz(), 1);
        assert_eq!(b.decompress(), data);
    }

    #[test]
    fn bound_violation_detected() {
        let data = [1, 2, 3, 4, 5, 0, 0, 0];
        let err = DbbVector::compress(&data, cfg48()).unwrap_err();
        assert_eq!(err, DbbError::BoundExceeded { block: 0, found: 5, bound: 4 });
    }

    #[test]
    fn value_at_mux_semantics() {
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let v = one_block(&data, cfg48());
        for (i, &expect) in data.iter().enumerate() {
            assert_eq!(v.block(0).value_at(i), expect, "position {i}");
        }
    }

    #[test]
    fn nonzeros_in_position_order() {
        let data = [0, 9, 0, 4, 3, 0, 5, 0];
        let v = one_block(&data, cfg48());
        let nz: Vec<_> = v.block(0).nonzeros().collect();
        assert_eq!(nz, vec![(1, 9), (3, 4), (4, 3), (6, 5)]);
    }

    #[test]
    fn dense_config_roundtrip() {
        let data = [1, 2, 3, 4, 5, 6, 7, 8];
        let v = one_block(&data, DbbConfig::dense(8));
        assert_eq!(v.block(0).decompress(), data);
        assert_eq!(v.block(0).storage_bytes(), 8);
    }

    #[test]
    fn all_zero_block() {
        let data = [0i8; 8];
        let v = one_block(&data, cfg48());
        let b = v.block(0);
        assert_eq!(b.nnz(), 0);
        assert_eq!(b.mask(), 0);
        assert_eq!(b.decompress(), data);
        assert!(b.nonzeros().next().is_none());
    }
}
