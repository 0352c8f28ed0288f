//! The temporal delta kernel: a unit block coded as residuals against the
//! same region's **decoded** values in a previous snapshot. The residual
//! field `value − reference` is predicted by the 3-D Lorenzo stencil over
//! the already-reconstructed residuals and quantized: time removes the bulk
//! of the signal, Lorenzo the smoothness of what is left, the bound holds
//! on the full values, and since the reference is decoded data, error never
//! accumulates across steps.
//!
//! The kernel owns the **delta block**: the symbols of every delta-coded
//! unit in one shared Huffman block, then a `u64` outlier count and the raw
//! outliers (full values, restored bit-exactly). Which units delta-code,
//! against what, is the AMRIC pipeline's delta mode (`amric::pipeline`).

use crate::buffer3::{Buffer3, StridedMut, View3};
use crate::huffman;
use crate::lorenzo::lorenzo3;
use crate::quantizer::{Quantizer, OUTLIER_SYMBOL};
use crate::wire::{CodecError, CodecResult, Reader, Writer};

/// Codes units against their references and collects the delta block.
pub struct DeltaEncoder {
    q: Quantizer,
    symbols: Vec<u32>,
    outliers: Vec<f64>,
}

impl DeltaEncoder {
    /// An encoder at absolute error bound `abs_eb` (positive, finite).
    pub fn new(abs_eb: f64) -> Self {
        DeltaEncoder {
            q: Quantizer::new(abs_eb),
            symbols: Vec::new(),
            outliers: Vec::new(),
        }
    }

    /// Code `unit` against `prev` (same dims), returning the unit as the
    /// decoder will reconstruct it — the state a writer keeps as the next
    /// snapshot's reference.
    pub fn push(&mut self, unit: View3<'_>, prev: View3<'_>) -> Buffer3 {
        let d = unit.dims();
        assert_eq!(d, prev.dims(), "a delta unit and its reference share dims");
        let (val, pv) = (unit.data(), prev.data());
        let mut res = Buffer3::zeros(d);
        let mut recon = Buffer3::zeros(d);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let at = d.idx(i, j, k);
                    let (v, p) = (val[at], pv[at]);
                    let (sym, rec_r) = self.q.quantize(v - p, lorenzo3(&res, i, j, k));
                    self.symbols.push(sym);
                    let value = if sym == OUTLIER_SYMBOL {
                        self.outliers.push(v);
                        res.set(i, j, k, v - p);
                        v
                    } else {
                        res.set(i, j, k, rec_r);
                        p + rec_r
                    };
                    recon.set(i, j, k, value);
                }
            }
        }
        recon
    }

    /// Append the delta block.
    pub fn finish(self, w: &mut Writer) {
        huffman::encode_block_into(&self.symbols, w);
        w.put_u64(self.outliers.len() as u64);
        w.put_f64s(&self.outliers);
    }
}

/// Replays a delta block unit by unit.
pub struct DeltaDecoder {
    q: Quantizer,
    symbols: std::vec::IntoIter<u32>,
    outliers: std::vec::IntoIter<f64>,
}

impl DeltaDecoder {
    /// Read a delta block that must hold exactly `cells` symbols, coded at
    /// `abs_eb`. Every symbol costs at least one bit of what is left of
    /// the input, so a claim of more cells than that is
    /// [`CodecError::LimitExceeded`] before anything is allocated.
    pub fn read(r: &mut Reader<'_>, abs_eb: f64, cells: u128) -> CodecResult<Self> {
        if !(abs_eb > 0.0 && abs_eb.is_finite()) {
            return Err(CodecError::BadParameter {
                what: "error bound",
            });
        }
        let available = r.remaining() as u128 * 8 + 64;
        if cells > available {
            return Err(CodecError::LimitExceeded {
                what: "delta unit cells",
                claimed: cells,
                available,
            });
        }
        let symbols = huffman::decode_with_table(r.get_block()?)?;
        if symbols.len() as u128 != cells {
            return Err(CodecError::dims(format!(
                "delta block holds {} symbols, the map demands {cells}",
                symbols.len()
            )));
        }
        let n_out = r.get_u64()? as usize;
        let outliers = r.get_f64s(n_out)?;
        Ok(DeltaDecoder {
            q: Quantizer::new(abs_eb),
            symbols: symbols.into_iter(),
            outliers: outliers.into_iter(),
        })
    }

    /// Decode the next unit against `prev` into `to`.
    pub fn unit(&mut self, prev: View3<'_>, to: StridedMut<'_>) -> CodecResult<()> {
        let d = prev.dims();
        let to = to.for_dims(d)?;
        let pv = prev.data();
        let exhausted = || CodecError::corrupt("temporal delta block exhausted");
        let mut res = Buffer3::zeros(d);
        for k in 0..d.nz {
            for j in 0..d.ny {
                for i in 0..d.nx {
                    let sym = self.symbols.next().ok_or_else(exhausted)?;
                    let p = pv[d.idx(i, j, k)];
                    let value = if sym == OUTLIER_SYMBOL {
                        let v = self.outliers.next().ok_or_else(exhausted)?;
                        res.set(i, j, k, v - p);
                        v
                    } else {
                        let rec_r = self.q.try_reconstruct(sym, lorenzo3(&res, i, j, k))?;
                        res.set(i, j, k, rec_r);
                        p + rec_r
                    };
                    to.data[i + j * to.row + k * to.plane] = value;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer3::{AsView3, Dims3, UnitDest};
    use crate::metrics::ErrorStats;

    /// Deterministic per-cell roughness, constant in time.
    fn grain(i: usize, j: usize, k: usize) -> f64 {
        let h =
            (i.wrapping_mul(73_856_093) ^ j.wrapping_mul(19_349_663) ^ k.wrapping_mul(83_492_791))
                % 1024;
        h as f64 / 1024.0 - 0.5
    }

    fn unit(n: usize, t: f64) -> Buffer3 {
        let mut b = Buffer3::zeros(Dims3::cube(n));
        b.fill_with(|i, j, k| {
            let (x, y, z) = (
                i as f64 / n as f64,
                j as f64 / n as f64,
                k as f64 / n as f64,
            );
            (6.0 * (x + t)).sin() * (5.0 * y).cos()
                + 0.5 * (4.0 * (z - t)).sin()
                + 0.05 * grain(i, j, k)
        });
        b
    }

    /// Code `units` against `prevs`, returning the block and the encoder's
    /// reconstruction.
    fn encode(eb: f64, units: &[Buffer3], prevs: &[Buffer3]) -> (Vec<u8>, Vec<Buffer3>) {
        let mut enc = DeltaEncoder::new(eb);
        let state = units
            .iter()
            .zip(prevs)
            .map(|(u, p)| enc.push(u.view(), p.view()))
            .collect();
        let mut w = Writer::new();
        enc.finish(&mut w);
        (w.into_bytes(), state)
    }

    fn decode(eb: f64, block: &[u8], prevs: &[Buffer3]) -> CodecResult<Vec<Buffer3>> {
        let cells = prevs.iter().map(|p| p.dims().len() as u128).sum();
        let mut dec = DeltaDecoder::read(&mut Reader::new(block), eb, cells)?;
        let mut out = Vec::new();
        for (i, p) in prevs.iter().enumerate() {
            dec.unit(p.view(), out.unit(i, p.dims())?)?;
        }
        Ok(out)
    }

    #[test]
    fn delta_roundtrip_respects_error_bound() {
        let eb = 1e-3;
        let prev = vec![unit(10, 0.0), unit(6, 0.3)];
        let next = vec![unit(10, 0.01), unit(6, 0.31)];
        let (block, _) = encode(eb, &next, &prev);
        let back = decode(eb, &block, &prev).unwrap();
        for (o, r) in next.iter().zip(&back) {
            let stats = ErrorStats::compare(o.data(), r.data());
            assert!(
                stats.max_abs_err <= eb * (1.0 + 1e-12),
                "{}",
                stats.max_abs_err
            );
        }
    }

    #[test]
    fn state_matches_decoder_output_bitwise() {
        let prev = vec![unit(9, 0.0), unit(9, 0.5)];
        let next = vec![unit(9, 0.03), unit(9, 0.2)];
        let (block, state) = encode(1e-3, &next, &prev);
        let back = decode(1e-3, &block, &prev).unwrap();
        for (s, b) in state.iter().zip(&back) {
            assert_eq!(s.dims(), b.dims());
            for (x, y) in s.data().iter().zip(b.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn outliers_roundtrip_exactly() {
        // A reference so far from the data that every delta overflows the
        // quantizer radius: all cells become outliers and restore
        // bit-exactly.
        let mut a = Buffer3::zeros(Dims3::cube(4));
        a.fill_with(|i, j, k| (i + j + k) as f64);
        let mut b = Buffer3::zeros(Dims3::cube(4));
        b.fill_with(|i, j, k| (i * j * k) as f64 * 1e9 + 0.125);
        let (block, _) = encode(1e-6, std::slice::from_ref(&b), std::slice::from_ref(&a));
        let back = decode(1e-6, &block, &[a]).unwrap();
        for (x, y) in b.data().iter().zip(back[0].data()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn cell_claims_beyond_the_input_are_refused_before_decoding() {
        let prev = vec![unit(4, 0.0)];
        let (block, _) = encode(1e-3, &[unit(4, 0.1)], &prev);
        let err = DeltaDecoder::read(&mut Reader::new(&block), 1e-3, 1 << 40).err();
        assert!(
            matches!(err, Some(CodecError::LimitExceeded { .. })),
            "{err:?}"
        );
        // A count the block does not hold is typed, either way.
        for cells in [63, 65] {
            assert!(DeltaDecoder::read(&mut Reader::new(&block), 1e-3, cells).is_err());
        }
        for eb in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(DeltaDecoder::read(&mut Reader::new(&block), eb, 64).is_err());
        }
    }
}
