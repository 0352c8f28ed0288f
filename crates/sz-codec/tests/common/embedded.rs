//! A destination for placed decodes that gives a decoder every chance to
//! go wrong: each unit sits at its own offset and strides inside a larger
//! buffer pre-filled with a NaN of known payload bits. Shared by the
//! `sz-codec` and `amric` placed-decode suites (`#[path]`-included).

use sz_codec::wire::Writer;
use sz_codec::{Buffer3, CodecResult, Dims3, StridedMut, UnitDest};

/// Deterministic LCG in [0, 1).
pub fn lcg(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 11) as f64 / (1u64 << 53) as f64
}

/// The stream around a hand-edited SZ payload: `prefix` (everything up to
/// and including the SZ envelope), then the payload stored (lossless
/// mode 0) rather than parsed again for every edit.
pub fn rewrap_stored(prefix: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::from_vec(prefix.to_vec());
    w.put_u64(payload.len() as u64);
    w.put_u8(0);
    w.put_block(payload);
    w.into_bytes()
}

/// A quiet NaN no decoder computes and no test field stores.
pub const SENTINEL: u64 = 0x7ff8_dead_beef_0bad;

/// One unit's hole in its sentinel-filled buffer.
pub struct Slot {
    pub dims: Dims3,
    pub offset: usize,
    pub row: usize,
    pub plane: usize,
    pub data: Vec<f64>,
}

impl Slot {
    /// Index of cell `(i, j, k)` of the unit in `data`.
    fn at(&self, i: usize, j: usize, k: usize) -> usize {
        self.offset + i + j * self.row + k * self.plane
    }
}

/// Units embedded at non-trivial strides and offsets, one buffer each.
#[derive(Default)]
pub struct Embedded {
    pub slots: Vec<Slot>,
}

impl UnitDest for Embedded {
    fn unit(&mut self, i: usize, dims: Dims3) -> CodecResult<StridedMut<'_>> {
        assert_eq!(i, self.slots.len(), "units arrive in order");
        // Padding on every side of every row and plane, different per unit.
        let row = dims.nx + 1 + i % 3;
        let plane = row * (dims.ny + i % 2) + 2 * (i % 4);
        let offset = 3 + i % 5;
        let span = (dims.nz - 1) * plane + (dims.ny - 1) * row + dims.nx;
        self.slots.push(Slot {
            dims,
            offset,
            row,
            plane,
            data: vec![f64::from_bits(SENTINEL); offset + span + 4 + i % 7],
        });
        let slot = self.slots.last_mut().expect("just pushed");
        StridedMut::new(dims, &mut slot.data[offset..], row, plane)
    }
}

impl Embedded {
    /// The placed units as owned buffers — after checking that **every**
    /// cell outside them still holds the sentinel.
    pub fn units(&self) -> Vec<Buffer3> {
        self.slots
            .iter()
            .enumerate()
            .map(|(u, slot)| {
                let d = slot.dims;
                let mut inside = vec![false; slot.data.len()];
                let mut unit = Buffer3::zeros(d);
                unit.fill_with(|i, j, k| {
                    inside[slot.at(i, j, k)] = true;
                    slot.data[slot.at(i, j, k)]
                });
                for (at, v) in slot.data.iter().enumerate() {
                    assert!(
                        inside[at] || v.to_bits() == SENTINEL,
                        "unit {u}: cell {at} outside the unit was written"
                    );
                }
                unit
            })
            .collect()
    }

    /// Has nothing at all been written to slot `u`?
    pub fn untouched(&self, u: usize) -> bool {
        self.slots[u].data.iter().all(|v| v.to_bits() == SENTINEL)
    }
}

/// Do two unit sets hold the same shapes and the same bit patterns? With
/// `nan_is_nan`, a NaN a damaged stream makes the decoder *compute* equals
/// any other (its sign and payload are the compiler's choice).
pub fn same_units(a: &[Buffer3], b: &[Buffer3], nan_is_nan: bool) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data().iter().zip(y.data()).all(|(p, q)| {
                    p.to_bits() == q.to_bits() || nan_is_nan && p.is_nan() && q.is_nan()
                })
        })
}

/// Decode one stream through the allocating destination and through
/// [`Embedded`] and hold the second to the first: the same values (and an
/// untouched neighbourhood), or the same error variant. Returns the owned
/// outcome. `hostile` streams may compute NaNs (see [`same_units`]).
pub fn assert_placed_matches_owned(
    decode: impl Fn(&mut dyn UnitDest) -> CodecResult<()>,
    hostile: bool,
    what: &str,
) -> CodecResult<Vec<Buffer3>> {
    let mut owned: Vec<Buffer3> = Vec::new();
    let owned_outcome = decode(&mut owned);
    let mut placed = Embedded::default();
    let placed_outcome = decode(&mut placed);
    // Whatever happened, nothing outside the units was written.
    let placed_units = placed.units();
    match (&owned_outcome, &placed_outcome) {
        (Ok(()), Ok(())) => assert!(
            same_units(&owned, &placed_units, hostile),
            "{what}: placed values differ from the owned decode"
        ),
        (Err(a), Err(b)) => assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "{what}: {a:?} vs {b:?}"
        ),
        _ => panic!("{what}: owned {owned_outcome:?}, placed {placed_outcome:?}"),
    }
    owned_outcome.map(|()| owned)
}
