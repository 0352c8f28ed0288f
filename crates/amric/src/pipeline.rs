//! The AMRIC compression pipeline for one (rank, level, field) unit-block
//! set: reorganize (§3.1) → optimized SZ (§3.2) → self-describing stream.
//!
//! Every stream opens with the `AmricPipeline` envelope and a mode byte.
//! Modes 0–3 are the paper's layouts, mode 4 the adaptive-bound extension,
//! mode 5 temporal delta coding against a previous snapshot, and mode 6
//! SZ_Interp over dense clusters of units compressed where they lie:
//!
//! ```text
//! envelope(AmricPipeline, 1, FLAG_REFERENCED)
//! mode       u8  = 5
//! nested     u32 length, then a pipeline stream (modes 0–3 or 6, whatever
//!            the configuration picks) over the spatial units in order;
//!            length 0 when every unit is delta-coded
//! lossless-compressed to the end of the stream:
//!   reference u64        snapshot id the delta units predict from
//!   abs_eb    f64
//!   n         u32        units
//!   map       n × u32    0 = spatial, j + 1 = delta against reference unit j
//!   delta block          `sz_codec::temporal`: Huffman symbols, outliers
//! ```
//!
//! No unit dims are stored: a delta unit has its reference unit's, a
//! spatial unit the nested stream's, and a reader holds both to its plan.
//! Only a delta stream asks its caller for the reference: the same chunk
//! of the referenced snapshot, decoded.
//!
//! ```text
//! envelope(AmricPipeline, 1, 0)
//! mode       u8  = 6
//! n          u32 units
//! edge       u32 unit edge
//! k          u32 clusters
//! dims       k × (gx, gy, gz) u32   each cluster's shape in units
//! slot map   u32 length, then a lossless block: per unit in order, zig-zag
//!            varints of its cluster's change from the unit before and its
//!            slot's distance past the last slot taken in that cluster
//! payload    to the end: `interp::compress_domains_into` over the k
//!            clusters (index-space order, holes zero), one shared encoding
//! ```
//!
//! Only a caller that knows where its units lie ([`UnitOrigins`]) gets
//! mode 6, and only on a chunk mode 3 would take whose units cluster
//! densely (Berger–Rigoutsos at efficiency 3/4, ≥ 8 units per cluster on
//! average); the slot map returns the units in their order, so a reader
//! needs no plan.

use crate::config::{AmricConfig, BoundPolicy, MergePolicy};
use crate::preprocess::unit_activity;
use crate::reorganize::{
    cluster_pack, cluster_place, linear_merge, linear_place, ClusterGrid, Placement,
};
use amr_mesh::geom::IntVect;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use sz_codec::buffer3::place_unit;
use sz_codec::codec::{expect_envelope, write_envelope, FLAG_REFERENCED, FLAG_UNIT_BOUNDS};
use sz_codec::lossless;
use sz_codec::prelude::*;
use sz_codec::temporal::{DeltaDecoder, DeltaEncoder};
use sz_codec::wire::{Reader, Writer};

/// AMRIC pipeline payload format version (rides in the envelope header).
const VERSION: u8 = 1;

/// Reusable compression scratch for the pipeline hot path: the SZ_L/R
/// encode scratch, which every stream mode that quantizes through SZ_L/R
/// reuses so repeated `*_into` calls stop paying per-call allocations.
/// One per writer rank is enough; [`compress_field_units`] and the chunk
/// filter borrow the calling thread's.
pub type AmricScratch = LrScratch;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    LrSle = 0,
    LrLinearMerge = 1,
    InterpLinear = 2,
    InterpCluster = 3,
    /// Per-unit adaptive bounds: two LR-SLE substreams (tight group,
    /// loose group) plus a group table mapping units back to input order.
    Adaptive = 4,
    /// Temporal delta coding against a reference snapshot, with a nested
    /// stream for the units that have no reference (module docs).
    Delta = 5,
    /// SZ_Interp over dense clusters of units where they lie, plus a slot
    /// map back to the units' order (module docs).
    InterpPlaced = 6,
    Empty = 255,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::LrSle => "lr-sle",
            Mode::LrLinearMerge => "lr-lm",
            Mode::InterpLinear => "interp-linear",
            Mode::InterpCluster => "interp-cluster",
            Mode::Adaptive => "adaptive",
            Mode::Delta => "delta",
            Mode::InterpPlaced => "interp-placed",
            Mode::Empty => "empty",
        }
    }

    fn from_u8(v: u8) -> CodecResult<Mode> {
        Ok(match v {
            0 => Mode::LrSle,
            1 => Mode::LrLinearMerge,
            2 => Mode::InterpLinear,
            3 => Mode::InterpCluster,
            4 => Mode::Adaptive,
            5 => Mode::Delta,
            6 => Mode::InterpPlaced,
            255 => Mode::Empty,
            _ => return Err(CodecError::BadMode { found: v }),
        })
    }
}

/// An error bound resolved to absolute values — what the writer hands the
/// pipeline after scaling the configured relative policy by the global
/// field range. `Fixed` takes the exact pre-policy code path (streams stay
/// byte-identical to earlier releases, pinned by the golden corpus);
/// `Adaptive` selects [the per-unit mode](BoundPolicy::GradientAdaptive).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResolvedBound {
    /// One absolute bound for every unit.
    Fixed(f64),
    /// Absolute tight/loose bounds; each unit gets one or the other by
    /// gradient activity.
    Adaptive {
        /// Absolute bound for high-gradient (rough) units.
        tight: f64,
        /// Absolute bound for smooth units (`>= tight`).
        loose: f64,
    },
}

impl ResolvedBound {
    /// Resolve a configured [`BoundPolicy`] against a known value range
    /// (range 0 falls back to the relative bound itself, like
    /// [`absolute_bound`]).
    pub fn from_policy(policy: BoundPolicy, rel_eb: f64, range: f64) -> ResolvedBound {
        match policy {
            BoundPolicy::Fixed => ResolvedBound::Fixed(absolute_bound(rel_eb, range)),
            BoundPolicy::GradientAdaptive { tight, loose } => ResolvedBound::Adaptive {
                tight: absolute_bound(tight, range),
                loose: absolute_bound(loose, range),
            },
        }
    }

    /// The loosest absolute bound any unit may see — the worst-case error
    /// guarantee of the stream.
    pub fn loose(&self) -> f64 {
        match *self {
            ResolvedBound::Fixed(b) => b,
            ResolvedBound::Adaptive { loose, .. } => loose,
        }
    }
}

/// Split units into bound groups: `true` = rough (tight bound). A unit is
/// rough when its [`unit_activity`] exceeds the mean activity of the
/// chunk, so constant or uniformly smooth chunks classify all-loose.
/// Deterministic in the unit data alone — the parallel write path stays
/// byte-identical to serial with no extra plumbing.
fn classify_units<U: AsView3>(units: &[U]) -> Vec<bool> {
    let scores: Vec<f64> = units.iter().map(unit_activity).collect();
    let mean = scores.iter().sum::<f64>() / scores.len() as f64;
    scores.iter().map(|&s| s > mean).collect()
}

/// Can the units be merged along z (uniform x/y footprint)?
fn uniform_xy<U: AsView3>(units: &[U]) -> bool {
    let d0 = units[0].view().dims();
    units
        .iter()
        .map(|u| u.view().dims())
        .all(|d| d.nx == d0.nx && d.ny == d0.ny)
}

/// Are all units identical cubes?
fn uniform_cubes<U: AsView3>(units: &[U]) -> bool {
    let d0 = units[0].view().dims();
    d0.nx == d0.ny && d0.ny == d0.nz && units.iter().all(|u| u.view().dims() == d0)
}

/// Resolve the field's absolute error bound from the rank-local value
/// range across all units (the paper's per-rank range-relative bounds,
/// §4.3).
///
/// **Constant-valued fields** (value range 0 — e.g. a quiet rank whose
/// units all hold one value) fall back to `rel_eb` itself as the absolute
/// bound, matching [`absolute_bound`]. REL bounds therefore stay
/// well-defined at the API boundary: the quantizer receives a positive
/// bound, the constant field round-trips within `rel_eb`, and the in-situ
/// writer resolves its global bound under the same contract.
pub fn resolve_abs_eb<U: AsView3>(units: &[U], rel_eb: f64) -> f64 {
    absolute_bound(rel_eb, local_range(units))
}

/// Value range across a unit set (0.0 for constant or empty sets).
fn local_range<U: AsView3>(units: &[U]) -> f64 {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for u in units {
        let (l, h) = sz_codec::buffer3::min_max(u.view().data());
        lo = lo.min(l);
        hi = hi.max(h);
    }
    if hi > lo {
        hi - lo
    } else {
        0.0
    }
}

/// [`compress_placed_into`] on the calling thread's encode scratch — for
/// the `&self` face of the pipeline (the AMRIC `ChunkFilter`) and
/// [`compress_field_units`], which cannot thread an explicit scratch
/// through. Rank threads and pool workers are all threads, so every
/// concurrent encoder gets its own.
pub(crate) fn compress_on_thread_scratch<U: AsView3>(
    units: &[U],
    origins: Option<&UnitOrigins>,
    cfg: &AmricConfig,
    unit_edge: usize,
    bound: ResolvedBound,
    out: &mut Vec<u8>,
) {
    lr::with_thread_scratch(|scratch| {
        compress_placed_into(units, origins, cfg, unit_edge, bound, scratch, out)
    })
}

/// Compress one field's unit blocks under the given configuration,
/// resolving the relative bound against the *local* value range of the
/// units (offline single-rank studies). The in-situ writer resolves the
/// bound globally across ranks and calls [`compress_placed_into`] instead.
pub fn compress_field_units<U: AsView3>(
    units: &[U],
    cfg: &AmricConfig,
    unit_edge: usize,
) -> Vec<u8> {
    let bound = if units.is_empty() {
        ResolvedBound::Fixed(1.0) // unused: the empty marker short-circuits
    } else {
        ResolvedBound::from_policy(cfg.bound, cfg.rel_eb, local_range(units))
    };
    let mut out = Vec::new();
    compress_on_thread_scratch(units, None, cfg, unit_edge, bound, &mut out);
    out
}

/// [`compress_placed_into`] over bare units, whose positions are unknown:
/// modes 0–4.
pub fn compress_field_units_resolved_into<U: AsView3>(
    units: &[U],
    cfg: &AmricConfig,
    unit_edge: usize,
    bound: ResolvedBound,
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) {
    compress_placed_into(units, None, cfg, unit_edge, bound, scratch, out)
}

/// The policy-dispatching compress core — what the writer calls with the
/// globally resolved bound and each unit's index-space origin (`origins`,
/// one per unit, when the caller knows where its units lie). `Fixed` takes
/// the paper path, where known origins let dense SZ_Interp chunks take the
/// placed mode; `Adaptive` appends the `Mode::Adaptive` stream. Both
/// append to `out` and reuse `scratch`.
pub fn compress_placed_into<U: AsView3>(
    units: &[U],
    origins: Option<&UnitOrigins>,
    cfg: &AmricConfig,
    unit_edge: usize,
    bound: ResolvedBound,
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) {
    if let Some(origins) = origins {
        assert_eq!(origins.origins.len(), units.len(), "one origin per unit");
    }
    match bound {
        ResolvedBound::Fixed(abs_eb) => {
            compress_fixed_into(units, origins, cfg, unit_edge, abs_eb, scratch, out)
        }
        // An empty chunk carries no bound: the plain empty marker is the
        // canonical stream either way.
        ResolvedBound::Adaptive { .. } if units.is_empty() => {
            compress_fixed_into(units, None, cfg, unit_edge, 1.0, scratch, out)
        }
        ResolvedBound::Adaptive { tight, loose } => {
            compress_adaptive_into(units, cfg, unit_edge, tight, loose, scratch, out)
        }
    }
}

/// Append what `body` writes to `w`, behind its `u32` length.
fn put_len_prefixed(w: &mut Writer, body: impl FnOnce(&mut Vec<u8>)) {
    let at = w.buf_mut().len() + 4;
    w.put_u32(0);
    body(w.buf_mut());
    let len = (w.buf_mut().len() - at) as u32;
    w.buf_mut()[at - 4..at].copy_from_slice(&len.to_le_bytes());
}

/// Write the [`Mode::Adaptive`] stream: group table + two LR-SLE
/// substreams (tight group length-prefixed, loose group to end of
/// stream). Adaptive always sub-codes with LR-SLE — it handles any unit
/// shapes and keeps per-unit bounds independent — regardless of the
/// configured algorithm.
fn compress_adaptive_into<U: AsView3>(
    units: &[U],
    cfg: &AmricConfig,
    unit_edge: usize,
    tight: f64,
    loose: f64,
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) {
    let rough = classify_units(units);
    let mut w = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut w, CodecId::AmricPipeline, VERSION, FLAG_UNIT_BOUNDS);
    w.put_u8(Mode::Adaptive as u8);
    w.put_u32(units.len() as u32);
    w.put_f64(tight);
    w.put_f64(loose);
    for &r in &rough {
        w.put_u8(r as u8);
    }
    let block_size = cfg.sz_block_size(unit_edge);
    let group = |tight: bool| -> Vec<View3<'_>> {
        let members = units.iter().zip(&rough).filter(|(_, &r)| r == tight);
        members.map(|(u, _)| u.view()).collect()
    };
    let (tight_units, loose_units) = (group(true), group(false));
    // Tight substream, u32-length-prefixed so the loose one can ride raw
    // to the end of the stream.
    put_len_prefixed(&mut w, |out| {
        if !tight_units.is_empty() {
            let lr_cfg = LrConfig::new(tight).with_block_size(block_size);
            lr::compress_domains_into(&tight_units, &lr_cfg, scratch, out);
        }
    });
    if !loose_units.is_empty() {
        let lr_cfg = LrConfig::new(loose).with_block_size(block_size);
        lr::compress_domains_into(&loose_units, &lr_cfg, scratch, w.buf_mut());
    }
    *out = w.into_bytes();
}

/// Compress one field's bare unit blocks with an explicit absolute error
/// bound, **appending** the stream to `out` and reusing `scratch` (modes
/// 0–3).
pub fn compress_field_units_with_bound_into<U: AsView3>(
    units: &[U],
    cfg: &AmricConfig,
    unit_edge: usize,
    abs_eb: f64,
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) {
    compress_fixed_into(units, None, cfg, unit_edge, abs_eb, scratch, out)
}

/// The one fixed-bound body under every compress entry: the stream of the
/// mode [`select_mode`] picks, appended to `out` with no intermediate
/// buffer.
fn compress_fixed_into<U: AsView3>(
    units: &[U],
    origins: Option<&UnitOrigins>,
    cfg: &AmricConfig,
    unit_edge: usize,
    abs_eb: f64,
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) {
    let mut w = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut w, CodecId::AmricPipeline, VERSION, 0);
    if units.is_empty() {
        w.put_u8(Mode::Empty as u8);
        *out = w.into_bytes();
        return;
    }
    let (mode, placement) = select_mode(cfg, units, origins);
    w.put_u8(mode as u8);
    w.put_u32(units.len() as u32);
    // The SZ payload is the stream's final field: appended raw (no length
    // prefix, no intermediate buffer).
    match mode {
        Mode::LrSle => {
            let lr_cfg = LrConfig::new(abs_eb).with_block_size(cfg.sz_block_size(unit_edge));
            lr::compress_domains_into(units, &lr_cfg, scratch, w.buf_mut());
        }
        Mode::LrLinearMerge => {
            let (merged, extents) = linear_merge(units);
            for e in &extents {
                w.put_u32(*e as u32);
            }
            let lr_cfg = LrConfig::new(abs_eb).with_block_size(cfg.sz_block_size(unit_edge));
            lr::compress_domains_into(&[&merged], &lr_cfg, scratch, w.buf_mut());
        }
        Mode::InterpLinear => {
            let (merged, extents) = linear_merge(units);
            for e in &extents {
                w.put_u32(*e as u32);
            }
            w.put_u32(merged.dims().nx as u32);
            w.put_u32(merged.dims().ny as u32);
            interp::compress_into(&merged, &InterpConfig::new(abs_eb), w.buf_mut());
        }
        Mode::InterpCluster => {
            let (packed, grid) = cluster_pack(units);
            let d0 = units[0].view().dims();
            w.put_u32(d0.nx as u32);
            w.put_u32(grid.gx as u32);
            w.put_u32(grid.gy as u32);
            w.put_u32(grid.gz as u32);
            interp::compress_into(&packed, &InterpConfig::new(abs_eb), w.buf_mut());
        }
        Mode::InterpPlaced => {
            let placement = placement.expect("select_mode places every placed chunk");
            let edge = units[0].view().dims().nx;
            w.put_u32(edge as u32);
            w.put_u32(placement.clusters.len() as u32);
            for g in &placement.clusters {
                w.put_u32(g.gx as u32);
                w.put_u32(g.gy as u32);
                w.put_u32(g.gz as u32);
            }
            let slots = placement.encode_slots();
            put_len_prefixed(&mut w, |out| lossless::compress_into(&slots, out));
            let packed = placement.pack(units, edge);
            interp::compress_domains_into(&packed, &InterpConfig::new(abs_eb), w.buf_mut());
        }
        Mode::Adaptive | Mode::Delta => unreachable!("select_mode never picks {mode:?}"),
        Mode::Empty => unreachable!("handled above"),
    }
    *out = w.into_bytes();
}

/// The decoded units a delta stream predicts from: the id of the snapshot
/// they belong to, and the units of the same `(level, field, rank)` chunk
/// of that snapshot, in plan order.
pub type Reference = (u64, Arc<Vec<Buffer3>>);

/// The answer of a caller without a reference: a delta stream fails typed.
pub fn no_reference() -> CodecResult<Reference> {
    Err(CodecError::BadParameter {
        what: "temporal reference (delta stream decoded without its reference snapshot)",
    })
}

/// What [`compress_delta_into`] hands back: the delta units as the decoder
/// rebuilds them, and where in the output the nested stream lies.
pub struct DeltaEncoded(Vec<Option<Buffer3>>, Range<usize>);

impl DeltaEncoded {
    /// The decoded state of every unit of `stream`, the output the encoder
    /// appended to: delta units from the encoder, spatial units from one
    /// decode of the nested stream.
    pub fn into_state(self, stream: &[u8]) -> CodecResult<Vec<Buffer3>> {
        let mut nested = match &stream[self.1] {
            [] => Vec::new(),
            nested => decompress_field_units(nested)?,
        }
        .into_iter();
        let lost = || CodecError::corrupt("nested stream lost a unit");
        let state = self.0.into_iter().map(|d| d.or_else(|| nested.next()));
        state.map(|unit| unit.ok_or_else(lost)).collect()
    }
}

/// Append the delta-mode stream of `units` (module docs): unit `i`
/// delta-codes against `reference.1[j]` when `map[i] == Some(j)` (same
/// dims), every other unit goes to a nested stream in the mode `cfg` picks
/// — placed when `origins` (one per unit) say where they lie.
#[allow(clippy::too_many_arguments)]
pub fn compress_delta_into<U: AsView3>(
    units: &[U],
    origins: Option<&UnitOrigins>,
    cfg: &AmricConfig,
    unit_edge: usize,
    abs_eb: f64,
    (reference_id, reference): (u64, &[Buffer3]),
    map: &[Option<u32>],
    scratch: &mut AmricScratch,
    out: &mut Vec<u8>,
) -> CodecResult<DeltaEncoded> {
    let origins_fit = origins.is_none_or(|o| o.origins.len() == units.len());
    if map.len() != units.len() || !origins_fit || !(abs_eb > 0.0 && abs_eb.is_finite()) {
        return Err(CodecError::BadParameter {
            what: "delta map, unit origins or error bound",
        });
    }
    let mut payload = Writer::new();
    payload.put_u64(reference_id);
    payload.put_f64(abs_eb);
    payload.put_u32(units.len() as u32);
    let (mut enc, mut spatial) = (DeltaEncoder::new(abs_eb), Vec::new());
    let mut spatial_origins = Vec::new();
    let mut delta = Vec::with_capacity(units.len());
    for (i, (u, &m)) in units.iter().zip(map).enumerate() {
        let unit = u.view();
        payload.put_u32(m.map_or(0, |j| j + 1));
        let Some(j) = m else {
            spatial.push(unit);
            spatial_origins.extend(origins.map(|o| o.origins[i]));
            delta.push(None);
            continue;
        };
        match reference.get(j as usize) {
            Some(prev) if prev.dims() == unit.dims() => {
                delta.push(Some(enc.push(unit, prev.view())));
            }
            _ => {
                let msg = format!("unit {i} has no reference unit {j} of its dims");
                return Err(CodecError::dims(msg));
            }
        }
    }
    enc.finish(&mut payload);
    let mut w = Writer::from_vec(std::mem::take(out));
    write_envelope(&mut w, CodecId::AmricPipeline, VERSION, FLAG_REFERENCED);
    w.put_u8(Mode::Delta as u8);
    let at = w.buf_mut().len() + 4;
    put_len_prefixed(&mut w, |nested| {
        if !spatial.is_empty() {
            let origins = origins.map(|o| UnitOrigins::new(spatial_origins, o.edge));
            let origins = origins.as_ref();
            compress_fixed_into(&spatial, origins, cfg, unit_edge, abs_eb, scratch, nested);
        }
    });
    let nested = at..w.buf_mut().len();
    *out = w.into_bytes();
    lossless::compress_into(&payload.into_bytes(), out);
    Ok(DeltaEncoded(delta, nested))
}

/// Tagging efficiency the placed mode clusters a chunk's unit grid at
/// (blocking factor 1 unit, no size cap). *Probe*, `warpx_interp` seed 1
/// at the writer's bounds: at 3/4 level 0 is one cluster (32×32×512
/// cells, 3.7 % holes) and level 1 27 clusters (303 units, 187 904 cells
/// for 155 136 valid); at 1/2 level 1 is two clusters and 128 576 B but
/// 68 % more cells; at 0.9 it is 76 clusters and 227 506 B. Per-box
/// domains store 288 463 B.
const PLACED_GRID_EFF: f64 = 0.75;

/// Units a placed cluster must hold on average — a 2³ block of units — for
/// the chunk to take the placed mode; sparser chunks keep the cluster
/// pack.
const PLACED_MIN_UNITS_PER_CLUSTER: usize = 8;

/// Where a chunk's units lie — one index-space origin per unit, in the
/// units' order, for cubes of edge `edge` — and, worked out on first use
/// and then shared by every field of the chunk, whether and how they
/// cluster for the placed mode.
#[derive(Debug)]
pub struct UnitOrigins {
    origins: Vec<IntVect>,
    edge: usize,
    placement: OnceLock<Option<Placement>>,
}

impl UnitOrigins {
    /// The origins of a chunk's unit cubes of edge `edge`.
    pub fn new(origins: Vec<IntVect>, edge: usize) -> Self {
        UnitOrigins {
            origins,
            edge,
            placement: OnceLock::new(),
        }
    }

    /// Units described.
    pub fn len(&self) -> usize {
        self.origins.len()
    }

    /// No units described.
    pub fn is_empty(&self) -> bool {
        self.origins.is_empty()
    }

    /// The placed layout, when the units cluster densely enough to take it.
    fn placement(&self) -> Option<&Placement> {
        self.placement
            .get_or_init(|| {
                let placement = Placement::cluster(&self.origins, self.edge, PLACED_GRID_EFF);
                placement
                    .filter(|p| p.slots.len() >= PLACED_MIN_UNITS_PER_CLUSTER * p.clusters.len())
            })
            .as_ref()
    }
}

/// Pick the stream mode the configuration implies, with safe fallbacks
/// for ragged unit shapes (domain edges that are not unit-aligned). A
/// chunk that would be cluster-packed is compressed where its units lie
/// instead when their `origins` are known and cluster densely enough.
fn select_mode<'a, U: AsView3>(
    cfg: &AmricConfig,
    units: &[U],
    origins: Option<&'a UnitOrigins>,
) -> (Mode, Option<&'a Placement>) {
    let mode = match cfg.algorithm {
        SzAlgorithm::LorenzoRegression => match cfg.merge {
            MergePolicy::SharedEncoding => Mode::LrSle,
            MergePolicy::LinearMerge if uniform_xy(units) => Mode::LrLinearMerge,
            // Ragged footprints cannot merge; SLE handles any shapes.
            MergePolicy::LinearMerge => Mode::LrSle,
        },
        SzAlgorithm::Interpolation => {
            if cfg.cluster_arrangement && uniform_cubes(units) {
                Mode::InterpCluster
            } else if uniform_xy(units) {
                Mode::InterpLinear
            } else {
                Mode::LrSle
            }
        }
    };
    let placement = origins
        .filter(|o| mode == Mode::InterpCluster && o.edge == units[0].view().dims().nx)
        .and_then(UnitOrigins::placement);
    match placement {
        Some(p) => (Mode::InterpPlaced, Some(p)),
        None => (mode, None),
    }
}

/// Decompress a self-contained pipeline stream, returning the unit buffers
/// in their original order (a delta stream fails: it has no reference
/// here).
pub fn decompress_field_units(bytes: &[u8]) -> CodecResult<Vec<Buffer3>> {
    let mut units = Vec::new();
    decompress_field_units_into(bytes, &mut units, &mut no_reference)?;
    Ok(units)
}

/// Decompress a stream produced by [`compress_field_units`] to where
/// `dest` says each unit goes, in the units' original order. The modes
/// that carry the traffic place directly: SZ_L/R with SLE
/// ([`AmricConfig::lr`]) reconstructs in the destination, cluster-packed
/// SZ_Interp ([`AmricConfig::interp`] on cubes) copies each slot's rows out
/// of the packed buffer. The LM ablation, the ragged SZ_Interp fallback and
/// the adaptive extension decode to units of their own and copy those.
///
/// A delta-mode stream asks `reference` once for the units it
/// predicts from (see [`Reference`]; [`no_reference`] when the caller has
/// none); no other stream calls it.
pub fn decompress_field_units_into(
    bytes: &[u8],
    dest: &mut dyn UnitDest,
    reference: &mut dyn FnMut() -> CodecResult<Reference>,
) -> CodecResult<()> {
    let env = expect_envelope(bytes, CodecId::AmricPipeline, VERSION)?;
    let mut r = Reader::new(&bytes[env.payload_offset..]);
    let mode = Mode::from_u8(r.get_u8()?)?;
    match mode {
        Mode::Empty => return Ok(()),
        Mode::Delta => return decompress_delta(&mut r, dest, reference),
        _ => {}
    }
    let n = r.get_u32()? as usize;
    match mode {
        Mode::LrSle => {
            let held = lr::decompress_domains_into(r.get_raw(r.remaining())?, dest)?;
            if held != n {
                return Err(CodecError::dims(format!(
                    "expected {n} units, stream holds {held}"
                )));
            }
            Ok(())
        }
        Mode::LrLinearMerge | Mode::InterpLinear => {
            // Each extent is a u32; reject counts the stream can't hold.
            r.check_count(n, 4)?;
            let mut extents = Vec::with_capacity(n);
            for _ in 0..n {
                let e = r.get_u32()? as usize;
                if e == 0 {
                    return Err(CodecError::dims("zero unit extent"));
                }
                extents.push(e);
            }
            let merged = if mode == Mode::LrLinearMerge {
                lr::decompress(r.get_raw(r.remaining())?)?
            } else {
                let _nx = r.get_u32()?;
                let _ny = r.get_u32()?;
                interp::decompress(r.get_raw(r.remaining())?)?
            };
            if merged.dims().nz != extents.iter().sum::<usize>() {
                return Err(CodecError::dims("merged extents mismatch"));
            }
            linear_place(&merged, &extents, dest)
        }
        Mode::InterpCluster => {
            let edge = r.get_u32()? as usize;
            let grid = ClusterGrid {
                gx: r.get_u32()? as usize,
                gy: r.get_u32()? as usize,
                gz: r.get_u32()? as usize,
            };
            let packed = interp::decompress(r.get_raw(r.remaining())?)?;
            // Compare in u128 so corrupted grid/edge fields can neither
            // overflow the products nor hit Dims3's nonzero assertion.
            let pd = packed.dims();
            let matches = grid.gx as u128 * edge as u128 == pd.nx as u128
                && grid.gy as u128 * edge as u128 == pd.ny as u128
                && grid.gz as u128 * edge as u128 == pd.nz as u128;
            if !matches {
                return Err(CodecError::dims("cluster grid mismatch"));
            }
            if n > grid.slots() {
                return Err(CodecError::dims("unit count exceeds cluster slots"));
            }
            cluster_place(&packed, grid, Dims3::cube(edge), n, dest)
        }
        Mode::InterpPlaced => {
            let (edge, clusters) = read_placed_header(&mut r, n)?;
            let map_len = r.get_u32()? as usize;
            let map = lossless::decompress(r.get_raw(map_len)?)?;
            let placement = Placement::decode_slots(clusters, n, &map)?;
            let packed = interp::decompress_domains(r.get_raw(r.remaining())?)?;
            if packed.len() != placement.clusters.len() {
                let held = packed.len();
                return Err(CodecError::dims(format!(
                    "{held} clusters decoded, {k} stored",
                    k = placement.clusters.len()
                )));
            }
            for (c, (g, cluster)) in placement.clusters.iter().zip(&packed).enumerate() {
                let d = cluster.dims();
                let matches = [(g.gx, d.nx), (g.gy, d.ny), (g.gz, d.nz)]
                    .iter()
                    .all(|&(g, n)| g as u128 * edge as u128 == n as u128);
                if !matches {
                    return Err(CodecError::dims(format!("cluster {c} decodes to {d:?}")));
                }
            }
            placement.place(&packed, edge, dest)
        }
        Mode::Adaptive => {
            let (_bounds, rough, mut r) = read_adaptive_header(&mut r, n)?;
            let n_tight = rough.iter().filter(|&&g| g).count();
            let n_loose = n - n_tight;
            let tight_len = r.get_u32()? as usize;
            let tight_raw = r.get_raw(tight_len)?;
            let loose_raw = r.get_raw(r.remaining())?;
            if (n_tight == 0) != tight_raw.is_empty() || (n_loose == 0) != loose_raw.is_empty() {
                return Err(CodecError::dims("adaptive substream/group mismatch"));
            }
            let tight_units = if n_tight == 0 {
                Vec::new()
            } else {
                lr::decompress_domains(tight_raw)?
            };
            let loose_units = if n_loose == 0 {
                Vec::new()
            } else {
                lr::decompress_domains(loose_raw)?
            };
            if tight_units.len() != n_tight || loose_units.len() != n_loose {
                return Err(CodecError::dims(format!(
                    "adaptive groups hold {}+{} units, expected {n_tight}+{n_loose}",
                    tight_units.len(),
                    loose_units.len()
                )));
            }
            let (mut tight_it, mut loose_it) = (tight_units.iter(), loose_units.iter());
            for (i, &g) in rough.iter().enumerate() {
                let group = if g { &mut tight_it } else { &mut loose_it };
                place_unit(dest, i, group.next().expect("counted").view())?;
            }
            Ok(())
        }
        Mode::Empty | Mode::Delta => unreachable!("handled above"),
    }
}

/// The [`Mode::InterpPlaced`] header after the unit count: the unit edge
/// and each cluster's shape in units. The clusters hold at most twice as
/// many slots as there are units — the rule's efficiency of 3/4 keeps
/// them under 4/3 — so forged dims are refused here, before anything is
/// sized by them.
fn read_placed_header(r: &mut Reader<'_>, n: usize) -> CodecResult<(usize, Vec<ClusterGrid>)> {
    let edge = r.get_u32()? as usize;
    let k = r.get_u32()? as usize;
    if edge == 0 || k == 0 || k > n {
        return Err(CodecError::dims(format!(
            "{k} clusters of {edge}³ units for {n} units"
        )));
    }
    r.check_count(k, 12)?;
    let mut clusters = Vec::with_capacity(k);
    let mut slots = 0u128;
    for _ in 0..k {
        let g = ClusterGrid {
            gx: r.get_u32()? as usize,
            gy: r.get_u32()? as usize,
            gz: r.get_u32()? as usize,
        };
        if g.gx == 0 || g.gy == 0 || g.gz == 0 {
            return Err(CodecError::dims("empty cluster"));
        }
        slots += g.gx as u128 * g.gy as u128 * g.gz as u128;
        clusters.push(g);
    }
    if slots < n as u128 {
        return Err(CodecError::dims(format!(
            "{slots} cluster slots for {n} units"
        )));
    }
    let cell = (edge as u128).pow(3);
    if slots > 2 * n as u128 {
        return Err(CodecError::LimitExceeded {
            what: "cluster cells",
            claimed: slots * cell,
            available: 2 * n as u128 * cell,
        });
    }
    Ok((edge, clusters))
}

/// The [`Mode::Delta`] payload after its mode byte. Every count is bounded
/// by the input before it sizes anything, the reference must carry the id
/// the stream records, and every map entry must name a reference unit.
fn decompress_delta(
    r: &mut Reader<'_>,
    dest: &mut dyn UnitDest,
    reference: &mut dyn FnMut() -> CodecResult<Reference>,
) -> CodecResult<()> {
    let nested_len = r.get_u32()? as usize;
    let nested = r.get_raw(nested_len)?;
    let payload = lossless::decompress(r.get_raw(r.remaining())?)?;
    let mut r = Reader::new(&payload);
    let (reference_id, abs_eb) = (r.get_u64()?, r.get_f64()?);
    let n = r.get_u32()? as usize;
    r.check_count(n, 4)?;
    let map = (0..n)
        .map(|_| r.get_u32())
        .collect::<CodecResult<Vec<u32>>>()?;
    let (id, units) = reference()?;
    if id != reference_id {
        let msg = format!("stream references snapshot {reference_id}, the reference is {id}");
        return Err(CodecError::corrupt(msg));
    }
    let mut cells = 0u128;
    for (i, j) in map
        .iter()
        .enumerate()
        .filter_map(|(i, m)| Some((i, m.checked_sub(1)?)))
    {
        let prev = units.get(j as usize).ok_or_else(|| {
            let held = units.len();
            CodecError::corrupt(format!("unit {i} references unit {j} of {held} in {id}"))
        })?;
        cells += prev.dims().len() as u128;
    }
    let mut delta = DeltaDecoder::read(&mut r, abs_eb, cells)?;
    let mut spatial = Vec::new();
    if !nested.is_empty() {
        decompress_field_units_into(nested, &mut spatial, &mut no_reference)?;
    }
    let n_spatial = map.iter().filter(|&&m| m == 0).count();
    if spatial.len() != n_spatial {
        let held = spatial.len();
        let msg = format!("nested stream holds {held} units, the map {n_spatial}");
        return Err(CodecError::dims(msg));
    }
    let mut spatial = spatial.iter();
    for (i, &m) in map.iter().enumerate() {
        match m.checked_sub(1) {
            None => place_unit(dest, i, spatial.next().expect("counted").view())?,
            Some(j) => {
                let prev = units[j as usize].view();
                delta.unit(prev, dest.unit(i, prev.dims())?)?;
            }
        }
    }
    Ok(())
}

/// Parse the adaptive payload header after the unit count: the tight and
/// loose absolute bounds plus the per-unit group table. Returns the
/// `(tight, loose)` pair, the group table (`true` = tight), and the
/// reader positioned at the tight-substream length prefix.
fn read_adaptive_header<'a>(
    r: &mut Reader<'a>,
    n: usize,
) -> CodecResult<((f64, f64), Vec<bool>, Reader<'a>)> {
    let tight = r.get_f64()?;
    let loose = r.get_f64()?;
    if !(tight > 0.0 && tight.is_finite() && loose >= tight && loose.is_finite()) {
        return Err(CodecError::BadParameter {
            what: "adaptive bounds",
        });
    }
    // Each unit consumes a group byte; reject counts the stream can't hold.
    r.check_count(n, 1)?;
    let mut rough = Vec::with_capacity(n);
    for _ in 0..n {
        match r.get_u8()? {
            0 => rough.push(false),
            1 => rough.push(true),
            _ => {
                return Err(CodecError::BadParameter {
                    what: "bound group id",
                })
            }
        }
    }
    Ok((
        (tight, loose),
        rough,
        Reader::new(r.get_raw(r.remaining())?),
    ))
}

/// Recover the absolute error bound each unit of a pipeline stream was
/// actually quantized with. Returns `Some(per-unit bounds, input order)`
/// for adaptive streams (`Mode::Adaptive`, [`FLAG_UNIT_BOUNDS`]) and
/// `None` for fixed-bound streams, which carry no bound on the wire
/// (their format predates the policy and stays byte-identical).
pub fn stream_unit_bounds(bytes: &[u8]) -> CodecResult<Option<Vec<f64>>> {
    let env = expect_envelope(bytes, CodecId::AmricPipeline, VERSION)?;
    let mut r = Reader::new(&bytes[env.payload_offset..]);
    let mode = Mode::from_u8(r.get_u8()?)?;
    if mode != Mode::Adaptive {
        return Ok(None);
    }
    let n = r.get_u32()? as usize;
    let ((tight, loose), rough, _rest) = read_adaptive_header(&mut r, n)?;
    Ok(Some(
        rough
            .iter()
            .map(|&g| if g { tight } else { loose })
            .collect(),
    ))
}

/// What a pipeline stream's header says about its layout — for
/// inspection (`amric_inspect --chunks`), without decoding a payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamLayout {
    /// The stream mode's name: `lr-sle`, `lr-lm`, `interp-linear`,
    /// `interp-cluster`, `adaptive`, `delta`, `interp-placed` or `empty`.
    pub mode: &'static str,
    /// Placed streams only: the clusters, their cells, and how many of
    /// those cells are holes.
    pub placed: Option<PlacedShape>,
}

/// The cluster shape of an `interp-placed` stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlacedShape {
    /// Clusters, each one SZ_Interp domain.
    pub clusters: usize,
    /// Cells over every cluster, units and holes.
    pub cells: u64,
    /// Hole cells: cluster cells no unit fills.
    pub holes: u64,
}

/// Read a pipeline stream's [`StreamLayout`] from its header.
pub fn stream_layout(bytes: &[u8]) -> CodecResult<StreamLayout> {
    let env = expect_envelope(bytes, CodecId::AmricPipeline, VERSION)?;
    let mut r = Reader::new(&bytes[env.payload_offset..]);
    let mode = Mode::from_u8(r.get_u8()?)?;
    let placed = if mode == Mode::InterpPlaced {
        let n = r.get_u32()? as usize;
        let (edge, clusters) = read_placed_header(&mut r, n)?;
        let cells = |slots: usize| u64::try_from(slots as u128 * (edge as u128).pow(3));
        let slots: usize = clusters.iter().map(ClusterGrid::slots).sum();
        let too_big = |_| CodecError::dims("cluster cells overflow");
        Some(PlacedShape {
            clusters: clusters.len(),
            cells: cells(slots).map_err(too_big)?,
            holes: cells(slots - n).map_err(too_big)?,
        })
    } else {
        None
    };
    Ok(StreamLayout {
        mode: mode.name(),
        placed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AmricConfig;

    fn units(n: usize, edge: usize, seed: f64) -> Vec<Buffer3> {
        (0..n)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(edge));
                b.fill_with(|i, j, k| {
                    ((i as f64 * 0.6 + seed) * (u as f64 + 1.0)).sin()
                        + (j + k) as f64 * 0.02
                        + u as f64 * 0.3
                });
                b
            })
            .collect()
    }

    fn compress_resolved(units: &[Buffer3], cfg: &AmricConfig, bound: ResolvedBound) -> Vec<u8> {
        let edge = units.first().map_or(8, |u| u.dims().nx);
        let mut out = Vec::new();
        compress_field_units_resolved_into(
            units,
            cfg,
            edge,
            bound,
            &mut AmricScratch::default(),
            &mut out,
        );
        out
    }

    fn check_bound(orig: &[Buffer3], back: &[Buffer3], abs_eb: f64) {
        assert_eq!(orig.len(), back.len());
        for (o, b) in orig.iter().zip(back) {
            assert_eq!(o.dims(), b.dims());
            let s = ErrorStats::compare(o.data(), b.data());
            assert!(
                s.max_abs_err <= abs_eb * (1.0 + 1e-9),
                "max err {} > {abs_eb}",
                s.max_abs_err
            );
        }
    }

    #[test]
    fn lr_sle_roundtrip() {
        let u = units(12, 8, 0.0);
        let cfg = AmricConfig::lr(1e-3);
        let abs = resolve_abs_eb(&u, 1e-3);
        let bytes = compress_field_units(&u, &cfg, 8);
        let back = decompress_field_units(&bytes).unwrap();
        check_bound(&u, &back, abs);
    }

    #[test]
    fn lr_lm_roundtrip() {
        let u = units(7, 8, 1.0);
        let cfg = AmricConfig::lr(1e-3).with_merge(MergePolicy::LinearMerge);
        let abs = resolve_abs_eb(&u, 1e-3);
        let bytes = compress_field_units(&u, &cfg, 8);
        let back = decompress_field_units(&bytes).unwrap();
        check_bound(&u, &back, abs);
    }

    #[test]
    fn interp_cluster_roundtrip() {
        let u = units(9, 8, 2.0);
        let cfg = AmricConfig::interp(1e-3);
        let abs = resolve_abs_eb(&u, 1e-3);
        let bytes = compress_field_units(&u, &cfg, 8);
        let back = decompress_field_units(&bytes).unwrap();
        check_bound(&u, &back, abs);
    }

    #[test]
    fn interp_linear_roundtrip() {
        let u = units(9, 8, 3.0);
        let cfg = AmricConfig::interp(1e-3).with_cluster_arrangement(false);
        let abs = resolve_abs_eb(&u, 1e-3);
        let bytes = compress_field_units(&u, &cfg, 8);
        let back = decompress_field_units(&bytes).unwrap();
        check_bound(&u, &back, abs);
    }

    #[test]
    fn ragged_units_fall_back_safely() {
        // Mixed shapes (clipped domain edge): every mode must still
        // roundtrip within bound.
        let mut u = units(4, 8, 4.0);
        let mut edge = Buffer3::zeros(Dims3::new(8, 8, 3));
        edge.fill_with(|i, j, k| (i + j + k) as f64 * 0.1);
        u.push(edge);
        let mut odd = Buffer3::zeros(Dims3::new(5, 8, 8));
        odd.fill_with(|i, j, k| (i * j + k) as f64 * 0.05);
        u.push(odd);
        for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
            let abs = resolve_abs_eb(&u, 1e-3);
            let bytes = compress_field_units(&u, &cfg, 8);
            let back = decompress_field_units(&bytes).unwrap();
            check_bound(&u, &back, abs);
        }
    }

    #[test]
    fn resolve_abs_eb_constant_field_falls_back_to_rel() {
        // Range-0 (constant) fields: the REL bound resolves to the raw
        // relative value, and the pipeline honors it end to end.
        let u = vec![Buffer3::from_vec(Dims3::cube(4), vec![3.25; 64]); 3];
        assert_eq!(resolve_abs_eb(&u, 1e-3), 1e-3);
        for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
            let bytes = compress_field_units(&u, &cfg, 4);
            let back = decompress_field_units(&bytes).unwrap();
            check_bound(&u, &back, 1e-3);
        }
    }

    #[test]
    fn empty_units() {
        let cfg = AmricConfig::lr(1e-3);
        let bytes = compress_field_units::<Buffer3>(&[], &cfg, 8);
        assert!(bytes.len() < 16);
        assert!(decompress_field_units(&bytes).unwrap().is_empty());
    }

    #[test]
    fn corrupt_stream_errors() {
        let u = units(3, 8, 5.0);
        let cfg = AmricConfig::lr(1e-3);
        let mut bytes = compress_field_units(&u, &cfg, 8);
        bytes[1] ^= 0xFF;
        assert!(decompress_field_units(&bytes).is_err());
        assert!(decompress_field_units(&bytes[..3]).is_err());
    }

    /// Mixed-roughness fixture: half the units are smooth ramps, half
    /// hold high-frequency structure, so the activity classifier splits
    /// them.
    fn mixed_units(n: usize, edge: usize) -> Vec<Buffer3> {
        (0..n)
            .map(|u| {
                let mut b = Buffer3::zeros(Dims3::cube(edge));
                if u % 2 == 0 {
                    b.fill_with(|i, j, k| (i + j + k) as f64 * 1e-3 + u as f64);
                } else {
                    b.fill_with(|i, j, k| {
                        ((i * 7 + j * 3 + k * 5) as f64 * 1.3).sin() * 4.0 + u as f64
                    });
                }
                b
            })
            .collect()
    }

    #[test]
    fn adaptive_roundtrip_within_per_unit_bounds() {
        let u = mixed_units(10, 8);
        let cfg = AmricConfig::lr(1e-3);
        let bound = ResolvedBound::Adaptive {
            tight: 1e-4,
            loose: 1e-2,
        };
        let bytes = compress_resolved(&u, &cfg, bound);
        let env = expect_envelope(&bytes, CodecId::AmricPipeline, 1).unwrap();
        assert_ne!(env.flags & FLAG_UNIT_BOUNDS, 0, "adaptive flag missing");
        let back = decompress_field_units(&bytes).unwrap();
        let bounds = stream_unit_bounds(&bytes).unwrap().expect("adaptive");
        assert_eq!(bounds.len(), u.len());
        // Both groups must be populated on this fixture.
        assert!(bounds.contains(&1e-4));
        assert!(bounds.contains(&1e-2));
        for ((o, b), &eb) in u.iter().zip(&back).zip(&bounds) {
            assert_eq!(o.dims(), b.dims());
            let s = ErrorStats::compare(o.data(), b.data());
            assert!(
                s.max_abs_err <= eb * (1.0 + 1e-9),
                "unit err {} > its bound {eb}",
                s.max_abs_err
            );
        }
    }

    #[test]
    fn adaptive_single_group_chunks_roundtrip() {
        // Constant chunk: zero activity everywhere classifies all-loose
        // (empty tight substream); identical rough units classify the
        // same way. Both single-group layouts must decode.
        let cfg = AmricConfig::lr(1e-3);
        let bound = ResolvedBound::Adaptive {
            tight: 1e-4,
            loose: 1e-2,
        };
        let flat = vec![Buffer3::from_vec(Dims3::cube(4), vec![2.5; 64]); 3];
        let bytes = compress_resolved(&flat, &cfg, bound);
        let back = decompress_field_units(&bytes).unwrap();
        check_bound(&flat, &back, 1e-2);
        let bounds = stream_unit_bounds(&bytes).unwrap().expect("adaptive");
        assert!(bounds.iter().all(|&b| b == 1e-2), "constant ⇒ all loose");
    }

    #[test]
    fn adaptive_empty_units_is_plain_empty_marker() {
        let cfg = AmricConfig::lr(1e-3);
        let bound = ResolvedBound::Adaptive {
            tight: 1e-4,
            loose: 1e-2,
        };
        let bytes = compress_resolved(&[], &cfg, bound);
        let fixed = compress_field_units::<Buffer3>(&[], &cfg, 8);
        assert_eq!(bytes, fixed, "empty chunks carry no bound");
        assert_eq!(stream_unit_bounds(&bytes).unwrap(), None);
    }

    #[test]
    fn fixed_policy_streams_carry_no_unit_bounds() {
        let u = units(6, 8, 9.0);
        for cfg in [AmricConfig::lr(1e-3), AmricConfig::interp(1e-3)] {
            let bytes = compress_field_units(&u, &cfg, 8);
            let env = expect_envelope(&bytes, CodecId::AmricPipeline, 1).unwrap();
            assert_eq!(env.flags & FLAG_UNIT_BOUNDS, 0);
            assert_eq!(stream_unit_bounds(&bytes).unwrap(), None);
        }
    }

    #[test]
    fn resolved_bound_from_policy() {
        use crate::config::BoundPolicy;
        let f = ResolvedBound::from_policy(BoundPolicy::Fixed, 1e-3, 10.0);
        assert_eq!(f, ResolvedBound::Fixed(1e-2));
        assert_eq!(f.loose(), 1e-2);
        let a = ResolvedBound::from_policy(
            BoundPolicy::GradientAdaptive {
                tight: 1e-4,
                loose: 1e-2,
            },
            1e-3,
            10.0,
        );
        assert_eq!(
            a,
            ResolvedBound::Adaptive {
                tight: 1e-3,
                loose: 1e-1,
            }
        );
        assert_eq!(a.loose(), 1e-1);
        // Range 0 falls back to the relative values themselves.
        let z = ResolvedBound::from_policy(
            BoundPolicy::GradientAdaptive {
                tight: 1e-4,
                loose: 1e-2,
            },
            1e-3,
            0.0,
        );
        assert_eq!(
            z,
            ResolvedBound::Adaptive {
                tight: 1e-4,
                loose: 1e-2,
            }
        );
    }

    #[test]
    fn adaptive_corrupt_streams_error() {
        let u = mixed_units(6, 8);
        let cfg = AmricConfig::lr(1e-3);
        let bound = ResolvedBound::Adaptive {
            tight: 1e-4,
            loose: 1e-2,
        };
        let bytes = compress_resolved(&u, &cfg, bound);
        let env = expect_envelope(&bytes, CodecId::AmricPipeline, 1).unwrap();
        // Forge a group id > 1.
        let mut forged = bytes.clone();
        forged[env.payload_offset + 1 + 4 + 16] = 7;
        assert!(decompress_field_units(&forged).is_err());
        assert!(stream_unit_bounds(&forged).is_err());
        // Swap the bounds so tight > loose.
        let mut swapped = bytes.clone();
        let p = env.payload_offset + 1 + 4;
        swapped[p..p + 8].copy_from_slice(&1e-2f64.to_le_bytes());
        swapped[p + 8..p + 16].copy_from_slice(&1e-4f64.to_le_bytes());
        assert!(decompress_field_units(&swapped).is_err());
        // Truncations must error, never panic.
        for cut in [env.payload_offset + 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(decompress_field_units(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn sle_beats_lm_on_discontiguous_units() {
        // Units from scattered spatial locations: SLE keeps prediction
        // local, LM lets Lorenzo leak across unrelated block boundaries
        // (paper Fig. 6). Compare reconstruction error at equal settings.
        let u: Vec<Buffer3> = (0..16)
            .map(|i| {
                let mut b = Buffer3::zeros(Dims3::cube(8));
                // Strongly different base level per unit simulates blocks
                // sampled far apart.
                let base = (i as f64 * 37.0).sin() * 100.0;
                b.fill_with(|x, y, z| base + ((x + y + z) as f64 * 0.4).sin());
                b
            })
            .collect();
        let sle_cfg = AmricConfig::lr(1e-4);
        let lm_cfg = sle_cfg.with_merge(MergePolicy::LinearMerge);
        let sle_bytes = compress_field_units(&u, &sle_cfg, 8).len();
        let lm_bytes = compress_field_units(&u, &lm_cfg, 8).len();
        // SLE should not be (much) worse; on discontiguous data it wins.
        assert!(
            sle_bytes as f64 <= lm_bytes as f64 * 1.05,
            "SLE {sle_bytes} vs LM {lm_bytes}"
        );
    }
}
