//! The `amr-serve` wire protocol: length-prefixed binary frames over any
//! byte stream (TCP or Unix-domain sockets — the protocol never cares).
//!
//! # Framing
//!
//! Every message is one frame: a little-endian `u32` payload length
//! followed by that many payload bytes. The payload's first byte is the
//! opcode; the rest is the opcode-specific body encoded with the same
//! tiny little-endian helpers the compressed-stream headers use
//! ([`sz_codec::wire`]) — no serde, no heavyweight framework.
//!
//! Robustness rules (enforced here, tested in
//! `tests/protocol_robustness.rs`):
//!
//! * A declared length beyond the reader's cap is rejected **before any
//!   allocation** ([`ServeError::FrameTooLarge`]).
//! * Payload bytes are read straight into the payload buffer, which
//!   grows only as bytes arrive, so a lying length never produces an
//!   absurd up-front allocation; a peer that disconnects mid-frame
//!   surfaces as [`ServeError::Disconnected`].
//! * Every body decode is bounds-checked through [`sz_codec::wire::Reader`];
//!   malformed bodies surface as [`ServeError::Frame`], never a panic.
//! * Array counts are validated against the bytes actually present
//!   (`check_count`) before any `Vec` reservation.
//! * A count may size an allocation the bytes present do not bound only
//!   under the cap: the dense box of a region body (below) is charged
//!   against the response cap before it is allocated.
//!
//! Requests are deliberately small (paths and a few coordinates): the
//! request cap is [`MAX_REQUEST_FRAME`]. Responses carry decoded field
//! data and use the client's configurable cap
//! ([`DEFAULT_MAX_RESPONSE_FRAME`]).
//!
//! # Region body
//!
//! A `Region` / `Plane` / `Roi` answer crosses the wire as the cells that
//! are stored, not as a dense box: AMR stores fine data only where the
//! mesh is refined, and most of a multi-level answer's box is cells no
//! unit holds. One region is
//!
//! ```text
//! level u32 | lo 3×i64 | hi 3×i64 | npatches u32
//! npatches × ( offset 3×u32 (from lo) | size 3×u32 | size.product() × f64, rows x-fastest )
//! ```
//!
//! and the decoder zero-fills the inclusive box `lo..=hi` once and pastes
//! the patches in order (a later patch overwrites an earlier one), so
//! [`WireRegion::data`] is the dense box by construction. The server
//! writes one patch per stored unit overlap; [`Response::encode`], which
//! tests and tools build from dense data, writes the box as one patch —
//! same header writers, same decoder. Guards, each before the allocation
//! it protects: every extent `hi − lo + 1` is checked (`> 0`, fits `u32`),
//! then `cells × 8`, summed over the regions of a response, against the
//! response cap; `npatches` against the bytes present; per patch and per
//! axis `size > 0` and `offset + size ≤ extent` before any product; the
//! values against the bytes present. Opcodes `0x84` / `0x85`, which
//! carried one dense box per region, are retired rather than re-meant:
//! they decode as unknown opcodes.

use crate::catalog::CatalogStats;
use amr_query::{CacheStats, EngineStats};
use std::io::{ErrorKind, IoSlice, Read, Write};
use sz_codec::wire::{Reader, Writer};

/// Anything a connection runs over (TCP or Unix-domain stream).
pub(crate) trait Conn: Read + Write + Send {}
impl<T: Read + Write + Send> Conn for T {}

/// Hard cap on request frames (requests are tiny; anything bigger is a
/// confused or malicious peer).
pub const MAX_REQUEST_FRAME: u32 = 1 << 20;

/// Default cap a client accepts for one response frame (decoded region
/// payloads ride in responses, so this is generous).
pub const DEFAULT_MAX_RESPONSE_FRAME: u32 = 1 << 30;

/// Typed error code carried by [`Response::Error`] frames.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The frame itself was malformed (bad opcode, truncated body).
    BadFrame = 1,
    /// The request was well-formed but semantically invalid.
    BadRequest = 2,
    /// Unknown open-file handle.
    BadHandle = 3,
    /// The plotfile could not be opened.
    OpenFailed = 4,
    /// The query was rejected by the engine (bad field/level/region).
    BadQuery = 5,
    /// The plotfile contradicts its own metadata.
    Inconsistent = 6,
    /// A chunk failed to decode.
    Codec = 7,
    /// Filesystem/network error while answering.
    Io = 8,
    /// Admission control: the request's estimated decode bytes, or its
    /// answer, exceed the per-connection in-flight bound.
    TooLarge = 9,
    /// The server is shutting down.
    Shutdown = 10,
    /// Anything else.
    Internal = 11,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::BadFrame,
            2 => ErrorCode::BadRequest,
            3 => ErrorCode::BadHandle,
            4 => ErrorCode::OpenFailed,
            5 => ErrorCode::BadQuery,
            6 => ErrorCode::Inconsistent,
            7 => ErrorCode::Codec,
            8 => ErrorCode::Io,
            9 => ErrorCode::TooLarge,
            10 => ErrorCode::Shutdown,
            11 => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// Anything that can go wrong speaking the protocol.
#[derive(Debug)]
pub enum ServeError {
    /// Transport-level I/O failure.
    Io(std::io::Error),
    /// The peer closed the stream (at a frame boundary or mid-frame).
    Disconnected,
    /// Malformed frame or body.
    Frame(String),
    /// A declared frame length beyond the configured cap.
    FrameTooLarge {
        /// Declared payload length.
        len: u32,
        /// The reader's cap.
        cap: u32,
    },
    /// The server answered with a typed error frame (client side).
    Remote {
        /// Typed error code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Disconnected => write!(f, "peer disconnected"),
            ServeError::Frame(m) => write!(f, "malformed frame: {m}"),
            ServeError::FrameTooLarge { len, cap } => {
                write!(f, "frame of {len} bytes exceeds cap of {cap}")
            }
            ServeError::Remote { code, message } => {
                write!(f, "server error ({code:?}): {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            ServeError::Disconnected
        } else {
            ServeError::Io(e)
        }
    }
}

impl From<sz_codec::CodecError> for ServeError {
    fn from(e: sz_codec::CodecError) -> Self {
        ServeError::Frame(e.to_string())
    }
}

/// Result alias.
pub type ServeResult<T> = Result<T, ServeError>;

/// Which AMR levels a wire query covers (mirror of
/// [`amr_query::LevelSelect`], kept separate so the wire format never
/// drifts silently with the library enum).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireSelect {
    /// Every level.
    All,
    /// One level.
    Level(u32),
    /// Inclusive range.
    Range(u32, u32),
    /// Finest level only.
    Finest,
}

impl WireSelect {
    fn encode(&self, w: &mut Writer) {
        match self {
            WireSelect::All => w.put_u8(0),
            WireSelect::Level(l) => {
                w.put_u8(1);
                w.put_u32(*l);
            }
            WireSelect::Range(lo, hi) => {
                w.put_u8(2);
                w.put_u32(*lo);
                w.put_u32(*hi);
            }
            WireSelect::Finest => w.put_u8(3),
        }
    }

    fn decode(r: &mut Reader) -> ServeResult<WireSelect> {
        Ok(match r.get_u8()? {
            0 => WireSelect::All,
            1 => WireSelect::Level(r.get_u32()?),
            2 => WireSelect::Range(r.get_u32()?, r.get_u32()?),
            3 => WireSelect::Finest,
            t => return Err(ServeError::Frame(format!("unknown level-select tag {t}"))),
        })
    }
}

impl From<WireSelect> for amr_query::LevelSelect {
    fn from(s: WireSelect) -> Self {
        match s {
            WireSelect::All => amr_query::LevelSelect::All,
            WireSelect::Level(l) => amr_query::LevelSelect::Level(l as usize),
            WireSelect::Range(lo, hi) => amr_query::LevelSelect::Range(lo as usize, hi as usize),
            WireSelect::Finest => amr_query::LevelSelect::Finest,
        }
    }
}

/// A client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Open (or re-validate) a plotfile through the server's catalog.
    Open {
        /// Path as the server resolves it.
        path: String,
    },
    /// Release one open-file handle.
    Close {
        /// Handle from [`Response::Opened`].
        handle: u32,
    },
    /// Sample one cell (finest covering level wins).
    Point {
        /// Open-file handle.
        handle: u32,
        /// Field component.
        field: u32,
        /// Cell in finest-level index space.
        p: [i64; 3],
    },
    /// Full-domain plane slice at one level.
    Plane {
        /// Open-file handle.
        handle: u32,
        /// Field component.
        field: u32,
        /// Level the plane cuts.
        level: u32,
        /// Axis pinned (0 = x, 1 = y, 2 = z).
        axis: u8,
        /// Pinned coordinate in the level's index space.
        coord: i64,
    },
    /// Region-of-interest query over selected levels (ROI in level-0
    /// coordinates, refined per level).
    Roi {
        /// Open-file handle.
        handle: u32,
        /// Field component.
        field: u32,
        /// Inclusive ROI lower corner.
        lo: [i64; 3],
        /// Inclusive ROI upper corner.
        hi: [i64; 3],
        /// Level selection.
        select: WireSelect,
    },
    /// One rectangular region at one level (region in that level's own
    /// index space).
    Region {
        /// Open-file handle.
        handle: u32,
        /// Field component.
        field: u32,
        /// Level queried.
        level: u32,
        /// Inclusive lower corner.
        lo: [i64; 3],
        /// Inclusive upper corner.
        hi: [i64; 3],
    },
    /// Server/cache/catalog statistics snapshot.
    Stats,
    /// Ask the server to stop accepting connections.
    Shutdown,
}

const OP_OPEN: u8 = 0x01;
const OP_CLOSE: u8 = 0x02;
const OP_POINT: u8 = 0x03;
const OP_PLANE: u8 = 0x04;
const OP_ROI: u8 = 0x05;
const OP_REGION: u8 = 0x06;
const OP_STATS: u8 = 0x07;
const OP_SHUTDOWN: u8 = 0x08;

const OP_OPENED: u8 = 0x81;
const OP_CLOSED: u8 = 0x82;
const OP_POINT_RESULT: u8 = 0x83;
// 0x84 / 0x85 carried one dense box per region and are retired, not
// re-meant: a peer that still speaks them gets a typed unknown-opcode
// error instead of a misparse.
const OP_STATS_RESULT: u8 = 0x86;
const OP_SHUTDOWN_ACK: u8 = 0x87;
const OP_REGION_RESULT: u8 = 0x88;
const OP_VIEW_RESULT: u8 = 0x89;
pub(crate) const OP_ERROR: u8 = 0xFF;

fn put_vect(w: &mut Writer, v: &[i64; 3]) {
    for c in v {
        w.put_u64(*c as u64);
    }
}

fn get_vect(r: &mut Reader) -> ServeResult<[i64; 3]> {
    Ok([
        r.get_u64()? as i64,
        r.get_u64()? as i64,
        r.get_u64()? as i64,
    ])
}

fn put_string(w: &mut Writer, s: &str) {
    w.put_block(s.as_bytes());
}

fn get_string(r: &mut Reader) -> ServeResult<String> {
    let b = r.get_block()?;
    String::from_utf8(b.to_vec()).map_err(|_| ServeError::Frame("non-UTF-8 string".into()))
}

impl Request {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Request::Open { path } => {
                w.put_u8(OP_OPEN);
                put_string(&mut w, path);
            }
            Request::Close { handle } => {
                w.put_u8(OP_CLOSE);
                w.put_u32(*handle);
            }
            Request::Point { handle, field, p } => {
                w.put_u8(OP_POINT);
                w.put_u32(*handle);
                w.put_u32(*field);
                put_vect(&mut w, p);
            }
            Request::Plane {
                handle,
                field,
                level,
                axis,
                coord,
            } => {
                w.put_u8(OP_PLANE);
                w.put_u32(*handle);
                w.put_u32(*field);
                w.put_u32(*level);
                w.put_u8(*axis);
                w.put_u64(*coord as u64);
            }
            Request::Roi {
                handle,
                field,
                lo,
                hi,
                select,
            } => {
                w.put_u8(OP_ROI);
                w.put_u32(*handle);
                w.put_u32(*field);
                put_vect(&mut w, lo);
                put_vect(&mut w, hi);
                select.encode(&mut w);
            }
            Request::Region {
                handle,
                field,
                level,
                lo,
                hi,
            } => {
                w.put_u8(OP_REGION);
                w.put_u32(*handle);
                w.put_u32(*field);
                w.put_u32(*level);
                put_vect(&mut w, lo);
                put_vect(&mut w, hi);
            }
            Request::Stats => w.put_u8(OP_STATS),
            Request::Shutdown => w.put_u8(OP_SHUTDOWN),
        }
        w.into_bytes()
    }

    /// Decode a frame payload.
    pub fn decode(payload: &[u8]) -> ServeResult<Request> {
        let mut r = Reader::new(payload);
        let op = r.get_u8()?;
        let req = match op {
            OP_OPEN => Request::Open {
                path: get_string(&mut r)?,
            },
            OP_CLOSE => Request::Close {
                handle: r.get_u32()?,
            },
            OP_POINT => Request::Point {
                handle: r.get_u32()?,
                field: r.get_u32()?,
                p: get_vect(&mut r)?,
            },
            OP_PLANE => Request::Plane {
                handle: r.get_u32()?,
                field: r.get_u32()?,
                level: r.get_u32()?,
                axis: r.get_u8()?,
                coord: r.get_u64()? as i64,
            },
            OP_ROI => Request::Roi {
                handle: r.get_u32()?,
                field: r.get_u32()?,
                lo: get_vect(&mut r)?,
                hi: get_vect(&mut r)?,
                select: WireSelect::decode(&mut r)?,
            },
            OP_REGION => Request::Region {
                handle: r.get_u32()?,
                field: r.get_u32()?,
                level: r.get_u32()?,
                lo: get_vect(&mut r)?,
                hi: get_vect(&mut r)?,
            },
            OP_STATS => Request::Stats,
            OP_SHUTDOWN => Request::Shutdown,
            other => {
                return Err(ServeError::Frame(format!(
                    "unknown request opcode {other:#x}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(ServeError::Frame(format!(
                "{} trailing bytes after request body",
                r.remaining()
            )));
        }
        Ok(req)
    }
}

/// One level's slice of a region/ROI response.
#[derive(Clone, Debug, PartialEq)]
pub struct WireRegion {
    /// Level the data came from.
    pub level: u32,
    /// Inclusive lower corner in the level's index space.
    pub lo: [i64; 3],
    /// Inclusive upper corner.
    pub hi: [i64; 3],
    /// Values in Fortran order over `lo..=hi` (cells no unit stores read
    /// zero). A decoded region always holds exactly its box; one built
    /// with any other length encodes to bytes the decoder refuses.
    pub data: Vec<f64>,
}

/// Encoded bytes of a region before its patches: level, two corners,
/// patch count.
const REGION_HEADER: usize = 4 + 48 + 4;

/// Encoded bytes of a patch before its values: offset and size.
const PATCH_HEADER: usize = 12 + 12;

/// Incremental encoder of a `Region` / `View` payload: the one set of
/// header writers. [`Response::encode`] writes each dense box as one
/// patch; the server writes one patch per stored unit overlap and never
/// holds a dense box.
pub(crate) struct AnswerWriter {
    w: Writer,
    /// Lower corner of the open region (patch offsets count from it).
    lo: [i64; 3],
    /// Where the open region's patch count sits (kept current as patches
    /// are opened), and the count so far.
    count_at: usize,
    npatches: u32,
}

impl AnswerWriter {
    fn new(reserve: usize) -> AnswerWriter {
        AnswerWriter {
            w: Writer::from_vec(Vec::with_capacity(reserve)),
            lo: [0; 3],
            count_at: 0,
            npatches: 0,
        }
    }

    /// A `Region` payload; `reserve` is the encoded size of its region.
    pub(crate) fn region(reserve: usize) -> AnswerWriter {
        let mut out = AnswerWriter::new(1 + reserve);
        out.w.put_u8(OP_REGION_RESULT);
        out
    }

    /// A `View` payload of `nregions` regions; `reserve` is their encoded
    /// size.
    pub(crate) fn view(field: u32, field_name: &str, nregions: usize, reserve: usize) -> Self {
        // Opcode, field, name block, region count, regions.
        let mut out = AnswerWriter::new(1 + 4 + 8 + field_name.len() + 4 + reserve);
        out.w.put_u8(OP_VIEW_RESULT);
        out.w.put_u32(field);
        put_string(&mut out.w, field_name);
        out.w.put_u32(nregions as u32);
        out
    }

    /// Open the next region over `lo..=hi` (inclusive) with no patch yet.
    pub(crate) fn begin_region(&mut self, level: u32, lo: &[i64; 3], hi: &[i64; 3]) {
        self.w.put_u32(level);
        put_vect(&mut self.w, lo);
        put_vect(&mut self.w, hi);
        (self.lo, self.count_at, self.npatches) = (*lo, self.w.len(), 0);
        self.w.put_u32(0);
    }

    /// Open a patch over `lo..=hi` inside the open region; its
    /// `(hi − lo + 1).product()` values follow through
    /// [`AnswerWriter::values`], rows x-fastest. Offsets and sizes that do
    /// not fit the format's `u32`s wrap: no such region has corners the
    /// decoder accepts, so it is refused there before a patch is read.
    pub(crate) fn begin_patch(&mut self, lo: &[i64; 3], hi: &[i64; 3]) {
        self.npatches += 1;
        let count = self.npatches.to_le_bytes();
        self.w.buf_mut()[self.count_at..self.count_at + 4].copy_from_slice(&count);
        let offset = [0, 1, 2].map(|d| lo[d].wrapping_sub(self.lo[d]) as u32);
        let size = [0, 1, 2].map(|d| hi[d].wrapping_sub(lo[d]).wrapping_add(1) as u32);
        for word in offset.into_iter().chain(size) {
            self.w.put_u32(word);
        }
    }

    /// The next values of the open patch.
    #[inline]
    pub(crate) fn values(&mut self, run: &[f64]) {
        self.w.put_f64s(run);
    }

    /// The finished payload.
    pub(crate) fn finish(self) -> Vec<u8> {
        self.w.into_bytes()
    }
}

impl WireRegion {
    /// Encoded size in bytes (the dense box as one patch).
    fn wire_len(&self) -> usize {
        REGION_HEADER + PATCH_HEADER + 8 * self.data.len()
    }

    fn encode(&self, out: &mut AnswerWriter) {
        out.begin_region(self.level, &self.lo, &self.hi);
        out.begin_patch(&self.lo, &self.hi);
        out.values(&self.data);
    }

    /// Decode one region body: zero-fill the box the corners span, paste
    /// the patches in order (a later patch overwrites an earlier one).
    /// `budget` is what is left of the response's allocation cap; the box
    /// is charged against it **before** it is allocated — it is the one
    /// allocation here that the bytes present do not bound.
    fn decode(r: &mut Reader, budget: &mut u64) -> ServeResult<WireRegion> {
        let level = r.get_u32()?;
        let lo = get_vect(r)?;
        let hi = get_vect(r)?;
        let extent = |d: usize| {
            hi[d]
                .checked_sub(lo[d])
                .and_then(|span| span.checked_add(1))
                .filter(|&cells| cells > 0)
                .and_then(|cells| u32::try_from(cells).ok())
                .ok_or_else(|| {
                    ServeError::Frame(format!("region corners {lo:?}..={hi:?} span no valid box"))
                })
        };
        let extent = [extent(0)?, extent(1)?, extent(2)?];
        let bytes = extent
            .iter()
            .try_fold(8u64, |bytes, &e| bytes.checked_mul(u64::from(e)))
            .filter(|bytes| *bytes <= *budget)
            .ok_or_else(|| {
                ServeError::Frame(format!(
                    "region of {extent:?} cells exceeds the {budget} bytes left of the response cap"
                ))
            })?;
        *budget -= bytes;
        let npatches = r.get_u32()? as usize;
        let npatches = r.check_count(npatches, PATCH_HEADER)?;
        // `bytes` is under a `u32` cap: the count fits any `usize`.
        let mut data = vec![0.0; (bytes / 8) as usize];
        let [ex, ey, _] = extent.map(|e| e as usize);
        for _ in 0..npatches {
            let offset = [r.get_u32()?, r.get_u32()?, r.get_u32()?];
            let size = [r.get_u32()?, r.get_u32()?, r.get_u32()?];
            // Per axis, before any product: inside the box, so the
            // product is at most the box's (already bounded) cell count.
            let inside = |d: usize| {
                let end = offset[d].checked_add(size[d]);
                size[d] > 0 && end.is_some_and(|end| end <= extent[d])
            };
            if !(inside(0) && inside(1) && inside(2)) {
                return Err(ServeError::Frame(format!(
                    "patch {offset:?} + {size:?} is empty or leaves its {extent:?} box"
                )));
            }
            let [ox, oy, oz] = offset.map(|o| o as usize);
            let [sx, sy, sz] = size.map(|s| s as usize);
            r.check_count(sx * sy * sz, 8)?;
            for z in oz..oz + sz {
                for y in oy..oy + sy {
                    let dst = (z * ey + y) * ex + ox;
                    r.get_f64s_into(&mut data[dst..dst + sx])?;
                }
            }
        }
        Ok(WireRegion {
            level,
            lo,
            hi,
            data,
        })
    }
}

/// Summary returned by a successful open.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenInfo {
    /// Connection-local handle for subsequent queries.
    pub handle: u32,
    /// Process-wide id of this `(path, generation)` in the shared cache.
    pub file_id: u64,
    /// Generation stamp `(len_bytes, mtime_ns)` the catalog validated.
    pub generation: (u64, u64),
    /// Number of AMR levels.
    pub levels: u32,
    /// Field names in component order.
    pub fields: Vec<String>,
}

/// One file's row in a stats report: the file's identity and its
/// engine's counters, the engine's handle into the shared store included.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FileStats {
    /// Path the catalog opened.
    pub path: String,
    /// Shared-cache file id.
    pub file_id: u64,
    /// Generation stamp `(len_bytes, mtime_ns)`.
    pub generation: (u64, u64),
    /// The engine's counters. On a server, plane, region and ROI counts
    /// are the requests the catalog entry served
    /// ([`crate::CatalogEntry::served`]), and the cache's resident and
    /// capacity bytes are the report's store snapshot.
    pub engine: EngineStats,
}

/// Whole-server statistics snapshot: the server's own counters, then the
/// snapshots of the shared store, the catalog and each open file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsReport {
    /// Connections accepted over the server's lifetime.
    pub connections_total: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Requests answered (including error answers).
    pub requests: u64,
    /// Requests answered with an error frame.
    pub errors: u64,
    /// Interactive-class queries admitted.
    pub interactive_queries: u64,
    /// Scan-class queries admitted.
    pub scan_queries: u64,
    /// Gate holds taken by scans: one per chunk batch warmed (a scan
    /// never takes more than the chunks it touches).
    pub scan_slabs: u64,
    /// Requests rejected because their decode estimate exceeded the
    /// per-connection bound.
    pub rejected_too_large: u64,
    /// Payload bytes written in responses.
    pub response_bytes: u64,
    /// The shared chunk store, whole-store.
    pub store: CacheStats,
    /// The engine catalog.
    pub catalog: CatalogStats,
    /// Per-file rows.
    pub files: Vec<FileStats>,
}

/// A counter snapshot that crosses the wire as `N` little-endian `u64`s.
/// [`WireCounters::slots`] names its fields once, in wire order; `put`
/// and `get` both walk that list.
trait WireCounters<const N: usize>: Copy + Default {
    fn slots(&mut self) -> [&mut u64; N];

    fn put(mut self, w: &mut Writer) {
        for v in self.slots() {
            w.put_u64(*v);
        }
    }

    fn get(r: &mut Reader) -> ServeResult<Self> {
        let mut snapshot = Self::default();
        for v in snapshot.slots() {
            *v = r.get_u64()?;
        }
        Ok(snapshot)
    }
}

impl WireCounters<6> for CacheStats {
    fn slots(&mut self) -> [&mut u64; 6] {
        [
            &mut self.hits,
            &mut self.misses,
            &mut self.insertions,
            &mut self.evictions,
            &mut self.resident_bytes,
            &mut self.capacity_bytes,
        ]
    }
}

impl WireCounters<5> for CatalogStats {
    fn slots(&mut self) -> [&mut u64; 5] {
        [
            &mut self.open_files,
            &mut self.opens,
            &mut self.open_hits,
            &mut self.reopens_stale,
            &mut self.evicted_idle,
        ]
    }
}

/// A file row carries its cache handle's four counters and the engine's
/// seven. The resident and capacity bytes describe the whole store: the
/// report's `store` carries them once.
impl WireCounters<11> for EngineStats {
    fn slots(&mut self) -> [&mut u64; 11] {
        [
            &mut self.cache.hits,
            &mut self.cache.misses,
            &mut self.cache.insertions,
            &mut self.cache.evictions,
            &mut self.roi_queries,
            &mut self.region_queries,
            &mut self.plane_queries,
            &mut self.point_queries,
            &mut self.chunks_decoded,
            &mut self.decoded_bytes,
            &mut self.read_bytes,
        ]
    }
}

/// Least encoded bytes of a file row: an empty path's length word, the
/// file id, the generation pair and eleven counters.
const FILE_ROW_MIN: usize = 8 * 15;

impl StatsReport {
    fn encode(&self, w: &mut Writer) {
        for v in [
            self.connections_total,
            self.connections_active,
            self.requests,
            self.errors,
            self.interactive_queries,
            self.scan_queries,
            self.scan_slabs,
            self.rejected_too_large,
            self.response_bytes,
        ] {
            w.put_u64(v);
        }
        self.store.put(w);
        self.catalog.put(w);
        w.put_u32(self.files.len() as u32);
        for f in &self.files {
            put_string(w, &f.path);
            for v in [f.file_id, f.generation.0, f.generation.1] {
                w.put_u64(v);
            }
            f.engine.put(w);
        }
    }

    fn decode(r: &mut Reader) -> ServeResult<StatsReport> {
        let mut report = StatsReport {
            connections_total: r.get_u64()?,
            connections_active: r.get_u64()?,
            requests: r.get_u64()?,
            errors: r.get_u64()?,
            interactive_queries: r.get_u64()?,
            scan_queries: r.get_u64()?,
            scan_slabs: r.get_u64()?,
            rejected_too_large: r.get_u64()?,
            response_bytes: r.get_u64()?,
            store: CacheStats::get(r)?,
            catalog: CatalogStats::get(r)?,
            files: Vec::new(),
        };
        let n = r.get_u32()? as usize;
        for _ in 0..r.check_count(n, FILE_ROW_MIN)? {
            let mut row = FileStats {
                path: get_string(r)?,
                file_id: r.get_u64()?,
                generation: (r.get_u64()?, r.get_u64()?),
                engine: EngineStats::get(r)?,
            };
            row.engine.cache.resident_bytes = report.store.resident_bytes;
            row.engine.cache.capacity_bytes = report.store.capacity_bytes;
            report.files.push(row);
        }
        Ok(report)
    }
}

/// A server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Successful open.
    Opened(OpenInfo),
    /// Successful close.
    Closed,
    /// Point sample: `None` when no level holds the cell.
    Point(Option<(u32, [i64; 3], f64)>),
    /// One level region (plane and region queries).
    Region(WireRegion),
    /// An ROI view: per-level slices, coarsest first.
    View {
        /// Queried field component.
        field: u32,
        /// Queried field name.
        field_name: String,
        /// Per-level slices.
        levels: Vec<WireRegion>,
    },
    /// Statistics snapshot.
    Stats(StatsReport),
    /// Shutdown acknowledged.
    ShutdownAck,
    /// Typed failure.
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Encode into a frame payload (opcode + body).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            Response::Opened(info) => {
                w.put_u8(OP_OPENED);
                w.put_u32(info.handle);
                w.put_u64(info.file_id);
                w.put_u64(info.generation.0);
                w.put_u64(info.generation.1);
                w.put_u32(info.levels);
                w.put_u32(info.fields.len() as u32);
                for f in &info.fields {
                    put_string(&mut w, f);
                }
            }
            Response::Closed => w.put_u8(OP_CLOSED),
            Response::Point(p) => {
                w.put_u8(OP_POINT_RESULT);
                match p {
                    None => w.put_u8(0),
                    Some((level, cell, value)) => {
                        w.put_u8(1);
                        w.put_u32(*level);
                        put_vect(&mut w, cell);
                        w.put_f64(*value);
                    }
                }
            }
            // The two answers that carry field data: each dense box as one
            // patch, in a buffer sized once, exactly.
            Response::Region(region) => {
                let mut out = AnswerWriter::region(region.wire_len());
                region.encode(&mut out);
                return out.finish();
            }
            Response::View {
                field,
                field_name,
                levels,
            } => {
                let regions = levels.iter().map(WireRegion::wire_len).sum();
                let mut out = AnswerWriter::view(*field, field_name, levels.len(), regions);
                for l in levels {
                    l.encode(&mut out);
                }
                return out.finish();
            }
            Response::Stats(report) => {
                w.put_u8(OP_STATS_RESULT);
                report.encode(&mut w);
            }
            Response::ShutdownAck => w.put_u8(OP_SHUTDOWN_ACK),
            Response::Error { code, message } => {
                w.put_u8(OP_ERROR);
                w.put_u16(*code as u16);
                put_string(&mut w, message);
            }
        }
        w.into_bytes()
    }

    /// Decode a frame payload under [`DEFAULT_MAX_RESPONSE_FRAME`] as its
    /// allocation cap (see "Region body" in the module docs).
    pub fn decode(payload: &[u8]) -> ServeResult<Response> {
        Self::decode_within(payload, DEFAULT_MAX_RESPONSE_FRAME)
    }

    /// Decode a frame payload that may make the caller allocate at most
    /// `cap` bytes of dense boxes, summed over the regions it carries:
    /// the zero-filled box of a region is sized by its corners, not by
    /// the bytes present, so it gets the bound the frame itself has.
    pub(crate) fn decode_within(payload: &[u8], cap: u32) -> ServeResult<Response> {
        let mut r = Reader::new(payload);
        let mut budget = u64::from(cap);
        let op = r.get_u8()?;
        let resp = match op {
            OP_OPENED => {
                let handle = r.get_u32()?;
                let file_id = r.get_u64()?;
                let generation = (r.get_u64()?, r.get_u64()?);
                let levels = r.get_u32()?;
                let n = r.get_u32()? as usize;
                let n = r.check_count(n, 8)?;
                let mut fields = Vec::with_capacity(n);
                for _ in 0..n {
                    fields.push(get_string(&mut r)?);
                }
                Response::Opened(OpenInfo {
                    handle,
                    file_id,
                    generation,
                    levels,
                    fields,
                })
            }
            OP_CLOSED => Response::Closed,
            OP_POINT_RESULT => match r.get_u8()? {
                0 => Response::Point(None),
                1 => {
                    let level = r.get_u32()?;
                    let cell = get_vect(&mut r)?;
                    let value = r.get_f64()?;
                    Response::Point(Some((level, cell, value)))
                }
                t => return Err(ServeError::Frame(format!("bad point-option tag {t}"))),
            },
            OP_REGION_RESULT => Response::Region(WireRegion::decode(&mut r, &mut budget)?),
            OP_VIEW_RESULT => {
                let field = r.get_u32()?;
                let field_name = get_string(&mut r)?;
                let n = r.get_u32()? as usize;
                let n = r.check_count(n, REGION_HEADER)?;
                let mut levels = Vec::with_capacity(n);
                for _ in 0..n {
                    levels.push(WireRegion::decode(&mut r, &mut budget)?);
                }
                Response::View {
                    field,
                    field_name,
                    levels,
                }
            }
            OP_STATS_RESULT => Response::Stats(StatsReport::decode(&mut r)?),
            OP_SHUTDOWN_ACK => Response::ShutdownAck,
            OP_ERROR => {
                let raw = r.get_u16()?;
                let code = ErrorCode::from_u16(raw)
                    .ok_or_else(|| ServeError::Frame(format!("unknown error code {raw}")))?;
                Response::Error {
                    code,
                    message: get_string(&mut r)?,
                }
            }
            other => {
                return Err(ServeError::Frame(format!(
                    "unknown response opcode {other:#x}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(ServeError::Frame(format!(
                "{} trailing bytes after response body",
                r.remaining()
            )));
        }
        Ok(resp)
    }
}

/// Write one frame: length prefix + payload, handed to the transport
/// together (one `writev` on a socket: under `TCP_NODELAY` a prefix
/// written on its own leaves as its own segment and wake-up). Loops only
/// after a short write.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> ServeResult<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| ServeError::Frame("payload exceeds u32 framing".into()))?;
    let prefix = len.to_le_bytes();
    let mut bufs = [IoSlice::new(&prefix), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ServeError::Disconnected),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    w.flush()?;
    Ok(())
}

/// Read one frame's payload, enforcing `cap` on the declared length
/// before allocating and growing the buffer only while bytes actually
/// arrive (a lying length prefix can therefore never force an absurd
/// allocation — EOF mid-body is [`ServeError::Disconnected`]).
pub fn read_frame(r: &mut impl Read, cap: u32) -> ServeResult<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, cap, &mut payload)?;
    Ok(payload)
}

/// [`read_frame`] into the caller's (empty) buffer, so a test can look at
/// what a failed read allocated.
fn read_frame_into(r: &mut impl Read, cap: u32, payload: &mut Vec<u8>) -> ServeResult<()> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes);
    if len == 0 {
        return Err(ServeError::Frame("empty frame (no opcode)".into()));
    }
    if len > cap {
        return Err(ServeError::FrameTooLarge { len, cap });
    }
    // `read_to_end` reads into the vector's spare capacity and grows it
    // as bytes arrive: the declared length is a limit, never a size.
    r.by_ref().take(u64::from(len)).read_to_end(payload)?;
    if payload.len() < len as usize {
        return Err(ServeError::Disconnected);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let enc = req.encode();
        assert_eq!(Request::decode(&enc).expect("decode"), req);
    }

    fn roundtrip_response(resp: Response) {
        let enc = resp.encode();
        assert_eq!(Response::decode(&enc).expect("decode"), resp);
    }

    /// Every request variant (and every level-select tag).
    fn all_requests() -> Vec<Request> {
        let mut all = vec![
            Request::Open {
                path: "/data/plt0001.h5l".into(),
            },
            Request::Close { handle: 7 },
            Request::Point {
                handle: 1,
                field: 2,
                p: [5, -3, 11],
            },
            Request::Plane {
                handle: 1,
                field: 0,
                level: 1,
                axis: 2,
                coord: -4,
            },
            Request::Region {
                handle: 3,
                field: 1,
                level: 1,
                lo: [-2, 0, 4],
                hi: [9, 9, 9],
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for select in [
            WireSelect::All,
            WireSelect::Level(2),
            WireSelect::Range(0, 1),
            WireSelect::Finest,
        ] {
            all.push(Request::Roi {
                handle: 3,
                field: 1,
                lo: [0, 0, 0],
                hi: [15, 15, 15],
                select,
            });
        }
        all
    }

    /// Every response variant.
    fn all_responses() -> Vec<Response> {
        let mut stats = StatsReport {
            requests: 10,
            ..StatsReport::default()
        };
        stats.store.hits = 3;
        let mut engine = EngineStats {
            roi_queries: 4,
            ..EngineStats::default()
        };
        engine.cache.hits = 1;
        stats.files.push(FileStats {
            path: "/a.h5l".into(),
            file_id: 2,
            generation: (100, 200),
            engine,
        });
        vec![
            Response::Opened(OpenInfo {
                handle: 4,
                file_id: 19,
                generation: (12345, 999),
                levels: 2,
                fields: vec!["density".into(), "vx".into()],
            }),
            Response::Closed,
            Response::Point(None),
            Response::Point(Some((1, [8, 9, 10], 3.25))),
            Response::Region(WireRegion {
                level: 0,
                lo: [0, 0, 0],
                hi: [1, 1, 0],
                data: vec![1.0, 2.0, 3.0, 4.0],
            }),
            Response::View {
                field: 0,
                field_name: "density".into(),
                levels: vec![
                    WireRegion {
                        level: 0,
                        lo: [0, 0, 0],
                        hi: [0, 0, 0],
                        data: vec![42.0],
                    },
                    WireRegion {
                        level: 1,
                        lo: [0, 0, 0],
                        hi: [1, 0, 0],
                        data: vec![1.5, 2.5],
                    },
                ],
            },
            Response::Stats(stats),
            Response::ShutdownAck,
            Response::Error {
                code: ErrorCode::BadQuery,
                message: "field 9 out of range".into(),
            },
        ]
    }

    /// A report with a distinct value in every counter and two file rows,
    /// and its `OP_STATS_RESULT` payload written field by field from the
    /// format, not by the encoder. The frame carries no version: a peer of
    /// any build must read these bytes.
    fn stats_fixture() -> (StatsReport, Vec<u8>) {
        let store = CacheStats {
            hits: 10,
            misses: 11,
            insertions: 12,
            evictions: 13,
            resident_bytes: 14,
            capacity_bytes: 15,
        };
        let row = |path: &str, base: u64| FileStats {
            path: path.into(),
            file_id: base,
            generation: (base + 1, base + 2),
            engine: EngineStats {
                roi_queries: base + 7,
                region_queries: base + 8,
                plane_queries: base + 9,
                point_queries: base + 10,
                chunks_decoded: base + 11,
                decoded_bytes: base + 12,
                read_bytes: base + 13,
                cache: CacheStats {
                    hits: base + 3,
                    misses: base + 4,
                    insertions: base + 5,
                    evictions: base + 6,
                    ..store
                },
            },
        };
        let report = StatsReport {
            connections_total: 1,
            connections_active: 2,
            requests: 3,
            errors: 4,
            interactive_queries: 5,
            scan_queries: 6,
            scan_slabs: 7,
            rejected_too_large: 8,
            response_bytes: 9,
            store,
            catalog: CatalogStats {
                open_files: 16,
                opens: 17,
                open_hits: 18,
                reopens_stale: 19,
                evicted_idle: 20,
            },
            files: vec![row("/data/a.h5l", 100), row("/b", 200)],
        };
        // Opcode 0x86; server counters, store and catalog are 1..=20 in
        // wire order; then the row count and each row: path block, file
        // id, generation, cache hits / misses / insertions / evictions,
        // ROI / region / plane / point queries, chunks decoded, decoded
        // bytes, read bytes — `base + 0..=13` in that order.
        let mut image = vec![0x86];
        let words = |image: &mut Vec<u8>, words: std::ops::Range<u64>| {
            for v in words {
                image.extend_from_slice(&v.to_le_bytes());
            }
        };
        words(&mut image, 1..21);
        image.extend_from_slice(&2u32.to_le_bytes());
        for (path, base) in [("/data/a.h5l", 100), ("/b", 200)] {
            image.extend_from_slice(&(path.len() as u64).to_le_bytes());
            image.extend_from_slice(path.as_bytes());
            words(&mut image, base..base + 14);
        }
        (report, image)
    }

    #[test]
    fn stats_frame_bytes_are_pinned() {
        let (report, image) = stats_fixture();
        let response = Response::Stats(report);
        assert_eq!(response.encode(), image);
        assert_eq!(Response::decode(&image).expect("decode"), response);
    }

    #[test]
    fn request_roundtrips() {
        all_requests().into_iter().for_each(roundtrip_request);
    }

    #[test]
    fn response_roundtrips() {
        all_responses().into_iter().for_each(roundtrip_response);
    }

    /// `n` values cycling through everything a bit-exact path can lose:
    /// NaNs with payload bits, -0.0, subnormals, infinities.
    fn awkward_values(n: usize) -> Vec<f64> {
        let specials = [
            f64::from_bits(0x7ff8_dead_beef_0001),
            f64::from_bits(0xfff0_0000_0000_0001),
            -0.0,
            f64::from_bits(1),
            f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        (0..n)
            .map(|i| match specials.get(i % 13) {
                Some(&v) => v,
                None => (i as f64 - 1e5) * 0.37,
            })
            .collect()
    }

    fn awkward_region(level: u32, n: usize) -> WireRegion {
        WireRegion {
            level,
            lo: [-3, 0, 7],
            hi: [n as i64 - 4, 0, 7],
            data: awkward_values(n),
        }
    }

    /// `(offset, size, values)`.
    type Patch = ([u32; 3], [u32; 3], Vec<f64>);

    /// One region written the slow way, straight from the format's
    /// definition: header, then every patch with a `put_f64` per value,
    /// into a writer that regrows from empty. The wire-format oracle, and
    /// the writer of the decoder's test inputs.
    fn write_region(w: &mut Writer, level: u32, lo: [i64; 3], hi: [i64; 3], patches: &[Patch]) {
        w.put_u32(level);
        put_vect(w, &lo);
        put_vect(w, &hi);
        w.put_u32(patches.len() as u32);
        for (offset, size, values) in patches {
            offset.iter().chain(size).for_each(|&v| w.put_u32(v));
            for value in values {
                w.put_f64(*value);
            }
        }
    }

    /// What `Response::encode` must produce for a dense answer: opcodes
    /// `0x88` / `0x89`, each region's box as its one patch.
    fn encode_per_value(resp: &Response) -> Vec<u8> {
        fn region(r: &WireRegion, w: &mut Writer) {
            let size = [0, 1, 2].map(|d| (r.hi[d] - r.lo[d] + 1) as u32);
            write_region(w, r.level, r.lo, r.hi, &[([0; 3], size, r.data.clone())]);
        }
        let mut w = Writer::new();
        match resp {
            Response::Region(r) => {
                w.put_u8(0x88);
                region(r, &mut w);
            }
            Response::View {
                field,
                field_name,
                levels,
            } => {
                w.put_u8(0x89);
                w.put_u32(*field);
                put_string(&mut w, field_name);
                w.put_u32(levels.len() as u32);
                levels.iter().for_each(|r| region(r, &mut w));
            }
            other => panic!("no field data in {other:?}"),
        }
        w.into_bytes()
    }

    /// A region with its values as bit patterns (NaN never equals NaN).
    type RegionBits = (u32, [i64; 3], [i64; 3], Vec<u64>);

    fn region_bits(resp: &Response) -> Vec<RegionBits> {
        let regions = match resp {
            Response::Region(r) => std::slice::from_ref(r),
            Response::View { levels, .. } => levels,
            other => panic!("no field data in {other:?}"),
        };
        let bits = |r: &WireRegion| r.data.iter().map(|v| v.to_bits()).collect();
        regions
            .iter()
            .map(|r| (r.level, r.lo, r.hi, bits(r)))
            .collect()
    }

    #[test]
    fn lane_encoder_writes_the_per_value_bytes_and_decodes_bit_for_bit() {
        // Stack-block edges of `put_f64s`, and a many-block answer.
        for n in [1, 511, 512, 513, 300_001] {
            let answers = [
                Response::Region(awkward_region(1, n)),
                Response::View {
                    field: 2,
                    field_name: "baryon_density".into(),
                    levels: vec![awkward_region(0, n), awkward_region(1, n.div_ceil(2))],
                },
            ];
            for resp in answers {
                let enc = resp.encode();
                assert_eq!(enc.capacity(), enc.len(), "n = {n}: sized once, exactly");
                assert!(enc == encode_per_value(&resp), "n = {n}: wire bytes moved");
                let back = Response::decode(&enc).expect("decode");
                assert!(region_bits(&back) == region_bits(&resp), "n = {n}");
            }
        }
        // The layout around the values, byte for byte: a 2×1×1 box at
        // level 7 is a 56-byte header, a 24-byte patch header, 16 bytes.
        let enc = Response::Region(WireRegion {
            level: 7,
            lo: [-1, 2, 3],
            hi: [0, 2, 3],
            data: vec![1.0, -0.0],
        })
        .encode();
        let mut want = vec![0x88, 7, 0, 0, 0];
        for corner in [-1i64, 2, 3, 0, 2, 3] {
            want.extend(corner.to_le_bytes());
        }
        for word in [1u32, 0, 0, 0, 2, 1, 1] {
            want.extend(word.to_le_bytes()); // npatches, offset, size
        }
        want.extend(1f64.to_le_bytes());
        want.extend((-0f64).to_le_bytes());
        assert_eq!(enc, want);
        assert_eq!(enc.len(), 1 + REGION_HEADER + PATCH_HEADER + 16);
        // An inclusive box has no empty form: what used to be the
        // 0-value region has inverted corners, and those are refused.
        let empty = Response::Region(awkward_region(1, 0)).encode();
        match Response::decode(&empty) {
            Err(ServeError::Frame(m)) => assert!(m.contains("span no valid box"), "{m}"),
            other => panic!("inverted corners decoded: {other:?}"),
        }
    }

    /// A transport that moves a few bytes per call: reads yield 1–7
    /// bytes, `write` / `write_vectored` accept 1–13 (so a frame splits
    /// inside its prefix and across the prefix/payload seam), and every
    /// ninth call is `Interrupted` first.
    struct Trickle {
        bytes: Vec<u8>,
        read_at: usize,
        calls: usize,
    }

    impl Trickle {
        fn new(bytes: Vec<u8>) -> Trickle {
            Trickle {
                bytes,
                read_at: 0,
                calls: 0,
            }
        }

        /// How many bytes this call may move (`Interrupted`: none yet).
        fn quota(&mut self, most: usize) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(9) {
                return Err(ErrorKind::Interrupted.into());
            }
            Ok(1 + self.calls % most)
        }
    }

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let quota = self.quota(7)?;
            let rest = &self.bytes[self.read_at..];
            let n = quota.min(buf.len()).min(rest.len());
            buf[..n].copy_from_slice(&rest[..n]);
            self.read_at += n;
            Ok(n)
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut left = self.quota(13)?;
            let before = self.bytes.len();
            for buf in bufs {
                let n = left.min(buf.len());
                self.bytes.extend_from_slice(&buf[..n]);
                left -= n;
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// `payload` framed through a trickling writer and back through a
    /// trickling reader.
    fn trickle_frame(payload: &[u8]) -> Vec<u8> {
        let mut wire = Trickle::new(Vec::new());
        write_frame(&mut wire, payload).expect("write");
        assert_eq!(wire.bytes[..4], (payload.len() as u32).to_le_bytes());
        assert!(&wire.bytes[4..] == payload, "frame bytes differ");
        let back = read_frame(&mut wire, DEFAULT_MAX_RESPONSE_FRAME).expect("read");
        assert_eq!(wire.read_at, wire.bytes.len(), "frame read to its end");
        back
    }

    #[test]
    fn frames_survive_transports_that_move_a_few_bytes_per_call() {
        for req in all_requests() {
            let back = trickle_frame(&req.encode());
            assert_eq!(Request::decode(&back).expect("decode"), req);
        }
        for resp in all_responses() {
            let back = trickle_frame(&resp.encode());
            assert_eq!(Response::decode(&back).expect("decode"), resp);
        }
        // A 3 MB view: hundreds of thousands of short writes and reads.
        let view = Response::View {
            field: 0,
            field_name: "density".into(),
            levels: vec![awkward_region(0, 131_072), awkward_region(1, 262_144)],
        };
        let enc = view.encode();
        assert!(enc.len() > 3_000_000);
        let back = trickle_frame(&enc);
        assert!(back == enc, "3 MB payload differs");
        let decoded = Response::decode(&back).expect("decode");
        assert!(region_bits(&decoded) == region_bits(&view));
    }

    /// SplitMix64: the tests' own generator.
    struct Prng(u64);

    impl Prng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn between(&mut self, lo: u64, hi: u64) -> u64 {
            lo + self.next() % (hi - lo + 1)
        }
    }

    /// A seeded region (extents 1–40, corners either side of zero) with a
    /// seeded patch list — none, the full box, or up to twelve patches
    /// that may be disjoint, touch or overlap — and the dense box it must
    /// decode to: zero-fill, then paste in order. `(level, lo, hi, patches,
    /// dense bits)`.
    type Case = (u32, [i64; 3], [i64; 3], Vec<Patch>, Vec<u64>);

    fn random_region(rng: &mut Prng) -> Case {
        let extent = [0; 3].map(|_| rng.between(1, 40) as usize);
        let lo = [0; 3].map(|_| rng.between(0, 2000) as i64 - 1000);
        let hi = [0, 1, 2].map(|d| lo[d] + extent[d] as i64 - 1);
        let mut patches: Vec<Patch> = Vec::new();
        let npatches = match rng.between(0, 5) {
            0 => 0,
            1 => {
                let values = awkward_values(extent.iter().product());
                patches.push(([0; 3], extent.map(|e| e as u32), values));
                0
            }
            _ => rng.between(1, 12),
        };
        for _ in 0..npatches {
            let offset = extent.map(|e| rng.between(0, e as u64 - 1) as usize);
            let size = [0, 1, 2].map(|d| rng.between(1, (extent[d] - offset[d]) as u64) as usize);
            let mut values = awkward_values(size.iter().product());
            let shift = rng.between(0, 12) as usize % values.len();
            values.rotate_left(shift);
            patches.push((offset.map(|o| o as u32), size.map(|s| s as u32), values));
        }
        let mut dense = vec![0f64.to_bits(); extent.iter().product()];
        for (offset, size, values) in &patches {
            let mut next = values.iter();
            for z in 0..size[2] {
                for y in 0..size[1] {
                    for x in 0..size[0] {
                        let at = [x + offset[0], y + offset[1], z + offset[2]].map(|v| v as usize);
                        dense[(at[2] * extent[1] + at[1]) * extent[0] + at[0]] =
                            next.next().expect("a value per cell").to_bits();
                    }
                }
            }
        }
        (rng.between(0, 3) as u32, lo, hi, patches, dense)
    }

    #[test]
    fn patch_decoder_is_zero_fill_then_paste_in_order() {
        let mut rng = Prng(0x5eed_0020);
        let (mut overlapping, mut empty) = (0, 0);
        for case in 0..300 {
            // A lone region, or a view of one to three of them.
            let nregions = rng.between(0, 3) as usize;
            let regions: Vec<_> = (0..nregions.max(1))
                .map(|_| random_region(&mut rng))
                .collect();
            let mut w = Writer::new();
            if nregions == 0 {
                w.put_u8(0x88);
            } else {
                w.put_u8(0x89);
                w.put_u32(case);
                put_string(&mut w, "temperature");
                w.put_u32(nregions as u32);
            }
            for (level, lo, hi, patches, _) in &regions {
                write_region(&mut w, *level, *lo, *hi, patches);
                let boxes: Vec<_> = patches.iter().map(|(o, s, _)| (*o, *s)).collect();
                let meet = |a: &([u32; 3], [u32; 3]), b: &([u32; 3], [u32; 3])| {
                    (0..3).all(|d| a.0[d] < b.0[d] + b.1[d] && b.0[d] < a.0[d] + a.1[d])
                };
                let overlaps = (0..boxes.len())
                    .any(|i| boxes[..i].iter().any(|earlier| meet(earlier, &boxes[i])));
                overlapping += usize::from(overlaps);
                empty += usize::from(patches.is_empty());
            }
            let bytes = w.into_bytes();
            // Straight, and through a transport that moves 1–13 bytes a call.
            for payload in [bytes.clone(), trickle_frame(&bytes)] {
                let decoded = match Response::decode(&payload).expect("decode") {
                    Response::Region(r) => vec![r],
                    Response::View { levels, .. } => levels,
                    other => panic!("{other:?}"),
                };
                assert_eq!(decoded.len(), regions.len(), "case {case}");
                for (got, (level, lo, hi, _, dense)) in decoded.iter().zip(&regions) {
                    assert_eq!(
                        (got.level, got.lo, got.hi),
                        (*level, *lo, *hi),
                        "case {case}"
                    );
                    let bits: Vec<u64> = got.data.iter().map(|v| v.to_bits()).collect();
                    assert!(&bits == dense, "case {case}: {lo:?}..={hi:?} differs");
                }
            }
        }
        assert!(overlapping > 20 && empty > 20, "{overlapping} {empty}");
    }

    #[test]
    fn writer_that_accepts_nothing_is_a_disconnect_not_a_spin() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        assert!(matches!(
            write_frame(&mut Full, &Request::Stats.encode()),
            Err(ServeError::Disconnected)
        ));
    }

    #[test]
    fn lying_length_allocates_for_delivered_bytes_only() {
        // 1 GiB declared under a 1 GiB cap, 100 KB delivered, then EOF.
        const DELIVERED: usize = 100_000;
        let mut wire = (1u32 << 30).to_le_bytes().to_vec();
        wire.resize(4 + DELIVERED, 0x5A);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut &wire[..], 1 << 30, &mut payload);
        assert!(matches!(err, Err(ServeError::Disconnected)), "{err:?}");
        assert_eq!(payload.len(), DELIVERED);
        assert!(
            payload.capacity() <= 2 * DELIVERED + (64 << 10),
            "{} bytes reserved for {DELIVERED} delivered",
            payload.capacity()
        );
    }

    #[test]
    fn frame_roundtrip_over_a_stream() {
        let payload = Request::Stats.encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write");
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor, MAX_REQUEST_FRAME).expect("read");
        assert_eq!(back, payload);
    }

    #[test]
    fn oversized_declared_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, MAX_REQUEST_FRAME) {
            Err(ServeError::FrameTooLarge { len, cap }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(cap, MAX_REQUEST_FRAME);
            }
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn lying_length_with_missing_bytes_is_disconnect() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1000u32.to_le_bytes());
        buf.extend_from_slice(&[1, 2, 3]); // only 3 of 1000 bytes arrive
        let mut cursor = std::io::Cursor::new(buf);
        assert!(matches!(
            read_frame(&mut cursor, MAX_REQUEST_FRAME),
            Err(ServeError::Disconnected)
        ));
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        for req in [
            Request::Open {
                path: "/some/path".into(),
            },
            Request::Roi {
                handle: 1,
                field: 0,
                lo: [0, 0, 0],
                hi: [7, 7, 7],
                select: WireSelect::All,
            },
        ] {
            let enc = req.encode();
            for cut in 1..enc.len() {
                let err = Request::decode(&enc[..cut]);
                assert!(err.is_err(), "truncation at {cut} must fail");
            }
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut enc = Request::Stats.encode();
        enc.push(0xAB);
        assert!(matches!(Request::decode(&enc), Err(ServeError::Frame(_))));
    }

    #[test]
    fn absurd_region_count_does_not_allocate() {
        // A region whose patch count claims 2^32 - 1 patches but carries
        // none: decode must fail on the count, before the first patch.
        let mut w = Writer::new();
        w.put_u8(OP_REGION_RESULT);
        w.put_u32(0);
        for _ in 0..6 {
            w.put_u64(0);
        }
        w.put_u32(u32::MAX); // patch count
        let enc = w.into_bytes();
        match Response::decode(&enc) {
            Err(ServeError::Frame(m)) => assert!(m.contains("element count"), "{m}"),
            other => panic!("{other:?}"),
        }
    }
}
