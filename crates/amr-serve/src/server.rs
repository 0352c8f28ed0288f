//! The service loop: accept connections on TCP and/or Unix-domain
//! listeners, serve each on its own thread, and answer the wire
//! protocol against the shared catalog under admission control.
//!
//! # Request lifecycle
//!
//! 1. A frame is read (bounded by [`MAX_REQUEST_FRAME`]) and decoded;
//!    malformed bodies get a typed error frame back (the connection
//!    survives — the frame boundary is intact), while framing-level
//!    corruption (oversized or short frames) errors and closes the
//!    connection, since resynchronization is impossible.
//! 2. A query request is **planned once, before any byte is read**
//!    ([`amr_query::QueryPlan`]); an invalid request is the planner's
//!    typed error. The plan's cost and the size of its answer are
//!    bounded per connection ([`AdmissionConfig::max_request_bytes`] →
//!    typed `TooLarge`); the cost classifies the request interactive vs
//!    scan.
//! 3. Interactive plans are answered immediately. A scan first warms the
//!    cache one chunk batch at a time ([`amr_query::QueryPlan::batches`]),
//!    holding the FIFO [`FairGate`] per batch and releasing it between
//!    batches so concurrent scans round-robin.
//! 4. **The reply is a payload, built in one walk.** The answer crosses
//!    the wire as the cells that are stored: [`QueryEngine::pieces`]
//!    visits every stored unit's overlap with a planned region and each
//!    goes straight from the cache into the frame as one patch
//!    ([`crate::protocol`], "Region body"). The server never allocates,
//!    zero-fills or pastes a dense box — the client does, once.
//!
//! Connections are served sequentially (pipelined requests queue in the
//! socket), so per-connection in-flight decode volume is exactly the
//! admitted request's estimate.

use crate::admission::{AdmissionConfig, FairGate, RequestClass};
use crate::catalog::{Catalog, CatalogEntry};
use crate::protocol::{
    read_frame, write_frame, AnswerWriter, Conn, ErrorCode, FileStats, OpenInfo, Request, Response,
    ServeError, ServeResult, StatsReport, MAX_REQUEST_FRAME, OP_ERROR,
};
use amr_query::{Box3, QueryEngine, QueryError, QueryPlan, QueryResult};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Server configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Byte budget of the process-wide shared chunk cache.
    pub cache_bytes: u64,
    /// Open-engine pool bound (idle engines beyond it are evicted LRU).
    pub max_open_files: usize,
    /// Prefetch workers per engine.
    pub workers: usize,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_bytes: 256 << 20,
            max_open_files: 64,
            workers: 1,
            admission: AdmissionConfig::default(),
        }
    }
}

#[derive(Default)]
struct Counters {
    connections_total: AtomicU64,
    connections_active: AtomicU64,
    requests: AtomicU64,
    errors: AtomicU64,
    interactive_queries: AtomicU64,
    scan_queries: AtomicU64,
    scan_slabs: AtomicU64,
    rejected_too_large: AtomicU64,
    response_bytes: AtomicU64,
}

/// Shared server state: catalog, fair gate, counters, stop flag.
pub struct ServeState {
    cfg: ServeConfig,
    catalog: Catalog,
    gate: FairGate,
    stopping: AtomicBool,
    counters: Counters,
}

impl ServeState {
    /// Build state from a config.
    pub fn new(cfg: ServeConfig) -> Arc<ServeState> {
        Arc::new(ServeState {
            catalog: Catalog::new(cfg.cache_bytes, cfg.max_open_files, cfg.workers),
            gate: FairGate::new(cfg.admission.scan_slots),
            stopping: AtomicBool::new(false),
            counters: Counters::default(),
            cfg,
        })
    }

    /// The engine catalog (tests reach through this for direct-engine
    /// comparisons).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Has shutdown been requested?
    pub fn stopping(&self) -> bool {
        self.stopping.load(Ordering::Acquire)
    }

    /// Stop accepting new connections (existing connections drain on
    /// their own disconnect).
    pub fn request_shutdown(&self) {
        self.stopping.store(true, Ordering::Release);
    }

    /// Whole-server statistics snapshot. The store is read once, and
    /// every file row carries that snapshot's resident and capacity bytes.
    pub fn stats_report(&self) -> StatsReport {
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        let c = &self.counters;
        let store = self.catalog.store().stats();
        let files = self
            .catalog
            .entries()
            .iter()
            .map(|e| {
                let mut engine = e.engine.stats();
                // Planned serving bypasses the engine's per-entry-point
                // counters; the entry counts what it served.
                [
                    engine.plane_queries,
                    engine.region_queries,
                    engine.roi_queries,
                ] = e.served.each_ref().map(load);
                engine.cache.resident_bytes = store.resident_bytes;
                engine.cache.capacity_bytes = store.capacity_bytes;
                FileStats {
                    path: e.path.display().to_string(),
                    file_id: e.file_id,
                    generation: (e.generation.len, e.generation.mtime_ns),
                    engine,
                }
            })
            .collect();
        StatsReport {
            connections_total: load(&c.connections_total),
            connections_active: load(&c.connections_active),
            requests: load(&c.requests),
            errors: load(&c.errors),
            interactive_queries: load(&c.interactive_queries),
            scan_queries: load(&c.scan_queries),
            scan_slabs: load(&c.scan_slabs),
            rejected_too_large: load(&c.rejected_too_large),
            response_bytes: load(&c.response_bytes),
            store,
            catalog: self.catalog.stats(),
            files,
        }
    }
}

/// A running server: accept threads over one shared [`ServeState`].
pub struct Server {
    state: Arc<ServeState>,
    accept_threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Server with no listeners yet.
    pub fn new(cfg: ServeConfig) -> Server {
        Server {
            state: ServeState::new(cfg),
            accept_threads: Vec::new(),
        }
    }

    /// The shared state (stats, shutdown, catalog access).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Bind and serve a TCP listener; returns the bound address (use
    /// port 0 for an ephemeral port in tests).
    pub fn listen_tcp(&mut self, addr: &str) -> ServeResult<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let state = Arc::clone(&self.state);
        self.accept_threads.push(std::thread::spawn(move || {
            accept_loop(state, || match listener.accept() {
                Ok((stream, _)) => {
                    // Accepted sockets are blocking regardless of the
                    // listener's nonblocking flag.
                    stream.set_nodelay(true).ok();
                    Some(Box::new(stream) as Box<dyn Conn>)
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            })
        }));
        Ok(local)
    }

    /// Bind and serve a Unix-domain listener at `path` (an existing
    /// socket file there is removed first).
    pub fn listen_uds(&mut self, path: &Path) -> ServeResult<()> {
        std::fs::remove_file(path).ok();
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        let state = Arc::clone(&self.state);
        self.accept_threads.push(std::thread::spawn(move || {
            accept_loop(state, || match listener.accept() {
                Ok((stream, _)) => Some(Box::new(stream) as Box<dyn Conn>),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
                Err(_) => None,
            })
        }));
        Ok(())
    }

    /// Request shutdown and wait for the accept loops to exit (open
    /// connections drain on their own disconnect).
    pub fn shutdown_and_join(self) {
        self.state.request_shutdown();
        for t in self.accept_threads {
            t.join().ok();
        }
    }
}

/// Poll-accept until shutdown; each connection gets a detached thread.
fn accept_loop(state: Arc<ServeState>, mut accept: impl FnMut() -> Option<Box<dyn Conn>>) {
    while !state.stopping() {
        match accept() {
            Some(stream) => {
                let state = Arc::clone(&state);
                std::thread::spawn(move || handle_connection(state, stream));
            }
            None => std::thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
}

/// Serve one connection until it disconnects or framing breaks.
fn handle_connection(state: Arc<ServeState>, mut stream: Box<dyn Conn>) {
    let c = &state.counters;
    c.connections_total.fetch_add(1, Ordering::Relaxed);
    c.connections_active.fetch_add(1, Ordering::Relaxed);
    let mut handles: HashMap<u32, Arc<CatalogEntry>> = HashMap::new();
    let mut next_handle: u32 = 1;
    loop {
        let payload = match read_frame(&mut stream, MAX_REQUEST_FRAME) {
            Ok(p) => p,
            Err(ServeError::FrameTooLarge { len, cap }) => {
                // The unread payload is still in the stream; framing is
                // lost. Answer once, then close.
                let message = format!("request frame of {len} bytes exceeds cap of {cap}");
                send(&state, &mut stream, &error(ErrorCode::BadFrame, message)).ok();
                break;
            }
            Err(ServeError::Frame(m)) => {
                send(&state, &mut stream, &error(ErrorCode::BadFrame, m)).ok();
                break;
            }
            // Clean or mid-frame disconnect, transport error: drop the
            // connection quietly — the catalog and cache are untouched.
            Err(_) => break,
        };
        c.requests.fetch_add(1, Ordering::Relaxed);
        let reply = match Request::decode(&payload) {
            // A malformed body inside a well-framed payload is
            // recoverable: answer the typed error, keep the connection.
            Err(e) => error(ErrorCode::BadFrame, e.to_string()),
            Ok(req) => handle_request(&state, &mut handles, &mut next_handle, req),
        };
        if reply[0] == OP_ERROR {
            c.errors.fetch_add(1, Ordering::Relaxed);
        }
        if send(&state, &mut stream, &reply).is_err() {
            break;
        }
    }
    c.connections_active.fetch_sub(1, Ordering::Relaxed);
}

/// Write one reply payload as a frame, counted.
fn send(state: &ServeState, stream: &mut Box<dyn Conn>, payload: &[u8]) -> ServeResult<()> {
    state
        .counters
        .response_bytes
        .fetch_add(payload.len() as u64, Ordering::Relaxed);
    write_frame(stream, payload)
}

/// The payload of a typed error reply.
fn error(code: ErrorCode, message: String) -> Vec<u8> {
    Response::Error { code, message }.encode()
}

fn query_error(e: QueryError) -> Vec<u8> {
    let code = match &e {
        QueryError::BadQuery(_) => ErrorCode::BadQuery,
        QueryError::Inconsistent(_) => ErrorCode::Inconsistent,
        QueryError::Codec(_) => ErrorCode::Codec,
        QueryError::H5(_) => ErrorCode::Io,
    };
    error(code, e.to_string())
}

fn vect(v: &amr_mesh::IntVect) -> [i64; 3] {
    [v.get(0), v.get(1), v.get(2)]
}

fn intbox(lo: [i64; 3], hi: [i64; 3]) -> Box3 {
    Box3::new(
        amr_mesh::IntVect::new(lo[0], lo[1], lo[2]),
        amr_mesh::IntVect::new(hi[0], hi[1], hi[2]),
    )
}

/// Answer one decoded request with its reply payload.
fn handle_request(
    state: &ServeState,
    handles: &mut HashMap<u32, Arc<CatalogEntry>>,
    next_handle: &mut u32,
    req: Request,
) -> Vec<u8> {
    match req {
        Request::Open { path } => match state.catalog.open(Path::new(&path)) {
            Ok(entry) => {
                let handle = *next_handle;
                *next_handle += 1;
                let meta = entry.engine.meta();
                let info = OpenInfo {
                    handle,
                    file_id: entry.file_id,
                    generation: (entry.generation.len, entry.generation.mtime_ns),
                    levels: meta.num_levels() as u32,
                    fields: meta.field_names.clone(),
                };
                handles.insert(handle, entry);
                Response::Opened(info).encode()
            }
            Err(e) => error(ErrorCode::OpenFailed, format!("cannot open {path}: {e}")),
        },
        Request::Close { handle } => {
            if handles.remove(&handle).is_some() {
                Response::Closed.encode()
            } else {
                error(ErrorCode::BadHandle, format!("unknown handle {handle}"))
            }
        }
        Request::Stats => Response::Stats(state.stats_report()).encode(),
        Request::Shutdown => {
            state.request_shutdown();
            Response::ShutdownAck.encode()
        }
        Request::Point { handle, field, p } => {
            let Some(entry) = handles.get(&handle) else {
                return bad_handle(handle);
            };
            // Point samples decode at most one chunk: always interactive.
            let c = &state.counters;
            c.interactive_queries.fetch_add(1, Ordering::Relaxed);
            match entry
                .engine
                .point_sample(field as usize, amr_mesh::IntVect::new(p[0], p[1], p[2]))
            {
                Ok(sample) => {
                    Response::Point(sample.map(|s| (s.level as u32, vect(&s.cell), s.value)))
                        .encode()
                }
                Err(e) => query_error(e),
            }
        }
        Request::Plane {
            handle,
            field,
            level,
            axis,
            coord,
        } => {
            let Some(entry) = handles.get(&handle) else {
                return bad_handle(handle);
            };
            entry.served[0].fetch_add(1, Ordering::Relaxed);
            let engine = &entry.engine;
            let plan = engine.plan_plane(field as usize, level as usize, axis as usize, coord);
            run_admitted(state, engine, plan, None)
        }
        Request::Region {
            handle,
            field,
            level,
            lo,
            hi,
        } => {
            let Some(entry) = handles.get(&handle) else {
                return bad_handle(handle);
            };
            entry.served[1].fetch_add(1, Ordering::Relaxed);
            let engine = &entry.engine;
            let plan = engine.plan_region(field as usize, level as usize, intbox(lo, hi));
            run_admitted(state, engine, plan, None)
        }
        Request::Roi {
            handle,
            field,
            lo,
            hi,
            select,
        } => {
            let Some(entry) = handles.get(&handle) else {
                return bad_handle(handle);
            };
            entry.served[2].fetch_add(1, Ordering::Relaxed);
            let engine = &entry.engine;
            let plan = engine.plan_roi(field as usize, intbox(lo, hi), select.into());
            run_admitted(state, engine, plan, Some(field))
        }
    }
}

fn bad_handle(handle: u32) -> Vec<u8> {
    error(
        ErrorCode::BadHandle,
        format!("unknown handle {handle} (open the file first)"),
    )
}

/// Admission control around one planned query: reject on the plan's
/// cold-cache cost or answer size, classify, execute, and reply with a
/// `View` of field `view` or, without one, the `Region` of a
/// single-region plan (a planning error passes through as its typed
/// reply).
///
/// Interactive plans are answered straight away. A scan warms the cache
/// one chunk batch at a time — consecutive chunks decoding to at most
/// [`AdmissionConfig::scan_slab_bytes`], never less than one chunk —
/// holding the FIFO gate per batch and releasing it in between, so
/// concurrent scans round-robin at batch granularity; then it is
/// answered from the warm cache.
fn run_admitted(
    state: &ServeState,
    engine: &QueryEngine,
    plan: QueryResult<QueryPlan>,
    view: Option<u32>,
) -> Vec<u8> {
    let (adm, c) = (&state.cfg.admission, &state.counters);
    let plan = match plan {
        Ok(p) => p,
        Err(e) => return query_error(e),
    };
    // The bound covers what the request makes resident on either side:
    // the decoded chunks here, and the dense per-level boxes the client
    // zero-fills to paste the answer into (a sparsely refined level
    // decodes one small chunk and answers its whole box). Classification
    // stays on decode bytes — the gate protects decode work.
    let (decode_bytes, answer_bytes) = (plan.cost().decode_bytes, plan.answer_bytes());
    if decode_bytes.max(answer_bytes) > adm.max_request_bytes {
        c.rejected_too_large.fetch_add(1, Ordering::Relaxed);
        return error(
            ErrorCode::TooLarge,
            format!(
                "request would decode {decode_bytes} bytes and answer {answer_bytes}; \
                 per-connection bound is {} (split the query into smaller regions)",
                adm.max_request_bytes
            ),
        );
    }
    match adm.classify(decode_bytes) {
        RequestClass::Interactive => {
            c.interactive_queries.fetch_add(1, Ordering::Relaxed);
        }
        RequestClass::Scan => {
            c.scan_queries.fetch_add(1, Ordering::Relaxed);
            for batch in plan.batches(adm.scan_slab_bytes) {
                c.scan_slabs.fetch_add(1, Ordering::Relaxed);
                let _permit = state.gate.acquire();
                if let Err(e) = engine.warm(&plan, batch) {
                    return query_error(e);
                }
                // Permit drops here: waiting scans (and nothing else —
                // interactive traffic never queues on the gate) proceed
                // before our next batch.
            }
        }
    }
    // One walk from the cache into the frame (a scan's chunks are warm by
    // now; any evicted meanwhile are simply re-decoded). The pieces of a
    // region are disjoint parts of its box and of the decoded units, so
    // their values fit in the smaller of the two; a sixteenth on top
    // covers the headers (24 B a patch, against the 512 B of a 4³ unit).
    let values = decode_bytes.min(answer_bytes) as usize;
    let regions = plan.regions();
    let reserve = values + values / 16 + 64 * regions.len();
    let mut out = match view {
        // A plan exists, so the planner has checked the field.
        Some(field) => {
            let name = &engine.meta().field_names[field as usize];
            AnswerWriter::view(field, name, regions.len(), reserve)
        }
        None => AnswerWriter::region(reserve),
    };
    let mut opened = 0;
    let mut open = |out: &mut AnswerWriter, upto: usize| {
        for (level, region) in &regions[opened..upto] {
            out.begin_region(*level as u32, &region.lo.0, &region.hi.0);
        }
        opened = upto;
    };
    let walked = engine.pieces(&plan, |piece| {
        open(&mut out, piece.region + 1);
        out.begin_patch(&piece.overlap.lo.0, &piece.overlap.hi.0);
        piece.for_each_run(|run| out.values(run));
    });
    match walked {
        Ok(()) => {
            // Regions no unit met: a header and no patch.
            open(&mut out, regions.len());
            out.finish()
        }
        Err(e) => query_error(e),
    }
}
