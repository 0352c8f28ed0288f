//! The end-to-end pass: set-up, the checked warm-up iteration, and the
//! measured rounds of the seven end-to-end operations.
//!
//! Closed loop throughout: an operation starts when the previous one has
//! completed and been checked. Exactly one thread is busy at any time —
//! one rank, one client connection per server — because on a shared
//! two-core VM an operation that needs both cores at once (two rank
//! threads meeting at a collective, two clients at the scan gate) takes
//! up to three times as long whenever anything else wants a core, and no
//! estimator steadies that (README, "What one run measures").

use crate::inputs::{Inputs, BLOCKING_FACTOR, POINT_BATCH, REL_EB};
use crate::metrics::Better;
use crate::oracle::{self, Tally};
use crate::stats::{median, Series, Summary};
use amr_query::prelude::*;
use amr_serve::prelude::*;
use amric::prelude::*;
use amric::reader::Plotfile;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Nominal length of a measurement round; every phase runs once in every
/// round, for its share of this or one whole cycle, whichever is longer.
/// Short rounds, so that every metric samples the whole run: the host's
/// quiet spells last seconds, and a floor needs each operation to meet one.
pub const ROUND_SECONDS: f64 = 2.0;
/// Set-ups timed per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Closed-loop clients against each server.
pub const CLIENTS: usize = 1;
/// Warm server cache: holds both decoded snapshots several times over.
const WARM_CACHE_BYTES: u64 = 512 << 20;
/// Cold server cache: below one decoded chunk per cache shard at full
/// size, so every scan decodes again.
const COLD_CACHE_BYTES: u64 = 8 << 20;

/// Admission policy of both servers, as in `serve_load`: a full-domain
/// ROI is scan-class, so served scans pass the fair gate slab by slab.
fn admission() -> AdmissionConfig {
    AdmissionConfig {
        max_request_bytes: 1 << 30,
        scan_threshold_bytes: 256 << 10,
        scan_slab_bytes: 128 << 10,
        scan_slots: 1,
    }
}

fn wire(v: &amr_mesh::IntVect) -> [i64; 3] {
    v.0
}

/// One in-process server on loopback TCP with its connected clients.
pub struct Served {
    server: Server,
    addr: SocketAddr,
    pub clients: Vec<Client>,
    /// `handles[client][file]`.
    pub handles: Vec<[u32; 2]>,
}

impl Served {
    fn start(cache_bytes: u64, nclients: usize, files: &[PathBuf; 2]) -> Result<Served, String> {
        let mut server = Server::new(ServeConfig {
            cache_bytes,
            max_open_files: 16,
            workers: 1,
            admission: admission(),
        });
        let addr = server
            .listen_tcp("127.0.0.1:0")
            .map_err(|e| format!("bind loopback: {e}"))?;
        let mut served = Served {
            server,
            addr,
            clients: Vec::new(),
            handles: Vec::new(),
        };
        for _ in 0..nclients {
            served.connect(files)?;
        }
        Ok(served)
    }

    /// Connect one more client and open both files on it.
    pub fn connect(&mut self, files: &[PathBuf; 2]) -> Result<(), String> {
        let mut client = Client::connect_tcp(self.addr).map_err(|e| format!("connect: {e}"))?;
        let mut handles = [0u32; 2];
        for (h, f) in handles.iter_mut().zip(files) {
            let path = f.to_str().ok_or("scratch path is not UTF-8")?;
            *h = client
                .open(path)
                .map_err(|e| format!("open {path}: {e}"))?
                .handle;
        }
        self.clients.push(client);
        self.handles.push(handles);
        Ok(())
    }

    /// Whole-server counters, read through the first client.
    pub fn stats(&mut self) -> Result<StatsReport, String> {
        self.clients[0].stats().map_err(|e| format!("stats: {e}"))
    }

    fn stop(self) {
        drop(self.clients); // connection threads end on disconnect
        self.server.shutdown_and_join();
    }
}

/// Everything set-up builds: fixture plotfiles, the long-lived engine and
/// the two servers with their clients.
pub struct Rig {
    pub files: [PathBuf; 2],
    pub reports: [WriteReport; 2],
    pub engine: QueryEngine,
    pub warm: Served,
    pub cold: Served,
}

impl Rig {
    /// One set-up: write both snapshots, open the engine, start and
    /// connect the servers. Nothing is decoded here; caches fill in the
    /// warm-up iteration.
    pub fn build(inputs: &Inputs, dir: &Path) -> Result<Rig, String> {
        let cfg = inputs.spec.amric_config();
        let files = [dir.join("snap-t0.h5l"), dir.join("snap-t1.h5l")];
        let write = |t: usize| {
            write_amric(&files[t], &inputs.snapshots[t], &cfg, BLOCKING_FACTOR)
                .map_err(|e| format!("fixture write t={t}: {e}"))
        };
        let reports = [write(0)?, write(1)?];
        let engine = QueryEngine::open(&files[0]).map_err(|e| format!("open engine: {e}"))?;
        let warm = Served::start(WARM_CACHE_BYTES, CLIENTS, &files)?;
        let cold = Served::start(COLD_CACHE_BYTES, CLIENTS, &files)?;
        Ok(Rig {
            files,
            reports,
            engine,
            warm,
            cold,
        })
    }

    /// Stop both servers and wait for their accept threads.
    pub fn teardown(self) {
        self.warm.stop();
        self.cold.stop();
    }
}

/// Time `SETUPS` set-ups, keep the last. Each later set-up overwrites
/// the fixture files of the one before, so repeated writes of one
/// snapshot are also checked to store identical byte counts.
pub fn timed_setups(
    inputs: &Inputs,
    dir: &Path,
    tally: &mut Tally,
) -> Result<(Rig, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept: Option<Rig> = None;
    for _ in 0..SETUPS {
        let previous = kept.take().map(|rig| {
            let bytes = [rig.reports[0].stored_bytes, rig.reports[1].stored_bytes];
            rig.teardown();
            bytes
        });
        let t = Instant::now();
        let rig = Rig::build(inputs, dir)?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = previous {
            let now = [rig.reports[0].stored_bytes, rig.reports[1].stored_bytes];
            tally.check(prev == now, || {
                format!("rewrite stored {now:?} bytes, first write {prev:?}")
            });
        }
        kept = Some(rig);
    }
    Ok((kept.expect("SETUPS > 0"), times))
}

/// Digests of every distinct answer, each verified bitwise against the
/// full decode in the warm-up iteration.
pub struct Expected {
    /// Full-decode digest per snapshot.
    pub restart: [u64; 2],
    /// `roi[file][query]`, queries in `Inputs::queries` order. In-process
    /// operations query file 0; served scans rotate over both.
    pub roi: [Vec<u64>; 2],
    /// Per field: the 1000-point batch (file 0).
    pub points: Vec<u64>,
}

/// The untimed warm-up iteration: runs every distinct operation once,
/// checks each answer against the full decode, and leaves the caches
/// that are meant to be warm, warm.
pub fn warm_up(inputs: &Inputs, rig: &mut Rig, tally: &mut Tally) -> Result<Expected, String> {
    let nfields = inputs.snapshots[0].field_names().len();
    let decode = |t: usize| {
        read_amric_hierarchy(&rig.files[t]).map_err(|e| format!("full decode t={t}: {e}"))
    };

    // Every ROI query on one file: in process against the full decode,
    // then through the warm server (which this also primes) against the
    // in-process answer. The cold server's answers are checked by digest
    // as they are measured.
    let verify_queries = |file: usize,
                          pf: &Plotfile,
                          engine: &QueryEngine,
                          warm: &mut Served,
                          tally: &mut Tally|
     -> Result<Vec<u64>, String> {
        let mut digests = Vec::with_capacity(inputs.queries.len());
        for (field, roi) in &inputs.queries {
            let view = engine
                .roi(*field, *roi, LevelSelect::All)
                .map_err(|e| format!("warm-up roi: {e}"))?;
            let slices = oracle::slices_of_view(&view);
            tally.check(
                oracle::view_matches_decode(pf, &slices, roi, *field),
                || format!("file {file} roi field {field} {roi:?} differs from the full decode"),
            );
            let digest = oracle::digest_slices(&slices);
            for (client, handles) in warm.clients.iter_mut().zip(&warm.handles) {
                let served = client.roi(
                    handles[file],
                    *field as u32,
                    wire(&roi.lo),
                    wire(&roi.hi),
                    WireSelect::All,
                );
                if let Some(served) = tally.op(served, "served scan") {
                    tally.check(
                        oracle::digest_slices(&oracle::slices_of_served(&served)) == digest,
                        || {
                            format!(
                                "served file {file} field {field} {roi:?} differs from in-process"
                            )
                        },
                    );
                }
            }
            digests.push(digest);
        }
        Ok(digests)
    };

    // Snapshot 0: bound check, ROI queries, point probes.
    let pf0 = decode(0)?;
    for v in verify_against(&pf0, &inputs.snapshots[0], REL_EB) {
        tally.check(v.bound_ok, || {
            format!("t=0 field {}: error bound broken", v.field)
        });
    }
    let roi0 = verify_queries(0, &pf0, &rig.engine, &mut rig.warm, tally)?;
    let mut points = Vec::with_capacity(nfields);
    for field in 0..nfields {
        let mut answers = Vec::with_capacity(POINT_BATCH);
        for p in &inputs.points {
            let got = rig
                .engine
                .point_sample(field, *p)
                .map_err(|e| format!("warm-up point: {e}"))?
                .map(|s| (s.level, s.value));
            let want = oracle::reference_point(&pf0, p, field);
            tally.check(
                got.map(|(l, v)| (l, v.to_bits())) == want.map(|(l, v)| (l, v.to_bits())),
                || format!("point {p:?} field {field}: {got:?}, full decode {want:?}"),
            );
            answers.push(got);
        }
        points.push(oracle::digest_points(answers.into_iter()));
    }
    let restart0 = oracle::digest_plotfile(&pf0);
    drop(pf0);

    // Snapshot 1: bound check, ROI queries (served scans rotate files).
    let pf1 = decode(1)?;
    for v in verify_against(&pf1, &inputs.snapshots[1], REL_EB) {
        tally.check(v.bound_ok, || {
            format!("t=1 field {}: error bound broken", v.field)
        });
    }
    let engine1 = QueryEngine::open(&rig.files[1]).map_err(|e| format!("open t=1: {e}"))?;
    let roi1 = verify_queries(1, &pf1, &engine1, &mut rig.warm, tally)?;
    Ok(Expected {
        restart: [restart0, oracle::digest_plotfile(&pf1)],
        roi: [roi0, roi1],
        points,
    })
}

/// The phases of one measurement round and their shares of its nominal
/// length; a phase runs for its share or one whole cycle, whichever is
/// longer; cold ROI and the scans are one cycle of 48 a round at full size.
/// Dump and restart get the most: they are the long operations (0.1–0.3 s),
/// the least likely to run undisturbed from start to end, so their floors
/// need the most tries. The shares are part of the benchmark's definition.
const PHASES: [(&str, f64); 7] = [
    ("dump", 0.30),
    ("restart", 0.20),
    ("roi_cold", 0.12),
    ("roi_warm", 0.04),
    ("points", 0.04),
    ("serve_warm", 0.12),
    ("serve_cold", 0.18),
];

/// Run whole cycles of `n` operations, `op(0..n)`, until `deadline`; at
/// least one cycle. Every phase samples in whole cycles over its distinct
/// operations (both snapshots, all 48 ROI queries, every file and field),
/// so each round draws the same mix, and sample `i` of a round is
/// operation `i % n`: what `Series::floor` relies on to tell the
/// operations apart.
pub fn cycles(deadline: Instant, n: usize, mut op: impl FnMut(usize)) {
    loop {
        (0..n).for_each(&mut op);
        if Instant::now() >= deadline {
            break;
        }
    }
}

/// The measured end-to-end operations, shared by the untraced and the
/// traced pass (which times the same calls as `e2e` spans).
pub struct Ops<'a> {
    pub inputs: &'a Inputs,
    pub rig: &'a mut Rig,
    pub expected: &'a Expected,
    pub dump_path: PathBuf,
    pub tally: Tally,
}

impl Ops<'_> {
    pub fn nfields(&self) -> usize {
        self.expected.points.len()
    }

    /// One dump of snapshot `t`. Returns `(seconds, raw MB)`.
    pub fn dump(&mut self, t: usize) -> (f64, f64) {
        let (h, cfg) = (&self.inputs.snapshots[t], self.inputs.spec.amric_config());
        let t0 = Instant::now();
        let report = write_amric(&self.dump_path, h, &cfg, BLOCKING_FACTOR);
        let secs = t0.elapsed().as_secs_f64();
        let want = self.rig.reports[t].stored_bytes;
        if let Some(r) = self.tally.op(report, "dump") {
            self.tally.check(r.stored_bytes == want, || {
                format!("dump t={t} stored {} bytes, fixture {want}", r.stored_bytes)
            });
        }
        (secs, h.snapshot_bytes() as f64 / 1e6)
    }

    /// One restart (full decode) of snapshot `t`.
    pub fn restart(&mut self, t: usize) -> (f64, f64) {
        let t0 = Instant::now();
        let pf = read_amric_hierarchy(&self.rig.files[t]);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(pf) = self.tally.op(pf, "restart") {
            self.tally.check(
                oracle::digest_plotfile(&pf) == self.expected.restart[t],
                || format!("restart t={t} decoded different values than the warm-up decode"),
            );
        }
        (secs, self.inputs.snapshots[t].snapshot_bytes() as f64 / 1e6)
    }

    fn check_view(&mut self, view: QueryResult<RegionView>, q: usize, what: &str) {
        if let Some(view) = self.tally.op(view, what) {
            let digest = oracle::digest_slices(&oracle::slices_of_view(&view));
            self.tally.check(digest == self.expected.roi[0][q], || {
                format!("{what} query {q} differs from its verified answer")
            });
        }
    }

    /// Query `q` cold: a fresh engine, then the ROI. Seconds.
    pub fn roi_cold(&mut self, q: usize) -> f64 {
        let (field, roi) = self.inputs.queries[q];
        let t0 = Instant::now();
        let view = QueryEngine::open(&self.rig.files[0])
            .and_then(|engine| engine.roi(field, roi, LevelSelect::All));
        let secs = t0.elapsed().as_secs_f64();
        self.check_view(view, q, "cold roi");
        secs
    }

    /// Query `q` on the long-lived, warm engine. Seconds.
    pub fn roi_warm(&mut self, q: usize) -> f64 {
        let (field, roi) = self.inputs.queries[q];
        let t0 = Instant::now();
        let view = self.rig.engine.roi(field, roi, LevelSelect::All);
        let secs = t0.elapsed().as_secs_f64();
        self.check_view(view, q, "warm roi");
        secs
    }

    /// One 1000-point batch of `field` on the warm engine. Seconds for
    /// the batch.
    pub fn point_batch(&mut self, field: usize) -> f64 {
        let mut answers = Vec::with_capacity(POINT_BATCH);
        let t0 = Instant::now();
        for p in &self.inputs.points {
            answers.push(self.rig.engine.point_sample(field, *p));
        }
        let secs = t0.elapsed().as_secs_f64();
        let ok = answers.iter().all(Result::is_ok);
        self.tally
            .check(ok, || format!("point batch field {field}: a sample failed"));
        if ok {
            let digest = oracle::digest_points(
                answers
                    .into_iter()
                    .map(|a| a.expect("checked").map(|s| (s.level, s.value))),
            );
            self.tally.check(digest == self.expected.points[field], || {
                format!("point batch field {field} differs from its verified answers")
            });
        }
        secs
    }

    /// Closed-loop served scans — the ROI queries over the socket — on
    /// `nclients` connections of one server: each connection runs whole
    /// cycles of `per_cycle` scans until `deadline`. Scan `first + i` of a
    /// cycle asks query `first + i` of file `(first + i) % 2`: a cycle
    /// walks the queries once, the files alternating (asking every query
    /// of both files makes a `warpx_interp` cycle outlast a second, and
    /// the fewer cycles a run holds, the worse the floor of each scan is
    /// known). Returns every round trip in seconds.
    pub fn scans(
        &mut self,
        cold: bool,
        nclients: usize,
        deadline: Instant,
        (first, per_cycle): (usize, usize),
    ) -> Vec<f64> {
        let queries = &self.inputs.queries;
        let served = if cold {
            &mut self.rig.cold
        } else {
            &mut self.rig.warm
        };
        let expected = &self.expected.roi;
        let results: Vec<(Vec<f64>, Tally)> = std::thread::scope(|s| {
            let threads: Vec<_> = served
                .clients
                .iter_mut()
                .zip(&served.handles)
                .take(nclients)
                .enumerate()
                .map(|(c, (client, handles))| {
                    // Connections walk the rotation 25 steps apart: never
                    // the same file and query at the same time, or one
                    // would ride on the chunk the other just decoded.
                    let first = first + 25 * c;
                    s.spawn(move || {
                        let (mut times, mut tally) = (Vec::new(), Tally::default());
                        cycles(deadline, per_cycle, |i| {
                            let (file, q) = ((first + i) % 2, (first + i) % queries.len());
                            let (field, roi) = queries[q];
                            let (lo, hi) = (wire(&roi.lo), wire(&roi.hi));
                            let t0 = Instant::now();
                            let view =
                                client.roi(handles[file], field as u32, lo, hi, WireSelect::All);
                            times.push(t0.elapsed().as_secs_f64());
                            if let Some(view) = tally.op(view, "served scan") {
                                let got = oracle::digest_slices(&oracle::slices_of_served(&view));
                                tally.check(got == expected[file][q], || {
                                    format!("served scan file {file} query {q} differs")
                                });
                            }
                        });
                        (times, tally)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("client thread panicked"))
                .collect()
        });
        let mut all = Vec::new();
        for (times, tally) in results {
            all.extend(times);
            self.tally.merge(tally);
        }
        all
    }
}

/// Sampled series of one pass, by name, plus the host noise readings.
#[derive(Default)]
pub struct Measured {
    pub series: BTreeMap<&'static str, Series>,
    pub calib: Series,
    pub cpu_util: f64,
    pub steal_frac: f64,
}

impl Measured {
    pub fn push(&mut self, name: &'static str, v: f64) {
        self.series.entry(name).or_default().push(v);
    }

    pub fn begin_round(&mut self) {
        self.series.values_mut().for_each(Series::begin_round);
        self.calib.begin_round();
        self.calib.push(crate::host::calibrate_ms());
    }

    pub fn summary(&self, name: &str) -> Summary {
        self.series
            .get(name)
            .map_or_else(|| Summary::exact(f64::NAN), Series::summary)
    }

    /// Median of every calibration reading of the pass: how fast the
    /// host's clock ran for this process while it measured.
    pub fn clock_ms(&self) -> f64 {
        median(&self.calib.pooled_sorted())
    }

    pub fn floor(&self, name: &str, better: Better) -> Summary {
        self.series
            .get(name)
            .map_or_else(|| Summary::exact(f64::NAN), |s| s.floor(better))
    }
}

/// Run `f` between two readings of the process and host CPU counters;
/// returns `(cpu_util, steal_frac)` over the interval.
pub fn with_cpu_accounting(f: impl FnOnce()) -> (f64, f64) {
    let (cpu0, (steal0, total0), t0) = (
        crate::host::process_cpu_seconds(),
        crate::host::steal_and_total_jiffies(),
        Instant::now(),
    );
    f();
    let wall = t0.elapsed().as_secs_f64();
    let cpu = crate::host::process_cpu_seconds() - cpu0;
    let (steal1, total1) = crate::host::steal_and_total_jiffies();
    (
        cpu / (wall * crate::host::cores() as f64).max(1e-9),
        (steal1 - steal0) / (total1 - total0).max(1.0),
    )
}

/// The measured phase of the untraced pass: rounds of every phase, for
/// `seconds` in total.
pub fn measure(ops: &mut Ops<'_>, seconds: f64) -> Measured {
    let mut m = Measured::default();
    let (nqueries, nfields) = (ops.inputs.queries.len(), ops.nfields());
    // Each series with the distinct operations of one cycle of its phase.
    for (name, cycle) in [
        ("write_mb_s", 2),
        ("read_full_mb_s", 2),
        ("roi_cold_ms", nqueries),
        ("roi_warm_ms", nqueries),
        ("point_us", nfields),
        ("serve_scan_ms", nqueries),
        ("serve_scan_cold_ms", nqueries),
    ] {
        m.series.insert(name, Series::cyclic(cycle));
    }
    let start = Instant::now();
    let (cpu_util, steal_frac) = with_cpu_accounting(|| {
        loop {
            m.begin_round();
            let round_start = Instant::now();
            let mut share_done = 0.0;
            for (phase, share) in PHASES {
                share_done += share;
                let deadline = round_start + Duration::from_secs_f64(share_done * ROUND_SECONDS);
                m.calib.push(crate::host::calibrate_ms());
                match phase {
                    "dump" => cycles(deadline, 2, |t| {
                        let (secs, mb) = ops.dump(t);
                        m.push("write_mb_s", mb / secs);
                    }),
                    "restart" => cycles(deadline, 2, |t| {
                        let (secs, mb) = ops.restart(t);
                        m.push("read_full_mb_s", mb / secs);
                    }),
                    "roi_cold" => cycles(deadline, nqueries, |q| {
                        m.push("roi_cold_ms", ops.roi_cold(q) * 1e3)
                    }),
                    "roi_warm" => cycles(deadline, nqueries, |q| {
                        m.push("roi_warm_ms", ops.roi_warm(q) * 1e3)
                    }),
                    "points" => cycles(deadline, nfields, |f| {
                        m.push("point_us", ops.point_batch(f) * 1e6 / POINT_BATCH as f64)
                    }),
                    "serve_warm" => {
                        for secs in ops.scans(false, CLIENTS, deadline, (0, nqueries)) {
                            m.push("serve_scan_ms", secs * 1e3);
                        }
                    }
                    "serve_cold" => {
                        for secs in ops.scans(true, CLIENTS, deadline, (0, nqueries)) {
                            m.push("serve_scan_cold_ms", secs * 1e3);
                        }
                    }
                    other => unreachable!("unknown phase {other}"),
                }
            }
            // No further round unless one as long as this fits.
            if (start.elapsed() + round_start.elapsed()).as_secs_f64() > seconds {
                break;
            }
        }
    });
    m.cpu_util = cpu_util;
    m.steal_frac = steal_frac;
    m
}

/// `setup_s` from the timed set-ups.
pub fn setup_summary(times: &[f64]) -> Summary {
    Summary {
        value: median(times),
        median: median(times),
        lo: times.iter().copied().fold(f64::INFINITY, f64::min),
        hi: times.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: times.len(),
        tail: None,
        rounds: times.to_vec(),
    }
}
