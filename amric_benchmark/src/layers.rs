//! The traced pass: per-layer numbers and the waterfalls.
//!
//! For each end-to-end operation a root span is opened; its first child
//! `e2e` is the real call, the other children replay — through public
//! functions only, on the same inputs, in the order the operation makes
//! them — the calls it consists of. What the replays do not explain is
//! stated as a residual, never dropped: it holds the copies and
//! allocations between the layers, thread spawn and collectives, and
//! whatever two rank threads lose to each other on two cores.

use crate::inputs::{self, Inputs, BLOCKING_FACTOR, NRANKS};
use crate::lifecycle::{cycles, with_cpu_accounting, Measured, Ops};
use crate::report::sig;
use crate::stats::{median, percentile_sorted, Summary};
use crate::trace::{self_times_ns, Tracer};
use amr_mesh::prelude::*;
use amr_query::prelude::*;
use amr_serve::protocol::{read_frame, write_frame, Response, DEFAULT_MAX_RESPONSE_FRAME};
use amr_serve::{WireRegion, WireSelect};
use amric::pipeline::ResolvedBound;
use amric::prelude::*;
use amric::reorganize::cluster_pack;
use amric::writer::{field_dataset, AmricFieldFilter, FILTER_AMRIC};
use h5lite::prelude::*;
use rankpar::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use sz_codec::prelude::*;
use sz_codec::quantizer::Quantizer;
use sz_codec::{huffman, lossless};

/// What the traced pass hands back.
pub struct Traced {
    pub measured: Measured,
    /// Layer metric name → value.
    pub values: BTreeMap<&'static str, Summary>,
    pub tracer: Tracer,
    /// Printed waterfalls.
    pub sections: Vec<String>,
}

/// Rounds of the traced pass; every phase runs once in every round.
const ROUNDS: usize = 6;

/// Shares of a traced round.
const PHASES: [(&str, f64); 6] = [
    ("dump", 0.26),
    ("restart", 0.14),
    ("codec", 0.14),
    ("query", 0.20),
    ("serve", 0.20),
    ("rankpar", 0.06),
];

const RANK_SPANS: [&str; NRANKS] = ["rank0"];

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Write-side facts of snapshot 0 that the replays need and the writer
/// computes through collectives: per level the unit edge, per (level,
/// field) the bound resolved against the global value range.
struct WritePlan {
    unit_edge: Vec<i64>,
    bounds: Vec<Vec<ResolvedBound>>,
    /// Cells the writer drops as redundant ÷ level-0 cells.
    redundant_frac: f64,
    /// Values the writer keeps: kept cells of every level × fields.
    kept_values: u64,
}

/// One rank's unit plan of one level, as the writer decomposes it.
fn plan_of(h: &AmrHierarchy, cfg: &amric::AmricConfig, l: usize, rank: usize) -> Vec<UnitRef> {
    let finer = (l + 1 < h.num_levels()).then(|| (h.level(l + 1).data.box_array(), h.ref_ratio(l)));
    plan_units(
        &h.level(l).data,
        finer,
        unit_edge_for_level(BLOCKING_FACTOR, l, h.num_levels()),
        rank,
        cfg.remove_redundancy,
    )
}

fn write_plan(h: &AmrHierarchy, cfg: &amric::AmricConfig) -> WritePlan {
    let nlevels = h.num_levels();
    let nfields = h.field_names().len();
    let unit_edge: Vec<i64> = (0..nlevels)
        .map(|l| unit_edge_for_level(BLOCKING_FACTOR, l, nlevels))
        .collect();
    let mut bounds = Vec::with_capacity(nlevels);
    let (mut kept0, mut kept) = (0u64, 0u64);
    for l in 0..nlevels {
        let level = &h.level(l).data;
        let plans: Vec<Vec<UnitRef>> = (0..NRANKS).map(|r| plan_of(h, cfg, l, r)).collect();
        let kept_here: u64 = plans.iter().flatten().map(|u| u.region.num_cells()).sum();
        kept += kept_here;
        if l == 0 {
            kept0 = kept_here;
        }
        bounds.push(
            (0..nfields)
                .map(|f| {
                    let (lo, hi) = plans.iter().flat_map(|p| extract_units(level, p, f)).fold(
                        (f64::INFINITY, f64::NEG_INFINITY),
                        |(lo, hi), u| {
                            let (a, b) = u.min_max();
                            (lo.min(a), hi.max(b))
                        },
                    );
                    let range = if hi > lo { hi - lo } else { 0.0 };
                    ResolvedBound::from_policy(cfg.bound, cfg.rel_eb, range)
                })
                .collect(),
        );
    }
    let cells0 = h.level(0).data.num_cells();
    WritePlan {
        unit_edge,
        bounds,
        redundant_frac: (cells0 - kept0) as f64 / cells0 as f64,
        kept_values: kept * nfields as u64,
    }
}

/// State of the traced pass.
struct Pass<'a, 'b> {
    ops: &'a mut Ops<'b>,
    inputs: &'b Inputs,
    cfg: amric::AmricConfig,
    plan: WritePlan,
    /// Snapshot 0 dealt out to two ranks (rank-scaling variant).
    two_ranks: AmrHierarchy,
    replay_path: PathBuf,
    starved: QueryEngine,
    m: Measured,
    tracer: Tracer,
    /// Exact counts: served-scan counters, and the first traced dump's.
    counts: BTreeMap<&'static str, f64>,
    iter: usize,
}

impl Pass<'_, '_> {
    /// Plain dump, traced dump with its replays, then the scaling and
    /// storage variants of the same dump.
    fn dump_phase(&mut self) {
        let inputs = self.inputs;
        let h = &inputs.snapshots[0];
        let cfg = self.cfg;
        let dump_path = self.ops.dump_path.clone();

        // Untraced twin of the traced call below, same snapshot.
        let t0 = Instant::now();
        let plain = write_amric(&dump_path, h, &cfg, BLOCKING_FACTOR);
        let plain_s = t0.elapsed().as_secs_f64();
        self.ops.tally.op(plain, "plain dump");
        self.m.push("dump.plain_s", plain_s);

        let root = self.tracer.begin_op("dump");
        let writer = match H5Writer::create(&dump_path) {
            Ok(w) => Arc::new(w),
            Err(e) => {
                self.ops.tally.op(Err::<(), _>(e), "create dump file");
                self.tracer.end(root);
                return;
            }
        };
        let (report, e2e_s) = self.tracer.child("e2e", root, || {
            write_amric_to(Arc::clone(&writer), h, &cfg, BLOCKING_FACTOR)
        });
        let Some(report) = self.ops.tally.op(report, "traced dump") else {
            self.tracer.end(root);
            return;
        };
        self.m.push("amric.writer.total_ms", e2e_s * 1e3);
        self.m.push(
            "amric.writer.prep_s",
            report.prep_seconds.iter().copied().fold(0.0, f64::max),
        );
        self.m.push(
            "amric.writer.compute_s",
            report
                .ledgers
                .iter()
                .map(|l| l.measured_compute_s)
                .fold(0.0, f64::max),
        );
        if !self.counts.contains_key("h5lite.filter_calls") {
            let stats = writer.stats();
            let file_len = std::fs::metadata(&dump_path).map_or(0, |m| m.len());
            let frame_bytes: u64 = report.ledgers.iter().map(|l| l.bytes_written).sum();
            let filter_calls: u64 = report.ledgers.iter().map(|l| l.filter_calls).sum();
            self.counts.extend([
                ("h5lite.filter_calls", filter_calls as f64),
                ("h5lite.write_calls", stats.write_calls as f64),
                ("h5lite.bytes_written", stats.bytes_written as f64),
                (
                    "h5lite.container_overhead_frac",
                    (file_len.saturating_sub(frame_bytes)) as f64 / file_len.max(1) as f64,
                ),
                (
                    "sz_codec.bits_per_value",
                    frame_bytes as f64 * 8.0 / self.plan.kept_values as f64,
                ),
                ("amric.cr", report.compression_ratio()),
            ]);
        }

        // Replays, rank by rank: the real ranks run side by side, so the
        // slowest rank's chain plus the serial tail is what the dump
        // cannot be faster than.
        let replay = H5Writer::create(&self.replay_path);
        let Some(replay) = self.ops.tally.op(replay, "create replay file") else {
            self.tracer.end(root);
            return;
        };
        let nfields = h.field_names().len();
        let mut slowest_rank_s = 0.0f64;
        let (mut plan_s, mut extract_s, mut compress_s, mut frames_s) = (0.0, 0.0, 0.0, 0.0);
        let mut extract_bytes = 0usize;
        let mut records: Vec<Vec<Vec<ChunkRecord>>> =
            vec![vec![Vec::new(); nfields]; h.num_levels()];
        let mut extents: Vec<Vec<Option<amric::preprocess::PlanExtent>>> =
            vec![Vec::new(); h.num_levels()];
        let mut scratch = AmricScratch::default();
        for (rank, rank_span) in RANK_SPANS.into_iter().enumerate() {
            let rspan = self.tracer.begin(rank_span, root);
            let (plans, t_plan) = self.tracer.child("amric.preprocess.plan", rspan, || {
                (0..h.num_levels())
                    .map(|l| plan_of(h, &cfg, l, rank))
                    .collect::<Vec<_>>()
            });
            for (l, p) in plans.iter().enumerate() {
                extents[l].push(amric::preprocess::plan_bounding_box(p));
            }
            // Field-major staging, as the writer does it: this rank's
            // units of one field, extracted and concatenated.
            let (staged, t_extract) = self.tracer.child("amric.preprocess.extract", rspan, || {
                let mut all = Vec::with_capacity(h.num_levels() * nfields);
                for (l, p) in plans.iter().enumerate() {
                    for f in 0..nfields {
                        let bufs = extract_units(&h.level(l).data, p, f);
                        let mut flat =
                            Vec::with_capacity(bufs.iter().map(|b| b.dims().len()).sum());
                        for b in &bufs {
                            flat.extend_from_slice(b.data());
                        }
                        all.push((l, f, bufs, flat));
                    }
                }
                all
            });
            extract_bytes += staged.iter().map(|s| s.3.len() * 8).sum::<usize>();
            let (frames, t_compress) = self.tracer.child("amric.pipeline.compress", rspan, || {
                staged
                    .iter()
                    .map(|(l, f, bufs, _)| {
                        let mut out = Vec::new();
                        if !bufs.is_empty() {
                            compress_field_units_resolved_into(
                                bufs,
                                &cfg,
                                self.plan.unit_edge[*l] as usize,
                                self.plan.bounds[*l][*f],
                                &mut scratch,
                                &mut out,
                            );
                        }
                        (
                            *l,
                            *f,
                            out,
                            bufs.iter().map(|b| b.dims().len() as u64).sum::<u64>(),
                        )
                    })
                    .collect::<Vec<_>>()
            });
            drop(staged);
            let (written, t_frames) = self.tracer.child("h5lite.write_frames", rspan, || {
                frames
                    .iter()
                    .filter(|(_, _, bytes, _)| !bytes.is_empty())
                    .map(|(l, f, bytes, elems)| {
                        let at = replay.reserve_extent([bytes.len() as u64]).offsets[0];
                        replay.write_at(at, bytes).map(|()| {
                            (
                                *l,
                                *f,
                                ChunkRecord {
                                    offset: at,
                                    stored_bytes: bytes.len() as u64,
                                    logical_elems: *elems,
                                },
                            )
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            self.tracer.end(rspan);
            if let Some(written) = self.ops.tally.op(written, "replay write frames") {
                for (l, f, rec) in written {
                    records[l][f].push(rec);
                }
            }
            slowest_rank_s = slowest_rank_s.max(t_plan + t_extract + t_compress + t_frames);
            plan_s += t_plan;
            extract_s += t_extract;
            compress_s += t_compress;
            frames_s += t_frames;
        }
        // Rank 0's serial tail: register every dataset with its index.
        let (registered, t_register) = self.tracer.child("h5lite.write_frames", root, || {
            for (l, per_field) in records.iter().enumerate() {
                for (f, chunks) in per_field.iter().enumerate() {
                    let filter = AmricFieldFilter {
                        cfg,
                        unit_edge: self.plan.unit_edge[l] as usize,
                        bound: self.plan.bounds[l][f],
                    };
                    let name = field_dataset(l, f);
                    replay.register_dataset(DatasetMeta {
                        name: name.clone(),
                        total_elems: chunks.iter().map(|c| c.logical_elems).sum(),
                        chunk_elems: chunks
                            .iter()
                            .map(|c| c.logical_elems)
                            .max()
                            .unwrap_or(1)
                            .max(1),
                        filter_id: FILTER_AMRIC,
                        filter_mode: FilterMode::SizeAware,
                        client_data: filter.client_data(),
                        chunks: chunks.clone(),
                    })?;
                    if !chunks.is_empty() {
                        let entries = extents[l]
                            .iter()
                            .map(|e| ChunkIndexEntry::new(CodecId::AmricPipeline as u32, *e))
                            .collect();
                        replay.set_chunk_index(&name, ChunkIndex::new(entries))?;
                    }
                }
            }
            Ok::<(), H5Error>(())
        });
        self.ops.tally.op(registered, "replay register datasets");
        let (finished, t_finish) = self.tracer.child("h5lite.finish", root, || replay.finish());
        self.ops.tally.op(finished, "replay finish");
        self.tracer.end(root);

        self.m.push("amric.preprocess.plan_ms", plan_s * 1e3);
        self.m.push(
            "amric.preprocess.extract_mb_s",
            mb(extract_bytes) / extract_s,
        );
        self.m.push(
            "amric.pipeline.compress_mb_s",
            mb(extract_bytes) / compress_s,
        );
        self.m
            .push("h5lite.write_frames_ms", (frames_s + t_register) * 1e3);
        self.m.push("h5lite.finish_ms", t_finish * 1e3);
        self.m.push(
            "amric.writer.residual_frac",
            1.0 - (slowest_rank_s + t_register + t_finish) / e2e_s,
        );

        // The same dump into memory, from two ranks, and with two pool
        // workers on the one rank.
        let t0 = Instant::now();
        let (mem_writer, _image) = H5Writer::in_memory();
        let in_mem = write_amric_to(Arc::new(mem_writer), h, &cfg, BLOCKING_FACTOR);
        self.m.push("dump.mem_s", t0.elapsed().as_secs_f64());
        self.ops.tally.op(in_mem, "in-memory dump");
        for (name, hierarchy, workers) in [
            ("dump.two_ranks_s", &self.two_ranks, 1),
            ("dump.two_workers_s", h, 2),
        ] {
            let t0 = Instant::now();
            let r = write_amric(
                &self.replay_path,
                hierarchy,
                &cfg.with_workers(workers),
                BLOCKING_FACTOR,
            );
            self.m.push(name, t0.elapsed().as_secs_f64());
            self.ops.tally.op(r, "scaling dump");
        }
    }

    /// Traced restart with its replays.
    fn restart_phase(&mut self) {
        let file = self.ops.rig.files[0].clone();
        let root = self.tracer.begin_op("restart");
        let (pf, e2e_s) = self
            .tracer
            .child("e2e", root, || read_amric_hierarchy(&file));
        if let Some(pf) = self.ops.tally.op(pf, "traced restart") {
            let same = crate::oracle::digest_plotfile(&pf) == self.ops.expected.restart[0];
            self.ops
                .tally
                .check(same, || "traced restart decoded different values".into());
        }
        let replayed = (|| -> Result<f64, H5Error> {
            let (reader, t_open) = self
                .tracer
                .child("h5lite.open", root, || H5Reader::open(&file));
            let reader = reader?;
            let (meta, t_meta) = self.tracer.child("amric.reader.meta", root, || {
                read_plotfile_meta(&reader).map(|m| {
                    let plans = m.unit_plans();
                    (m, plans)
                })
            });
            let (meta, plans) = meta?;
            let nfields = meta.field_names.len();
            // (level, field, rank) in the order the reader walks them.
            let keys: Vec<(usize, usize, usize)> = (0..meta.num_levels())
                .flat_map(|l| (0..nfields).map(move |f| (l, f)))
                .flat_map(|(l, f)| (0..meta.nranks).map(move |r| (l, f, r)))
                .filter(|&(l, _, r)| !plans[l][r].is_empty())
                .collect();
            let (raw, t_read) = self.tracer.child("h5lite.read_chunk_raw", root, || {
                keys.iter()
                    .map(|&(l, f, r)| {
                        let mut buf = Vec::new();
                        reader
                            .read_chunk_raw_into(&field_dataset(l, f), r, &mut buf)
                            .map(|()| buf)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let raw = raw?;
            let raw_bytes: usize = raw.iter().map(Vec::len).sum();
            let (units, t_decode) = self.tracer.child("amric.pipeline.decompress", root, || {
                raw.iter()
                    .map(|bytes| decompress_field_units(bytes))
                    .collect::<Result<Vec<_>, _>>()
            });
            let units = units.map_err(H5Error::Codec)?;
            let decoded_bytes: usize = units.iter().flatten().map(|u| u.dims().len() * 8).sum();
            let (mut levels, t_alloc) = self.tracer.child("amr_mesh.multifab_new", root, || {
                meta.levels
                    .iter()
                    .map(|l| {
                        MultiFab::new(l.boxes.clone(), l.owners.clone(), meta.field_names.clone())
                    })
                    .collect::<Vec<_>>()
            });
            let ((), t_scatter) = self.tracer.child("amric.reader.scatter", root, || {
                for (&(l, f, r), u) in keys.iter().zip(&units) {
                    scatter_units(&mut levels[l], &plans[l][r], f, u);
                }
            });
            self.m.push("h5lite.open_ms", t_open * 1e3);
            self.m.push("amric.reader.meta_ms", t_meta * 1e3);
            self.m
                .push("h5lite.read_chunk_raw_mb_s", mb(raw_bytes) / t_read);
            self.m.push(
                "amric.pipeline.decompress_mb_s",
                mb(decoded_bytes) / t_decode,
            );
            self.m
                .push("amric.reader.scatter_mb_s", mb(decoded_bytes) / t_scatter);
            Ok(t_open + t_meta + t_read + t_decode + t_alloc + t_scatter)
        })();
        self.tracer.end(root);
        if let Some(explained) = self.ops.tally.op(replayed, "restart replay") {
            self.m
                .push("amric.reader.residual_frac", 1.0 - explained / e2e_s);
        }
    }

    /// Bare `sz-codec` calls on one rank-field chunk's unit blocks, next
    /// to the pipeline call on the same units.
    fn codec_phase(&mut self) {
        let inputs = self.inputs;
        let h = &inputs.snapshots[0];
        let nfields = h.field_names().len();
        let field = self.iter % nfields;
        let unit = self.plan.unit_edge[0];
        let plan = plan_of(h, &self.cfg, 0, 0);
        let units = extract_units(&h.level(0).data, &plan, field);
        let uniform = units
            .first()
            .is_some_and(|u| units.iter().all(|v| v.dims() == u.dims()));
        self.ops.tally.check(uniform, || {
            "level-0 units of rank 0 are not uniform cubes".into()
        });
        if !uniform {
            return;
        }
        let abs_eb = self.plan.bounds[0][field].loose();
        let raw_mb = mb(units.iter().map(|u| u.dims().len() * 8).sum());
        let timed = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        };

        // Pipeline, then the bare call each family makes underneath.
        let mut scratch = AmricScratch::default();
        let mut stream = Vec::new();
        let pipeline_s = timed(&mut || {
            compress_field_units_with_bound_into(
                &units,
                &self.cfg,
                unit as usize,
                abs_eb,
                &mut scratch,
                &mut stream,
            );
        });
        let refs: Vec<&Buffer3> = units.iter().collect();
        let lr_cfg = LrConfig::new(abs_eb).with_block_size(self.cfg.sz_block_size(unit as usize));
        let (mut lr_scratch, mut lr_stream) = (LrScratch::default(), Vec::new());
        let lr_s = timed(&mut || {
            lr::compress_domains_into(&refs, &lr_cfg, &mut lr_scratch, &mut lr_stream)
        });
        let mut lr_back = None;
        let lr_d = timed(&mut || lr_back = Some(lr::decompress_domains(&lr_stream)));
        let (packed, _grid) = cluster_pack(&units);
        let mut interp_stream = Vec::new();
        let interp_s = timed(&mut || {
            interp::compress_into(&packed, &InterpConfig::new(abs_eb), &mut interp_stream)
        });
        let mut interp_back = None;
        let interp_d = timed(&mut || interp_back = Some(interp::decompress(&interp_stream)));
        let within = |a: &[f64], b: &[f64]| {
            a.len() == b.len()
                && a.iter()
                    .zip(b)
                    .all(|(x, y)| (x - y).abs() <= abs_eb * (1.0 + 1e-9))
        };
        if let Some(back) = self.ops.tally.op(lr_back.expect("ran"), "bare lr decode") {
            let ok = back.len() == units.len()
                && back
                    .iter()
                    .zip(&units)
                    .all(|(a, b)| within(a.data(), b.data()));
            self.ops
                .tally
                .check(ok, || "bare lr roundtrip broke the bound".into());
        }
        if let Some(back) = self
            .ops
            .tally
            .op(interp_back.expect("ran"), "bare interp decode")
        {
            let ok = within(back.data(), packed.data());
            self.ops
                .tally
                .check(ok, || "bare interp roundtrip broke the bound".into());
        }
        let bare_s = match self.inputs.spec.family {
            inputs::Family::Lr => lr_s,
            inputs::Family::Interp => interp_s,
        };
        self.m.push("sz_codec.lr_compress_mb_s", raw_mb / lr_s);
        self.m.push("sz_codec.lr_decompress_mb_s", raw_mb / lr_d);
        self.m
            .push("sz_codec.interp_compress_mb_s", raw_mb / interp_s);
        self.m
            .push("sz_codec.interp_decompress_mb_s", raw_mb / interp_d);
        self.m
            .push("amric.pipeline.overhead_frac", 1.0 - bare_s / pipeline_s);

        // Entropy and lossless stages on a symbol stream derived here:
        // the chunk's values quantized at its bound against the previous
        // reconstructed value.
        let q = Quantizer::new(abs_eb);
        let mut pred = 0.0;
        let symbols: Vec<u32> = units
            .iter()
            .flat_map(|u| u.data())
            .map(|&v| {
                let (sym, recon) = q.quantize(v, pred);
                pred = recon;
                sym
            })
            .collect();
        let msym = symbols.len() as f64 / 1e6;
        let mut coded = Vec::new();
        let enc_s = timed(&mut || coded = huffman::encode_with_table(&symbols));
        let mut decoded = None;
        let dec_s = timed(&mut || decoded = Some(huffman::decode_with_table(&coded)));
        let same = self.ops.tally.op(decoded.expect("ran"), "huffman decode");
        self.ops
            .tally
            .check(same.as_deref() == Some(&symbols[..]), || {
                "huffman roundtrip differs".into()
            });
        let mut packed_bytes = Vec::new();
        let pack_s = timed(&mut || lossless::compress_into(&coded, &mut packed_bytes));
        let mut unpacked = None;
        let unpack_s = timed(&mut || unpacked = Some(lossless::decompress(&packed_bytes)));
        let same = self.ops.tally.op(unpacked.expect("ran"), "lossless decode");
        self.ops
            .tally
            .check(same.as_deref() == Some(&coded[..]), || {
                "lossless roundtrip differs".into()
            });
        self.m.push("sz_codec.huffman_encode_msym_s", msym / enc_s);
        self.m.push("sz_codec.huffman_decode_msym_s", msym / dec_s);
        self.m
            .push("sz_codec.lossless_compress_mb_s", mb(coded.len()) / pack_s);
        self.m.push(
            "sz_codec.lossless_decompress_mb_s",
            mb(coded.len()) / unpack_s,
        );
    }

    /// The chunks (level, rank) a cold ROI must read, planned here from
    /// the engine's public metadata exactly as its planner does: indexed
    /// extent first, then the exact unit-plan test.
    fn chunks_of(engine: &QueryEngine, roi: &IntBox) -> Vec<(usize, usize)> {
        let meta = engine.meta();
        let mut out = Vec::new();
        for l in 0..meta.num_levels() {
            let Some(region) = roi
                .refined(meta.refine_factor(l))
                .intersection(&meta.levels[l].domain)
            else {
                continue;
            };
            let entries = engine.chunk_entries(l).unwrap_or(&[]);
            for (rank, entry) in entries.iter().enumerate() {
                if entry.intersects(region.lo.0, region.hi.0)
                    && meta
                        .unit_plan(l, rank)
                        .iter()
                        .any(|u| u.region.intersects(&region))
                {
                    out.push((l, rank));
                }
            }
        }
        out
    }

    /// Traced cold ROI with its replays, then the warm, starved, plane
    /// and two-worker variants of the same query.
    fn query_phase(&mut self) {
        let q = self.iter % self.inputs.queries.len();
        let (field, roi) = self.inputs.queries[q];
        let file = self.ops.rig.files[0].clone();
        let expected = self.ops.expected.roi[0][q];
        let digest =
            |v: &RegionView| crate::oracle::digest_slices(&crate::oracle::slices_of_view(v));

        let root = self.tracer.begin_op("roi_cold");
        let (cold, e2e_s) = self.tracer.child("e2e", root, || {
            QueryEngine::open(&file)
                .and_then(|e| e.roi(field, roi, LevelSelect::All).map(|v| (e, v)))
        });
        let Some((engine, view)) = self.ops.tally.op(cold, "traced cold roi") else {
            self.tracer.end(root);
            return;
        };
        self.ops.tally.check(digest(&view) == expected, || {
            format!("traced cold roi {q} differs")
        });
        let answer_bytes: usize = view.levels.iter().map(|l| l.data.dims().len() * 8).sum();
        let stats = engine.stats();
        let replayed = (|| -> Result<f64, QueryError> {
            let (fresh, t_open) = self
                .tracer
                .child("amr_query.open", root, || QueryEngine::open(&file));
            let fresh = fresh?;
            let (cost, t_plan) = self.tracer.child("amr_query.plan", root, || {
                fresh.roi_cost(field, roi, LevelSelect::All)
            });
            let cost = cost?;
            let chunks = Self::chunks_of(&fresh, &roi);
            let reader = H5Reader::open(&file)?;
            let (raw, t_read) = self.tracer.child("h5lite.read_chunk_raw", root, || {
                chunks
                    .iter()
                    .map(|&(l, rank)| {
                        let mut buf = Vec::new();
                        reader
                            .read_chunk_raw_into(&field_dataset(l, field), rank, &mut buf)
                            .map(|()| buf)
                    })
                    .collect::<Result<Vec<_>, _>>()
            });
            let raw = raw?;
            let (units, t_decode) = self.tracer.child("amric.pipeline.decompress", root, || {
                raw.iter()
                    .map(|b| decompress_field_units(b))
                    .collect::<Result<Vec<_>, _>>()
            });
            units?;
            // The cold engine's cache now holds the chunks: asking again
            // is the assemble step alone.
            let (again, t_assemble) = self.tracer.child("amr_query.assemble", root, || {
                engine.roi(field, roi, LevelSelect::All)
            });
            again?;
            // The engine's own counters must agree with the plan.
            let read_bytes: usize = raw.iter().map(Vec::len).sum();
            let agree = stats.chunks_decoded as usize == cost.chunks
                && cost.chunks == chunks.len()
                && stats.decoded_bytes == cost.decode_bytes
                && stats.read_bytes as usize == read_bytes;
            self.ops.tally.check(agree, || {
                format!(
                    "roi {q}: engine stats {stats:?} disagree with plan {cost:?} / {read_bytes} B"
                )
            });
            self.m.push("amr_query.open_ms", t_open * 1e3);
            self.m.push("roi_cold.one_worker_s", e2e_s);
            Ok(t_open + t_plan + t_read + t_decode + t_assemble)
        })();
        self.tracer.end(root);
        if let Some(explained) = self.ops.tally.op(replayed, "cold roi replay") {
            self.m
                .push("amr_query.cold_residual_frac", 1.0 - explained / e2e_s);
        }

        // Planning alone is microseconds: time a hundred.
        let warm_engine = &self.ops.rig.engine;
        let t0 = Instant::now();
        for _ in 0..100 {
            std::hint::black_box(warm_engine.roi_cost(field, roi, LevelSelect::All).ok());
        }
        self.m
            .push("amr_query.plan_us", t0.elapsed().as_secs_f64() * 1e4);

        let t0 = Instant::now();
        let warm = warm_engine.roi(field, roi, LevelSelect::All);
        let warm_s = t0.elapsed().as_secs_f64();
        if let Some(v) = self.ops.tally.op(warm, "traced warm roi") {
            self.ops.tally.check(digest(&v) == expected, || {
                format!("traced warm roi {q} differs")
            });
            self.m
                .push("amr_query.assemble_mb_s", mb(answer_bytes) / warm_s);
        }

        let before = self.starved.cache_stats().evictions;
        let t0 = Instant::now();
        let starved = self.starved.roi(field, roi, LevelSelect::All);
        self.m
            .push("amr_query.roi_starved_ms", t0.elapsed().as_secs_f64() * 1e3);
        if let Some(v) = self.ops.tally.op(starved, "starved roi") {
            self.ops.tally.check(digest(&v) == expected, || {
                format!("starved roi {q} differs")
            });
        }
        self.m.push(
            "amr_query.evictions_per_roi",
            (self.starved.cache_stats().evictions - before) as f64,
        );

        let mid = self.inputs.domain.size().get(2) / 2;
        let t0 = Instant::now();
        let plane = self.ops.rig.engine.plane_slice(field, 0, 2, mid);
        self.m
            .push("amr_query.plane_ms", t0.elapsed().as_secs_f64() * 1e3);
        self.ops.tally.op(plane, "plane slice");

        let t0 = Instant::now();
        let two = QueryEngine::open(&file)
            .map(|e| e.with_workers(2))
            .and_then(|e| e.roi(field, roi, LevelSelect::All));
        self.m
            .push("roi_cold.two_workers_s", t0.elapsed().as_secs_f64());
        if let Some(v) = self.ops.tally.op(two, "two-worker cold roi") {
            self.ops.tally.check(digest(&v) == expected, || {
                format!("two-worker cold roi {q} differs")
            });
        }
    }

    /// Traced served scan with its replays, point round trips, and scans
    /// from one and from two connections at once.
    fn serve_phase(&mut self) {
        let q = self.iter % self.inputs.queries.len();
        let (field, roi) = self.inputs.queries[q];
        let (lo, hi) = (roi.lo.0, roi.hi.0);
        let expected = self.ops.expected.roi[0][q];

        let root = self.tracer.begin_op("serve_scan");
        let warm = &mut self.ops.rig.warm;
        let (client, handle) = (&mut warm.clients[0], warm.handles[0][0]);
        let (served, e2e_s) = self.tracer.child("e2e", root, || {
            client.roi(handle, field as u32, lo, hi, WireSelect::All)
        });
        if let Some(view) = self.ops.tally.op(served, "traced served scan") {
            let got = crate::oracle::digest_slices(&crate::oracle::slices_of_served(&view));
            self.ops.tally.check(got == expected, || {
                format!("traced served scan query {q} differs")
            });
        }
        let engine = &self.ops.rig.engine;
        let (local, t_roi) = self.tracer.child("amr_query.roi", root, || {
            engine.roi(field, roi, LevelSelect::All)
        });
        if let Some(view) = self.ops.tally.op(local, "in-process scan") {
            let response = Response::View {
                field: view.field as u32,
                field_name: view.field_name.clone(),
                levels: view
                    .levels
                    .iter()
                    .map(|lr| WireRegion {
                        level: lr.level as u32,
                        lo: lr.region.lo.0,
                        hi: lr.region.hi.0,
                        data: lr.data.data().to_vec(),
                    })
                    .collect(),
            };
            let (payload, t_encode) = self
                .tracer
                .child("amr_serve.encode", root, || response.encode());
            let (framed, t_frame) = self.tracer.child("amr_serve.frame", root, || {
                let mut wire = Vec::with_capacity(payload.len() + 4);
                write_frame(&mut wire, &payload)
                    .and_then(|()| read_frame(&mut &wire[..], DEFAULT_MAX_RESPONSE_FRAME))
            });
            let (decoded, t_decode) = self
                .tracer
                .child("amr_serve.decode", root, || Response::decode(&payload));
            let framed_ok =
                self.ops.tally.op(framed, "frame through memory") == Some(payload.clone());
            let decoded_ok = self.ops.tally.op(decoded, "decode response") == Some(response);
            self.ops.tally.check(framed_ok && decoded_ok, || {
                "protocol roundtrip through memory differs".into()
            });
            let size = mb(payload.len());
            self.m.push("amr_serve.encode_mb_s", size / t_encode);
            self.m.push("amr_serve.frame_mb_s", size / t_frame);
            self.m.push("amr_serve.decode_mb_s", size / t_decode);
            self.m
                .push("amr_serve.socket_overhead_ms", (e2e_s - t_roi) * 1e3);
            self.m.push("serve_scan.e2e_s", e2e_s);
            self.m.push("serve_scan.roi_s", t_roi);
            self.m.push("serve_scan.encode_s", t_encode);
            self.m.push("serve_scan.frame_s", t_frame);
            self.m.push("serve_scan.decode_s", t_decode);
        }
        self.tracer.end(root);

        // 200 closed-loop point round trips on each of the two warm
        // connections.
        let warm = &mut self.ops.rig.warm;
        let points = &self.inputs.points;
        let rtts: Vec<Vec<Result<f64, String>>> = std::thread::scope(|s| {
            let threads: Vec<_> = warm
                .clients
                .iter_mut()
                .zip(&warm.handles)
                .map(|(client, handles)| {
                    s.spawn(move || {
                        points
                            .iter()
                            .take(200)
                            .map(|p| {
                                let t0 = Instant::now();
                                client
                                    .point(handles[0], field as u32, p.0)
                                    .map(|_| t0.elapsed().as_secs_f64() * 1e6)
                                    .map_err(|e| e.to_string())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("point client panicked"))
                .collect()
        });
        for rtt in rtts.into_iter().flatten() {
            if let Some(us) = self.ops.tally.op(rtt, "served point") {
                self.m.push("amr_serve.point_rtt_us", us);
            }
        }

        for (name, cold, nclients) in [
            ("scan_cold.one_client_s", true, 1),
            ("scan_cold.two_clients_s", true, 2),
            ("amr_serve.scan_two_clients_ms", false, 2),
        ] {
            let scale = if cold { 1.0 } else { 1e3 };
            for secs in self
                .ops
                .scans(cold, nclients, Instant::now(), (self.iter, 1))
            {
                self.m.push(name, secs * scale);
            }
        }
    }

    /// Thread-rank machinery alone: spawn and join of two rank threads,
    /// and the collective triple the writer issues per field.
    fn rankpar_phase(&mut self) {
        for _ in 0..20 {
            let t0 = Instant::now();
            run_ranks(NRANKS, |_| ());
            self.m.push(
                "rankpar.run_ranks_spawn_us",
                t0.elapsed().as_secs_f64() * 1e6,
            );
        }
        const TRIPLES: u32 = 200;
        let per_rank = run_ranks(NRANKS, |comm| {
            let t0 = Instant::now();
            for i in 0..TRIPLES {
                std::hint::black_box(comm.allgather((f64::from(i), 1.0)));
                std::hint::black_box(comm.allreduce_max(u64::from(i)));
                comm.barrier();
            }
            t0.elapsed().as_secs_f64()
        });
        self.m.push(
            "rankpar.collective_us",
            per_rank[0] * 1e6 / f64::from(TRIPLES),
        );
    }
}

/// Exact served-scan counts: server counters before and after every ROI
/// query once on file 0. A stats reply counts itself into
/// `response_bytes` after the snapshot it carries was taken, so two
/// back-to-back readings give its size, which is taken out.
fn scan_counts(ops: &mut Ops<'_>, counts: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let idle = ops.rig.warm.stats()?;
    let before = ops.rig.warm.stats()?;
    let stats_reply = before.response_bytes - idle.response_bytes;
    for (field, roi) in &ops.inputs.queries {
        let handle = ops.rig.warm.handles[0][0];
        let r =
            ops.rig.warm.clients[0].roi(handle, *field as u32, roi.lo.0, roi.hi.0, WireSelect::All);
        ops.tally.op(r, "counted scan");
    }
    let after = ops.rig.warm.stats()?;
    let n = ops.inputs.queries.len() as f64;
    counts.insert(
        "amr_serve.scan_slabs_per_scan",
        (after.scan_slabs - before.scan_slabs) as f64 / n,
    );
    counts.insert(
        "amr_serve.response_bytes_per_scan",
        (after.response_bytes - before.response_bytes - stats_reply) as f64 / n,
    );
    Ok(())
}

/// Median seconds of every direct child name of the ops rooted at
/// `root_name`, the slowest `rankN` group standing for all of them.
fn waterfall(tracer: &Tracer, root_name: &str, residual: f64) -> String {
    let spans = tracer.spans();
    let selfs = self_times_ns(spans);
    let mut per_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut e2e = Vec::new();
    let mut harness = Vec::new();
    for root in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root_name)
    {
        harness.push(selfs[root.id as usize] as f64 * 1e-9);
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        let kids = |p: u32| spans.iter().filter(move |s| s.parent == Some(p));
        let mut slowest: (f64, BTreeMap<&str, f64>) = (0.0, BTreeMap::new());
        for child in kids(root.id) {
            if child.name == "e2e" {
                e2e.push(child.seconds());
            } else if child.name.starts_with("rank") {
                let mut group = BTreeMap::new();
                for g in kids(child.id) {
                    *group.entry(g.name).or_insert(0.0) += g.seconds();
                }
                let total: f64 = group.values().sum();
                if total >= slowest.0 {
                    slowest = (total, group);
                }
            } else {
                *sums.entry(child.name).or_insert(0.0) += child.seconds();
            }
        }
        for (name, secs) in slowest.1 {
            *sums.entry(name).or_insert(0.0) += secs;
        }
        for (name, secs) in sums {
            per_name.entry(name).or_default().push(secs);
        }
    }
    if e2e.is_empty() {
        return String::new();
    }
    let total = median(&e2e);
    let mut out = format!(
        "-- {root_name} waterfall: {} ops, e2e median {} ms --\n",
        e2e.len(),
        sig(total * 1e3)
    );
    let mut rows: Vec<(&str, f64)> = per_name.iter().map(|(n, v)| (*n, median(v))).collect();
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, secs) in rows {
        out.push_str(&format!(
            "  {:<34} {:>10} ms  {:>5.1} %\n",
            name,
            sig(secs * 1e3),
            100.0 * secs / total
        ));
    }
    out.push_str(&format!(
        "  {:<34} {:>10}     {:>5.1} %  (not explained by the replays)\n",
        "residual",
        "",
        100.0 * residual
    ));
    out.push_str(&format!(
        "  {:<34} {:>10} ms          (root self time: the harness between replays)\n",
        "harness",
        sig(median(&harness) * 1e3)
    ));
    out
}

/// The traced pass: one-off counts and baseline, then `ROUNDS` rounds of
/// the layer phases for `seconds` in total.
pub fn measure(ops: &mut Ops<'_>, dir: &Path, seconds: f64) -> Traced {
    let inputs = ops.inputs;
    let cfg = inputs.spec.amric_config();
    let h0 = &inputs.snapshots[0];
    let mut counts = BTreeMap::new();

    if let Err(e) = scan_counts(ops, &mut counts) {
        ops.tally.check(false, || e);
    }
    // A second connection to each server, for the two-client readings.
    let files = ops.rig.files.clone();
    for served in [&mut ops.rig.warm, &mut ops.rig.cold] {
        let second = served.connect(&files);
        ops.tally.op(second, "second connection");
    }

    // The AMReX filter at the bound the paper pairs with ours.
    let replay_path = dir.join("replay.h5l");
    let t0 = Instant::now();
    let baseline = write_amrex_baseline(
        &replay_path,
        h0,
        &amric::BaselineConfig::new(inputs.spec.amrex_rel_eb),
    );
    let baseline_s = t0.elapsed().as_secs_f64();
    let baseline = ops.tally.op(baseline, "AMReX-baseline dump");

    // A quarter of the decoded working set of the ROI queries.
    let working_set: u64 = ops
        .rig
        .engine
        .meta()
        .unit_plans()
        .iter()
        .flatten()
        .flatten()
        .map(|u| u.region.num_cells() * 8)
        .sum::<u64>()
        * h0.field_names().len() as u64;
    let starved = QueryEngine::open(&files[0])
        .map(|e| e.with_cache_bytes(working_set / 4))
        .expect("fixture opened before");
    let warm_cache_before = ops.rig.engine.cache_stats();

    let mut pass = Pass {
        inputs,
        cfg,
        plan: write_plan(h0, &cfg),
        two_ranks: inputs::redistributed(h0, 2),
        replay_path,
        starved,
        m: Measured::default(),
        tracer: Tracer::default(),
        counts,
        iter: 0,
        ops,
    };
    let round_len = seconds / ROUNDS as f64;
    let start = Instant::now();
    let (cpu_util, steal_frac) = with_cpu_accounting(|| {
        for round in 0..ROUNDS {
            pass.m.begin_round();
            let round_start = start + Duration::from_secs_f64(round as f64 * round_len);
            let mut share_done = 0.0;
            for (phase, share) in PHASES {
                share_done += share;
                let deadline = round_start + Duration::from_secs_f64(share_done * round_len);
                cycles(deadline, 1, |_| {
                    match phase {
                        "dump" => pass.dump_phase(),
                        "restart" => pass.restart_phase(),
                        "codec" => pass.codec_phase(),
                        "query" => pass.query_phase(),
                        "serve" => pass.serve_phase(),
                        "rankpar" => pass.rankpar_phase(),
                        other => unreachable!("unknown phase {other}"),
                    }
                    pass.iter += 1;
                });
            }
        }
    });
    let Pass {
        ops,
        plan,
        tracer,
        counts,
        mut m,
        ..
    } = pass;
    m.cpu_util = cpu_util;
    m.steal_frac = steal_frac;

    // Values: sampled series first, then ratios of medians and counts.
    let mut values: BTreeMap<&'static str, Summary> = BTreeMap::new();
    for layer in crate::metrics::PER_LAYER {
        if m.series.contains_key(layer.name) {
            values.insert(layer.name, m.summary(layer.name));
        } else if let Some(c) = counts.get(layer.name) {
            values.insert(layer.name, Summary::exact(*c));
        }
    }
    let med = |name: &str| m.summary(name).value;
    let traced_s = med("amric.writer.total_ms") / 1e3;
    values.insert(
        "h5lite.mem_vs_file",
        Summary::exact(med("dump.mem_s") / traced_s),
    );
    values.insert(
        "rankpar.rank_scaling",
        Summary::exact(traced_s / med("dump.two_ranks_s")),
    );
    values.insert(
        "rankpar.pool_scaling",
        Summary::exact(traced_s / med("dump.two_workers_s")),
    );
    values.insert(
        "amr_query.prefetch_scaling",
        Summary::exact(med("roi_cold.one_worker_s") / med("roi_cold.two_workers_s")),
    );
    let (one, two) = (
        med("scan_cold.one_client_s"),
        med("scan_cold.two_clients_s"),
    );
    values.insert(
        "amr_serve.gate_wait_frac",
        Summary::exact((two - one) / two),
    );
    values.insert(
        "harness.trace_overhead_frac",
        Summary::exact((traced_s - med("dump.plain_s")) / med("dump.plain_s")),
    );
    values.insert(
        "amric.preprocess.redundant_frac",
        Summary::exact(plan.redundant_frac),
    );
    // Round trips: the median like any timing, p99 over the pooled sample.
    if let Some(series) = m.series.get("amr_serve.point_rtt_us") {
        let s = series.summary();
        let p99 = percentile_sorted(&series.pooled_sorted(), 99.0);
        values.insert(
            "amr_serve.point_rtt_p99_us",
            Summary {
                value: p99,
                ..s.clone()
            },
        );
        values.insert("amr_serve.point_rtt_p50_us", s);
    }
    let warm_cache = ops.rig.engine.cache_stats();
    let (hits, misses) = (
        warm_cache.hits - warm_cache_before.hits,
        warm_cache.misses - warm_cache_before.misses,
    );
    values.insert(
        "amr_query.cache_hit_rate",
        Summary::exact(hits as f64 / (hits + misses).max(1) as f64),
    );
    ops.tally.check(misses == 0, || {
        format!("warm engine missed its cache {misses} times")
    });
    // Planned once over every distinct query: exact on a seed.
    let (mut chunks, mut decode_bytes, mut read_bytes, mut answer_bytes) =
        (0usize, 0u64, 0u64, 0u64);
    if let Ok(reader) = H5Reader::open(&files[0]) {
        for (field, roi) in &inputs.queries {
            if let Ok(cost) = ops.rig.engine.roi_cost(*field, *roi, LevelSelect::All) {
                chunks += cost.chunks;
                decode_bytes += cost.decode_bytes;
            }
            for (l, rank) in Pass::chunks_of(&ops.rig.engine, roi) {
                if let Ok(meta) = reader.meta(&field_dataset(l, *field)) {
                    read_bytes += meta.chunks.get(rank).map_or(0, |c| c.stored_bytes);
                }
            }
            answer_bytes += (0..h0.num_levels())
                .filter_map(|l| roi.refined(1 << l).intersection(&h0.level(l).domain))
                .map(|r| r.num_cells() * 8)
                .sum::<u64>();
        }
    }
    let nq = inputs.queries.len() as f64;
    values.insert(
        "amr_query.chunks_per_roi",
        Summary::exact(chunks as f64 / nq),
    );
    values.insert(
        "amr_query.read_bytes_per_roi",
        Summary::exact(read_bytes as f64 / nq),
    );
    values.insert(
        "amr_query.useful_frac",
        Summary::exact(answer_bytes as f64 / decode_bytes.max(1) as f64),
    );
    let errors = [&mut ops.rig.warm, &mut ops.rig.cold]
        .into_iter()
        .map(|s| s.stats().map_or(f64::NAN, |r| r.errors as f64))
        .sum::<f64>();
    values.insert("amr_serve.errors", Summary::exact(errors));
    ops.tally.check(errors == 0.0, || {
        format!("servers answered {errors} requests with an error frame")
    });
    if let (Some(b), Some(cr)) = (baseline, counts.get("amric.cr")) {
        let calls = |r: &WriteReport| r.ledgers.iter().map(|l| l.filter_calls).sum::<u64>() as f64;
        values.insert(
            "amric.baseline.cr_gain",
            Summary::exact(cr / b.compression_ratio()),
        );
        values.insert(
            "amric.baseline.filter_call_ratio",
            Summary::exact(
                calls(&b)
                    / counts
                        .get("h5lite.filter_calls")
                        .copied()
                        .unwrap_or(f64::NAN),
            ),
        );
        values.insert(
            "amric.baseline.write_speedup",
            Summary::exact(baseline_s / traced_s),
        );
    }

    let residual = |name: &str| values.get(name).map_or(f64::NAN, |s| s.value);
    let serve_residual = 1.0
        - ["roi_s", "encode_s", "frame_s", "decode_s"]
            .iter()
            .map(|p| med(&format!("serve_scan.{p}")))
            .sum::<f64>()
            / med("serve_scan.e2e_s");
    let sections = vec![
        waterfall(&tracer, "dump", residual("amric.writer.residual_frac")),
        waterfall(&tracer, "restart", residual("amric.reader.residual_frac")),
        waterfall(
            &tracer,
            "roi_cold",
            residual("amr_query.cold_residual_frac"),
        ),
        waterfall(&tracer, "serve_scan", serve_residual),
    ];
    Traced {
        measured: m,
        values,
        tracer,
        sections,
    }
}
