//! Property-based tests (proptest) over the core invariants:
//! * every compressor respects its error bound on arbitrary data;
//! * lossless stages roundtrip arbitrary bytes;
//! * geometry operations preserve cell counts and disjointness;
//! * the write pool consumes every job once, in submission order, under
//!   adversarial completion schedules.

use amr_mesh::prelude::*;
use proptest::prelude::*;
use rankpar::pool::for_each_ordered;
use sz_codec::prelude::*;

/// Deterministic Fisher–Yates permutation of `0..n` from a seed (the
/// vendored proptest shim has no `prop_shuffle`, and an explicit LCG
/// keeps the schedule reproducible from the failing case's inputs).
fn seeded_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

fn buffer_strategy(max_edge: usize) -> impl Strategy<Value = Buffer3> {
    (1..=max_edge, 1..=max_edge, 1..=max_edge).prop_flat_map(|(nx, ny, nz)| {
        let n = nx * ny * nz;
        proptest::collection::vec(-1.0e6f64..1.0e6, n..=n)
            .prop_map(move |data| Buffer3::from_vec(Dims3::new(nx, ny, nz), data))
    })
}

/// Degenerate shapes and value regimes the randomized [`buffer_strategy`]
/// rarely produces: constant fields, single-cell boxes, 1-D pencils and
/// 2-D slabs, and NaN-free extreme magnitudes (±1e150 with tiny spread).
fn degenerate_buffer_strategy() -> impl Strategy<Value = Buffer3> {
    let constant =
        (1usize..=7, 1usize..=7, 1usize..=7, -1.0e15f64..1.0e15).prop_map(|(nx, ny, nz, v)| {
            Buffer3::from_vec(Dims3::new(nx, ny, nz), vec![v; nx * ny * nz])
        });
    let single_cell =
        (-1.0e150f64..1.0e150).prop_map(|v| Buffer3::from_vec(Dims3::new(1, 1, 1), vec![v]));
    let pencil = (0u8..3, 2usize..=32, -1.0e6f64..1.0e6).prop_flat_map(|(axis, n, base)| {
        proptest::collection::vec(-1.0f64..1.0, n..=n).prop_map(move |noise| {
            let dims = match axis {
                0 => Dims3::new(n, 1, 1),
                1 => Dims3::new(1, n, 1),
                _ => Dims3::new(1, 1, n),
            };
            Buffer3::from_vec(dims, noise.iter().map(|d| base + d).collect())
        })
    });
    let slab = (2usize..=8, 2usize..=8).prop_flat_map(|(nx, ny)| {
        let n = nx * ny;
        proptest::collection::vec(-1.0e3f64..1.0e3, n..=n)
            .prop_map(move |data| Buffer3::from_vec(Dims3::new(nx, ny, 1), data))
    });
    let extreme = (
        1usize..=5,
        1usize..=5,
        1usize..=5,
        prop_oneof![Just(1.0e150f64), Just(-1.0e150)],
    )
        .prop_flat_map(|(nx, ny, nz, scale)| {
            let n = nx * ny * nz;
            proptest::collection::vec(0.999f64..1.001, n..=n).prop_map(move |v| {
                Buffer3::from_vec(
                    Dims3::new(nx, ny, nz),
                    v.iter().map(|x| x * scale).collect(),
                )
            })
        });
    prop_oneof![constant, single_cell, pencil, slab, extreme]
}

/// SZ_Interp decoded point by point, straight from the format: targets
/// enumerated by coordinate, one bounds-checked read per neighbour, one
/// branch per symbol. Shares nothing with the shipping row decoder but
/// the wire primitives, so it is the oracle for it.
fn interp_decode_oracle(stream: &[u8]) -> Buffer3 {
    use sz_codec::quantizer::{Quantizer, OUTLIER_SYMBOL};
    let env = sz_codec::codec::read_envelope(stream).unwrap();
    let payload = sz_codec::lossless::decompress(&stream[env.payload_offset..]).unwrap();
    let mut r = sz_codec::wire::Reader::new(&payload);
    let q = Quantizer::new(r.get_f64().unwrap());
    let n = [(); 3].map(|_| r.get_u32().unwrap() as usize);
    let mut syms = sz_codec::huffman::decode_with_table(r.get_block().unwrap())
        .unwrap()
        .into_iter();
    let n_raw = r.get_u64().unwrap();
    let mut raw = (0..n_raw).map(|_| r.get_f64().unwrap());
    let mut out = Buffer3::zeros(Dims3::new(n[0], n[1], n[2]));
    let mut place = |out: &mut Buffer3, c: [usize; 3], pred: f64| {
        let sym = syms.next().unwrap();
        let v = if sym == OUTLIER_SYMBOL {
            raw.next().unwrap()
        } else {
            q.try_reconstruct(sym, pred).unwrap()
        };
        out.set(c[0], c[1], c[2], v);
    };
    place(&mut out, [0, 0, 0], 0.0);
    // Strides 2^(L-1), …, 2, 1 with 2^L ≥ the largest extent.
    let mut s = n.into_iter().max().unwrap().next_power_of_two() / 2;
    while s >= 1 {
        for axis in 0..3 {
            // Odd multiples of s along the pass axis; multiples of s on the
            // axes this level has finished, of 2s on those still to come.
            let coords = |a: usize| -> Vec<usize> {
                let (first, step) = match a.cmp(&axis) {
                    std::cmp::Ordering::Equal => (s, 2 * s),
                    std::cmp::Ordering::Less => (0, s),
                    std::cmp::Ordering::Greater => (0, 2 * s),
                };
                (first..n[a]).step_by(step).collect()
            };
            for &z in &coords(2) {
                for &y in &coords(1) {
                    for &x in &coords(0) {
                        let c = [x, y, z];
                        let (pos, len) = (c[axis], n[axis]);
                        let at = |steps: isize| {
                            let mut p = c;
                            p[axis] = (pos as isize + steps * s as isize) as usize;
                            out.get(p[0], p[1], p[2])
                        };
                        let pred = if pos + s >= len {
                            at(-1)
                        } else if pos >= 3 * s && pos + 3 * s < len {
                            (-at(-3) + 9.0 * at(-1) + 9.0 * at(1) - at(3)) / 16.0
                        } else {
                            0.5 * (at(-1) + at(1))
                        };
                        place(&mut out, c, pred);
                    }
                }
            }
        }
        s /= 2;
    }
    assert!(syms.next().is_none() && raw.next().is_none());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lr_respects_bound_on_arbitrary_data(
        buf in buffer_strategy(10),
        eb_exp in -6i32..-1,
    ) {
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let stream = lr::compress(&buf, &LrConfig::new(abs_eb));
        let back = lr::decompress(&stream).unwrap();
        prop_assert_eq!(back.dims(), buf.dims());
        let stats = ErrorStats::compare(buf.data(), back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9),
            "max err {} > bound {}", stats.max_abs_err, abs_eb);
    }

    #[test]
    fn interp_respects_bound_on_arbitrary_data(
        buf in buffer_strategy(9),
        eb_exp in -6i32..-1,
    ) {
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let stream = interp::compress(&buf, &InterpConfig::new(abs_eb));
        let back = interp::decompress(&stream).unwrap();
        let stats = ErrorStats::compare(buf.data(), back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9));
    }

    #[test]
    fn interp_decode_equals_per_point_oracle(
        buf in buffer_strategy(12),
        eb_exp in -6i32..-1,
        poison in proptest::collection::vec((0usize..1728, 0u8..4), 0..6),
    ) {
        // Arbitrary data at tight bounds already overflows the quantizer
        // (outliers); the poison adds non-finite values and huge spikes.
        let dims = buf.dims();
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let mut data = buf.into_vec();
        for (at, what) in poison {
            let at = at % data.len();
            data[at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1.0e300][what as usize];
        }
        let stream = interp::compress(&Buffer3::from_vec(dims, data), &InterpConfig::new(abs_eb));
        let fast = interp::decompress(&stream).unwrap();
        let slow = interp_decode_oracle(&stream);
        prop_assert_eq!(fast.dims(), slow.dims());
        for (a, b) in fast.data().iter().zip(slow.data()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn lr_roundtrips_within_bound_with_outliers_exact(
        buf in buffer_strategy(12),
        block_size in prop_oneof![1usize..=13, Just(255usize)],
        eb_exp in -6i32..-1,
        poison in proptest::collection::vec((0usize..1728, 0u8..4), 0..24),
    ) {
        // Ragged edge blocks at every block size, regression and Lorenzo
        // blocks as the data falls, and from none to a couple of dozen
        // raw-stored cells: NaN with payload bits, ±∞, a huge spike.
        let dims = buf.dims();
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let mut data = buf.into_vec();
        let raw = [f64::from_bits(0x7ff8_0000_dead_beef), f64::INFINITY, f64::NEG_INFINITY, 1.0e300];
        for (at, what) in poison {
            let at = at % data.len();
            data[at] = raw[what as usize];
        }
        let cfg = LrConfig::new(abs_eb).with_block_size(block_size);
        let stream = lr::compress(&Buffer3::from_vec(dims, data.clone()), &cfg);
        let back = lr::decompress(&stream).unwrap();
        prop_assert_eq!(back.dims(), dims);
        for (o, r) in data.iter().zip(back.data()) {
            if o.abs() <= 1.0e6 {
                prop_assert!((o - r).abs() <= abs_eb * (1.0 + 1e-9), "{} decoded as {}", o, r);
            } else {
                prop_assert_eq!(o.to_bits(), r.to_bits());
            }
        }
    }

    #[test]
    fn sle_multi_domain_bound(
        bufs in proptest::collection::vec(buffer_strategy(6), 1..6),
        eb_exp in -5i32..-1,
    ) {
        let range = bufs.iter().map(|b| b.value_range()).fold(0.0f64, f64::max);
        let abs_eb = 10f64.powi(eb_exp) * range.max(1.0);
        let refs: Vec<&Buffer3> = bufs.iter().collect();
        let stream = lr::compress_domains(&refs, &LrConfig::new(abs_eb));
        let back = lr::decompress_domains(&stream).unwrap();
        prop_assert_eq!(back.len(), bufs.len());
        for (o, r) in bufs.iter().zip(&back) {
            let stats = ErrorStats::compare(o.data(), r.data());
            prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9));
        }
    }

    #[test]
    fn lossless_roundtrips_arbitrary_bytes(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = sz_codec::lossless::compress(&data);
        prop_assert_eq!(sz_codec::lossless::decompress(&c).unwrap(), data);
    }

    #[test]
    fn lossless_parses_structured_bytes_the_same_on_any_thread(
        ops in proptest::collection::vec((0u8..3, 1usize..400, any::<u8>(), 1usize..70_000), 1..60),
    ) {
        // Literal / run / repeat mixtures: the inputs the match finder
        // has branches for (uniform bytes almost never repeat). Repeats
        // reach back up to just past the 64 KiB window.
        let mut data: Vec<u8> = Vec::new();
        for (i, &(kind, len, byte, back)) in ops.iter().enumerate() {
            match kind {
                0 => data.extend((0..len).map(|j| byte.wrapping_add((j * j + i) as u8))),
                1 => data.extend(std::iter::repeat_n(byte, len * 4)),
                _ if data.is_empty() => data.push(byte),
                _ => {
                    let dist = 1 + back % data.len();
                    for _ in 0..len * 8 {
                        data.push(data[data.len() - dist]);
                    }
                }
            }
        }
        // This thread's match finder has parsed other inputs before; a
        // fresh thread's has not. The token-level oracle (the byte-wise
        // parser) is crate-private: `sz_codec::lossless::tests` holds it
        // to the same kind of mixtures.
        let here = sz_codec::lossless::compress(&data);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| sz_codec::lossless::compress(&data)).join().expect("no panic")
        });
        prop_assert_eq!(&here, &fresh);
        prop_assert_eq!(sz_codec::lossless::decompress(&here).unwrap(), data);
    }

    #[test]
    fn huffman_roundtrips_arbitrary_symbols(
        syms in proptest::collection::vec(0u32..70000, 0..2048),
    ) {
        let enc = sz_codec::huffman::encode_with_table(&syms);
        prop_assert_eq!(sz_codec::huffman::decode_with_table(&enc).unwrap(), syms);
    }

    #[test]
    fn quantizer_contract(val in -1e12f64..1e12, pred in -1e12f64..1e12, eb_exp in -9i32..2) {
        let eb = 10f64.powi(eb_exp);
        let q = sz_codec::quantizer::Quantizer::new(eb);
        let (sym, recon) = q.quantize(val, pred);
        if sym == sz_codec::quantizer::OUTLIER_SYMBOL {
            prop_assert_eq!(recon, val);
        } else {
            prop_assert!((recon - val).abs() <= eb);
            prop_assert_eq!(q.reconstruct(sym, pred), recon);
        }
    }

    #[test]
    fn box_subtraction_partitions(
        (alo, ahi) in (0i64..8, 8i64..16),
        (blo, bhi) in (0i64..12, 4i64..20),
    ) {
        let a = IntBox::new(IntVect::splat(alo), IntVect::splat(ahi));
        let b = IntBox::new(IntVect::splat(blo), IntVect::splat(bhi.max(blo)));
        let pieces = a.subtract(&b);
        let covered: u64 = pieces.iter().map(|p| p.num_cells()).sum();
        let overlap = a.intersection(&b).map(|i| i.num_cells()).unwrap_or(0);
        prop_assert_eq!(covered + overlap, a.num_cells());
        for (i, p) in pieces.iter().enumerate() {
            prop_assert!(!p.intersects(&b));
            for q in &pieces[i + 1..] {
                prop_assert!(!p.intersects(q));
            }
        }
    }

    #[test]
    fn tiles_partition_any_box(
        (nx, ny, nz) in (1i64..40, 1i64..40, 1i64..40),
        tile in 1i64..12,
    ) {
        let b = IntBox::from_extents(nx, ny, nz);
        let tiles = b.tiles(tile);
        let total: u64 = tiles.iter().map(|t| t.num_cells()).sum();
        prop_assert_eq!(total, b.num_cells());
    }

    #[test]
    fn wire_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..64)) {
        let mut w = sz_codec::wire::Writer::new();
        for &v in &vals {
            w.put_u64(v);
        }
        let bytes = w.into_bytes();
        let mut r = sz_codec::wire::Reader::new(&bytes);
        for &v in &vals {
            prop_assert_eq!(r.get_u64().unwrap(), v);
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn lr_bound_on_degenerate_inputs(
        buf in degenerate_buffer_strategy(),
        eb_exp in -6i32..-1,
    ) {
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let stream = lr::compress(&buf, &LrConfig::new(abs_eb));
        let back = lr::decompress(&stream).unwrap();
        prop_assert_eq!(back.dims(), buf.dims());
        let stats = ErrorStats::compare(buf.data(), back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9),
            "max err {} > bound {} on dims {:?}", stats.max_abs_err, abs_eb, buf.dims());
    }

    #[test]
    fn interp_bound_on_degenerate_inputs(
        buf in degenerate_buffer_strategy(),
        eb_exp in -6i32..-1,
    ) {
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let stream = interp::compress(&buf, &InterpConfig::new(abs_eb));
        let back = interp::decompress(&stream).unwrap();
        prop_assert_eq!(back.dims(), buf.dims());
        let stats = ErrorStats::compare(buf.data(), back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9),
            "max err {} > bound {} on dims {:?}", stats.max_abs_err, abs_eb, buf.dims());
    }

    #[test]
    fn constant_fields_compress_losslessly_enough(
        value in -1.0e12f64..1.0e12,
        edge in 1usize..9,
        eb_exp in -6i32..-1,
    ) {
        // A constant field has zero range; the bound still must hold with
        // the range-floor convention the other tests use.
        let buf = Buffer3::from_vec(Dims3::cube(edge), vec![value; edge * edge * edge]);
        let abs_eb = 10f64.powi(eb_exp) * buf.value_range().max(1.0);
        let back = lr::decompress(&lr::compress(&buf, &LrConfig::new(abs_eb))).unwrap();
        let stats = ErrorStats::compare(buf.data(), back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9));
    }

    #[test]
    fn lr_1d_respects_bound(
        data in proptest::collection::vec(-1.0e9f64..1.0e9, 1..600),
        eb_exp in -6i32..-1,
    ) {
        let range = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - data.iter().cloned().fold(f64::INFINITY, f64::min);
        let abs_eb = 10f64.powi(eb_exp) * range.max(1.0);
        let back = lr::decompress(&lr::compress_1d(&data, abs_eb)).unwrap();
        let stats = ErrorStats::compare(&data, back.data());
        prop_assert!(stats.max_abs_err <= abs_eb * (1.0 + 1e-9));
    }

    #[test]
    fn pool_preserves_order_under_forced_completion_schedule(
        n in 0usize..40,
        seed in any::<u64>(),
    ) {
        // A turn gate inside the job makes the jobs finish in exactly the
        // seeded permutation's order — an adversarial completion schedule
        // with no sleeps and no timing dependence. With `workers = n`
        // every job can be in flight at once, so the gate never waits on
        // a job no helper has taken. The consumer must still receive
        // 0, 1, 2, …
        let perm = seeded_permutation(n, seed);
        let mut pos = vec![0usize; n];
        for (p, &i) in perm.iter().enumerate() {
            pos[i] = p;
        }
        let gate = (std::sync::Mutex::new(0usize), std::sync::Condvar::new());
        let mut consumed = Vec::with_capacity(n);
        let res: Result<(), ()> = for_each_ordered(
            &pos,
            n,
            || (),
            |_s, i, &my_turn| {
                let (lock, cv) = &gate;
                let mut turn = lock.lock().unwrap();
                while *turn != my_turn {
                    turn = cv.wait(turn).unwrap();
                }
                *turn += 1;
                cv.notify_all();
                Ok(i)
            },
            |k, i| {
                consumed.push((k, i));
                Ok(())
            },
        );
        prop_assert!(res.is_ok());
        prop_assert_eq!(consumed, (0..n).map(|i| (i, i)).collect::<Vec<_>>());
    }

    #[test]
    fn reassembly_preserves_order_under_racing_workers(
        n in 0usize..64,
        workers in 1usize..5,
        lag in 0u64..5,
    ) {
        // Free-running helpers (OS scheduling is the randomness) racing
        // ahead of a consumer that does its own work between frames, so
        // later frames land while earlier ones are still being held for
        // their turn; order must still hold.
        let items: Vec<usize> = (0..n).collect();
        let mut taken = Vec::with_capacity(n);
        let res: Result<(), ()> = for_each_ordered(
            &items,
            workers,
            || (),
            |_s, _i, &v| Ok(v),
            |_k, v| {
                let mut acc = 0u64;
                for s in 0..lag * 200 {
                    acc = acc.wrapping_add(s ^ v as u64);
                }
                std::hint::black_box(acc);
                taken.push(v);
                Ok(())
            },
        );
        prop_assert!(res.is_ok());
        prop_assert_eq!(taken, items);
    }

    #[test]
    fn pool_consumes_every_job_once_in_submission_order(
        n in 0usize..64,
        workers in 1usize..6,
        seed in any::<u64>(),
    ) {
        // Free-running helpers over per-item payloads derived from the
        // seed, each job burning "work" of pseudo-random length (schedule
        // jitter without sleeps): the consumed sequence must be the
        // submission sequence exactly once each.
        let items: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let mut consumed = Vec::with_capacity(n);
        let res: Result<(), ()> = for_each_ordered(
            &items,
            workers,
            || (),
            |_s, i, v| {
                // Unequal busy-work per job skews completion order.
                let spins = (seed.wrapping_add(i as u64) % 97) * 50;
                let mut acc = 0u64;
                for s in 0..spins {
                    acc = acc.wrapping_add(s ^ seed);
                }
                std::hint::black_box(acc);
                Ok((i, *v))
            },
            |_i, pair| {
                consumed.push(pair);
                Ok(())
            },
        );
        prop_assert!(res.is_ok());
        let expect: Vec<(usize, u64)> = items.iter().copied().enumerate().collect();
        prop_assert_eq!(consumed, expect);
    }

    #[test]
    fn cluster_grid_covers(n in 1usize..500) {
        let g = amric::reorganize::cluster_grid(n);
        // Every n has a slack-free grid, (n, 1, 1) at worst.
        prop_assert_eq!(g.len(), n, "n={} grid=({},{},{})", n, g.nx, g.ny, g.nz);
    }
}
