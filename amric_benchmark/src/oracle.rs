//! Correctness checks. Every operation the benchmark times is also
//! checked, outside the timed interval, and counted: an `Err`, an error
//! frame, a refusal or a wrong answer is a failed operation.
//!
//! The reference for every query answer is the full decode
//! (`read_amric_hierarchy`), itself verified against the generated
//! hierarchy at the workload's error bound. Distinct answers are compared
//! bitwise once, in the warm-up pass; their digests then check every
//! repeat during measurement without holding the answers in memory.

use amr_mesh::prelude::*;
use amric::reader::Plotfile;
use std::fmt::Display;

/// Attempted and failed operations and checks of one run.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the report.
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one check; `what` is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    /// Count one fallible operation, keeping its value.
    pub fn op<T, E: Display>(&mut self, r: Result<T, E>, what: &str) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || format!("{what}: {e}"));
                None
            }
        }
    }

    /// Fold another tally (a client thread's) into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over 64-bit words: cheap enough to run on every answer, and any
/// single flipped bit changes it.
fn mix(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

fn mix_values(h: u64, values: &[f64]) -> u64 {
    values.iter().fold(h, |h, v| mix(h, v.to_bits()))
}

/// One level's slice of a region answer, whichever API produced it.
pub struct LevelSlice<'a> {
    pub level: usize,
    pub lo: [i64; 3],
    pub hi: [i64; 3],
    pub data: &'a [f64],
}

/// Level slices of an in-process answer.
pub fn slices_of_view(view: &amr_query::RegionView) -> Vec<LevelSlice<'_>> {
    view.levels
        .iter()
        .map(|lr| LevelSlice {
            level: lr.level,
            lo: lr.region.lo.0,
            hi: lr.region.hi.0,
            data: lr.data.data(),
        })
        .collect()
}

/// Level slices of a served answer.
pub fn slices_of_served(view: &amr_serve::RoiView) -> Vec<LevelSlice<'_>> {
    view.levels
        .iter()
        .map(|r| LevelSlice {
            level: r.level as usize,
            lo: r.lo,
            hi: r.hi,
            data: &r.data,
        })
        .collect()
}

/// Digest of a region answer: levels, corners and every value bit.
pub fn digest_slices(slices: &[LevelSlice<'_>]) -> u64 {
    slices.iter().fold(FNV_OFFSET, |h, s| {
        let h = mix(h, s.level as u64);
        let h = s.lo.iter().chain(&s.hi).fold(h, |h, &c| mix(h, c as u64));
        mix_values(h, s.data)
    })
}

/// Digest of a full decode: every value of every box of every level.
pub fn digest_plotfile(pf: &Plotfile) -> u64 {
    pf.levels.iter().fold(FNV_OFFSET, |h, level| {
        level
            .iter()
            .fold(h, |h, (_, fab)| mix_values(h, fab.data()))
    })
}

/// Digest of a batch of point answers (`None` hashes as a marker).
pub fn digest_points(values: impl Iterator<Item = Option<(usize, f64)>>) -> u64 {
    values.fold(FNV_OFFSET, |h, v| match v {
        Some((level, value)) => mix(mix(h, level as u64), value.to_bits()),
        None => mix(h, u64::MAX),
    })
}

/// `region` (level coordinates) of one field sliced out of the full
/// decode, x fastest. Cells no box covers, and coarse cells the writer
/// dropped as redundant, read 0.0 — the full decode's own convention.
pub fn reference_slice(pf: &Plotfile, level: usize, region: &IntBox, field: usize) -> Vec<f64> {
    let size = region.size();
    let (nx, ny) = (size.get(0) as usize, size.get(1) as usize);
    let mut out = vec![0.0; region.num_cells() as usize];
    let mf = &pf.levels[level];
    for (bi, isect) in mf.box_array().intersections(region) {
        let src = mf.fab(bi).extract_region(&isect, field);
        let run = isect.size().get(0) as usize;
        let x0 = (isect.lo.get(0) - region.lo.get(0)) as usize;
        let mut rows = src.chunks_exact(run);
        for z in isect.lo.get(2)..=isect.hi.get(2) {
            for y in isect.lo.get(1)..=isect.hi.get(1) {
                let zi = (z - region.lo.get(2)) as usize;
                let yi = (y - region.lo.get(1)) as usize;
                let dst = (zi * ny + yi) * nx + x0;
                out[dst..dst + run].copy_from_slice(rows.next().expect("one row per (y, z)"));
            }
        }
    }
    out
}

/// Is a region answer bitwise equal to slicing the full decode? Checks
/// the level set, every corner and every value bit.
pub fn view_matches_decode(
    pf: &Plotfile,
    slices: &[LevelSlice<'_>],
    roi: &IntBox,
    field: usize,
) -> bool {
    // `LevelSelect::All`: one slice per level whose refined ROI meets
    // the level's domain, coarsest first.
    let expected: Vec<(usize, IntBox)> = (0..pf.levels.len())
        .filter_map(|l| {
            roi.refined(1 << l)
                .intersection(&pf.domains[l])
                .map(|r| (l, r))
        })
        .collect();
    slices.len() == expected.len()
        && slices.iter().zip(&expected).all(|(s, (l, region))| {
            s.level == *l
                && s.lo == region.lo.0
                && s.hi == region.hi.0
                && s.data.len() == region.num_cells() as usize
                && s.data
                    .iter()
                    .zip(reference_slice(pf, *l, region, field))
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}

/// The full decode's answer to a point probe in finest-level cells: the
/// finest level whose kept (non-redundant) units hold the cell.
pub fn reference_point(pf: &Plotfile, p: &IntVect, field: usize) -> Option<(usize, f64)> {
    let n = pf.levels.len();
    (0..n).rev().find_map(|l| {
        let cell = p.coarsened(1 << (n - 1 - l));
        pf.unit_plans[l]
            .iter()
            .flatten()
            .find(|u| u.region.contains(&cell))
            .map(|u| (l, pf.levels[l].fab(u.box_index).get(&cell, field)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_failures_and_keeps_a_few_notes() {
        let mut t = Tally::default();
        t.check(true, || unreachable!("not rendered on success"));
        for i in 0..20 {
            t.check(false, || format!("bad {i}"));
        }
        assert_eq!(t.op(Ok::<_, String>(5), "x"), Some(5));
        assert_eq!(t.op(Err::<u8, _>("boom"), "write"), None);
        assert_eq!((t.attempted, t.failed), (23, 21));
        assert_eq!(t.notes.len(), 8);
        let mut u = Tally::default();
        u.merge(t);
        assert_eq!((u.attempted, u.failed), (23, 21));
    }

    #[test]
    fn digest_sees_one_flipped_bit_and_the_geometry() {
        let data = vec![1.0, 2.0, 3.0, 4.0];
        let slice = |data: &'static [f64], hi: [i64; 3]| LevelSlice {
            level: 0,
            lo: [0, 0, 0],
            hi,
            data,
        };
        let base = digest_slices(&[LevelSlice {
            level: 0,
            lo: [0, 0, 0],
            hi: [3, 0, 0],
            data: &data,
        }]);
        let mut flipped = data.clone();
        flipped[2] = f64::from_bits(flipped[2].to_bits() ^ 1);
        let other = digest_slices(&[LevelSlice {
            level: 0,
            lo: [0, 0, 0],
            hi: [3, 0, 0],
            data: &flipped,
        }]);
        assert_ne!(base, other);
        static D: [f64; 4] = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(base, digest_slices(&[slice(&D, [3, 0, 0])]));
        assert_ne!(base, digest_slices(&[slice(&D, [1, 1, 0])]));
        assert_ne!(
            digest_points([Some((0, 1.0)), None].into_iter()),
            digest_points([Some((1, 1.0)), None].into_iter())
        );
    }
}
