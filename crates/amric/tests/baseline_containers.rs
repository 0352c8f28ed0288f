//! Byte pins for the comparison writers' containers.
//!
//! `write_amrex_baseline` (1-D SZ through 1 024-value standard-mode
//! chunks) and `write_nocomp` (one raw size-aware chunk per rank) go
//! through the same collective engine as the AMRIC writer. At one rank
//! every write lands at an offset fixed by the call order, so the whole
//! file is deterministic and its digest pins the chunking, the padding,
//! the stream bytes and the directory together. At more ranks the ranks
//! race for offsets and only the per-chunk bytes are fixed.
//!
//! A moved digest means the comparison containers changed on disk: only
//! a deliberate change of the baseline's chunking or of the container
//! format may re-pin these values.

use amr_apps::prelude::*;
use amr_mesh::prelude::AmrHierarchy;
use amric::prelude::*;
use h5lite::testutil::TempDir;

/// A seeded two-level Nyx hierarchy held by one rank.
fn one_rank_nyx() -> AmrHierarchy {
    let cfg = AmrRunConfig {
        coarse_dims: (16, 16, 16),
        max_grid_size: 8,
        blocking_factor: 8,
        nranks: 1,
        num_levels: 2,
        fine_fraction: 0.05,
        grid_eff: 0.7,
    };
    build_hierarchy(&NyxScenario::new(7), &cfg, 0.0)
}

/// FNV-1a (64-bit) over the file's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Write one container with `write` and return `(length, digest)`.
fn container(name: &str, write: impl FnOnce(&std::path::Path)) -> (usize, u64) {
    let dir = TempDir::new("amric-baseline-bytes");
    let path = dir.file(name);
    write(&path);
    let bytes = std::fs::read(&path).unwrap();
    (bytes.len(), fnv1a(&bytes))
}

#[test]
fn one_rank_baseline_container_bytes_are_pinned() {
    let h = one_rank_nyx();
    let got = container("baseline.h5l", |p| {
        write_amrex_baseline(p, &h, &BaselineConfig::new(1e-2)).unwrap();
    });
    assert_eq!(
        got,
        (87_373, 0x08df_bddc_6db3_b30c),
        "baseline container (length, FNV-1a) moved"
    );
}

#[test]
fn one_rank_nocomp_container_bytes_are_pinned() {
    let h = one_rank_nyx();
    let got = container("nocomp.h5l", |p| {
        write_nocomp(p, &h).unwrap();
    });
    assert_eq!(
        got,
        (1_010_978, 0xd51f_8808_6cdd_e422),
        "no-compression container (length, FNV-1a) moved"
    );
}
