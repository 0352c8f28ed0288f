//! The benchmark run for real at 16³ scale: both passes of every
//! workload, repeatability on a seed, sensitivity to the seed, and a
//! corrupted answer showing up in the failure count.

use amr_query::LevelSelect;
use amric_benchmark::inputs::{self, WORKLOADS};
use amric_benchmark::json::{self, Value};
use amric_benchmark::lifecycle::{self, Ops};
use amric_benchmark::metrics::{END_TO_END, PER_LAYER};
use amric_benchmark::oracle::{self, Tally};
use amric_benchmark::report::RunResult;
use amric_benchmark::run::{out_dir, run, RunArgs};
use amric_benchmark::trace::Span;
use std::path::PathBuf;

/// A directory under `out/` of this package, removed on drop. Tests run
/// on parallel threads and must not share files.
struct TestDir(PathBuf);

impl TestDir {
    fn new(name: &str) -> TestDir {
        let dir = out_dir().join(format!("test-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn smoke(workload: &str, seed: u64, trace: bool, dir: &TestDir) -> RunResult {
    run(&RunArgs {
        workload: workload.into(),
        seed,
        seconds: 0.6,
        trace,
        smoke: true,
        dir: Some(dir.0.clone()),
    })
    .unwrap_or_else(|e| panic!("{workload} seed {seed} trace {trace}: {e}"))
}

fn value(r: &RunResult, name: &str) -> f64 {
    r.rows
        .iter()
        .find(|row| row.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .summary
        .value
}

#[test]
fn every_workload_passes_both_passes() {
    let dir = TestDir::new("both-passes");
    for spec in WORKLOADS {
        let e2e = smoke(spec.name, 1, false, &dir);
        assert!(e2e.correct(), "{}: {:?}", spec.name, e2e.tally.notes);
        let names: Vec<&str> = e2e.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        for row in &e2e.rows {
            assert!(
                row.summary.value > 0.0,
                "{} {} is not positive",
                spec.name,
                row.name
            );
        }
        // The driver's contract for the last line of output.
        let line = json::parse(&e2e.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
        assert!(line.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

        let traced = smoke(spec.name, 1, true, &dir);
        assert!(traced.correct(), "{}: {:?}", spec.name, traced.tally.notes);
        let names: Vec<&str> = traced.rows.iter().map(|r| r.name).collect();
        assert_eq!(names, PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        // Both waterfalls state their remainder.
        for name in ["amric.writer.residual_frac", "amric.reader.residual_frac"] {
            assert!(value(&traced, name) < 1.0, "{name}");
        }
        assert_eq!(value(&traced, "amr_query.cache_hit_rate"), 1.0);
        assert_eq!(value(&traced, "amr_serve.errors"), 0.0);
        let text = traced.table();
        assert!(text.contains("dump waterfall") && text.contains("restart waterfall"));

        // Result and trace files parse; spans nest inside their parents.
        let detail =
            std::fs::read_to_string(dir.0.join(format!("result-{}-traced.json", spec.name)));
        let detail = json::parse(&detail.unwrap()).unwrap();
        for key in [
            "cores",
            "cpu_model",
            "rustc",
            "git_sha",
            "target_cpu",
            "scratch_fs",
            "seed",
        ] {
            assert!(detail.get("host").unwrap().get(key).is_some(), "host.{key}");
        }
        assert!(detail.get("noisy").is_some() && detail.get("noise").is_some());
        let trace = std::fs::read_to_string(dir.0.join(format!("trace-{}.json", spec.name)));
        let spans = json::parse(&trace.unwrap()).unwrap();
        let spans = spans.as_arr().unwrap();
        assert!(spans.len() > 20);
        let num = |s: &Value, k: &str| s.get(k).and_then(Value::as_f64).unwrap();
        for s in spans {
            assert!(num(s, "start_ns") <= num(s, "end_ns"));
            if let Some(p) = s.get("parent").and_then(Value::as_f64) {
                let parent = &spans[p as usize];
                assert_eq!(num(parent, "op"), num(s, "op"));
                assert!(num(parent, "start_ns") <= num(s, "start_ns"));
                assert!(num(s, "end_ns") <= num(parent, "end_ns"));
            }
        }
    }
}

#[test]
fn a_seed_repeats_its_counts_and_another_seed_does_not() {
    let dir = TestDir::new("seeds");
    let spec = &WORKLOADS[0];
    let (a, b, c) = (
        smoke(spec.name, 7, false, &dir),
        smoke(spec.name, 7, false, &dir),
        smoke(spec.name, 8, false, &dir),
    );
    let cr = |r: &RunResult| value(r, "compression_ratio").to_bits();
    assert_eq!(cr(&a), cr(&b), "same seed, same stored bytes");
    assert_ne!(cr(&a), cr(&c), "another seed is other data");

    let (ta, tb) = (
        smoke(spec.name, 7, true, &dir),
        smoke(spec.name, 7, true, &dir),
    );
    for layer in PER_LAYER.iter().filter(|l| l.exact) {
        assert_eq!(
            value(&ta, layer.name).to_bits(),
            value(&tb, layer.name).to_bits(),
            "{} must repeat exactly",
            layer.name
        );
    }
}

#[test]
fn a_corrupted_answer_is_counted_as_a_failure() {
    let dir = TestDir::new("corruption");
    let inputs = inputs::generate(&WORKLOADS[0], 3, true);
    let mut tally = Tally::default();
    let (mut rig, _) = lifecycle::timed_setups(&inputs, &dir.0, &mut tally).unwrap();
    let expected = lifecycle::warm_up(&inputs, &mut rig, &mut tally).unwrap();
    assert_eq!(tally.failed, 0, "{:?}", tally.notes);

    // One flipped bit in an otherwise correct ROI answer.
    let (field, roi) = inputs.queries[0];
    let pf = amric::reader::read_amric_hierarchy(&rig.files[0]).unwrap();
    let mut view = rig.engine.roi(field, roi, LevelSelect::All).unwrap();
    assert!(oracle::view_matches_decode(
        &pf,
        &oracle::slices_of_view(&view),
        &roi,
        field
    ));
    let cell = &mut view.levels[0].data.data_mut()[7];
    *cell = f64::from_bits(cell.to_bits() ^ 1);
    let slices = oracle::slices_of_view(&view);
    assert!(!oracle::view_matches_decode(&pf, &slices, &roi, field));
    assert_ne!(oracle::digest_slices(&slices), expected.roi[0][0]);

    // A restart that decodes the wrong snapshot: the measured operation
    // succeeds, its answer is wrong, and the run says so.
    std::fs::copy(&rig.files[0], &rig.files[1]).unwrap();
    let mut ops = Ops {
        inputs: &inputs,
        rig: &mut rig,
        expected: &expected,
        dump_path: dir.0.join("dump.h5l"),
        tally: Tally::default(),
    };
    ops.restart(0);
    assert_eq!((ops.tally.attempted, ops.tally.failed), (2, 0));
    ops.restart(1);
    assert_eq!((ops.tally.attempted, ops.tally.failed), (4, 1));
    assert!(ops.tally.notes[0].contains("restart t=1"));
    rig.teardown();
}

#[test]
fn unknown_workload_is_an_error_not_a_result() {
    let dir = TestDir::new("unknown");
    let err = run(&RunArgs {
        workload: "nope".into(),
        seed: 1,
        seconds: 0.1,
        trace: false,
        smoke: true,
        dir: Some(dir.0.clone()),
    })
    .err()
    .expect("unknown workload must fail");
    assert!(err.contains("nyx_lr"), "{err}");
}

// `Span` is part of the public trace vocabulary; keep it constructible.
#[test]
fn span_seconds() {
    let s = Span {
        id: 0,
        parent: None,
        op: 0,
        name: "x",
        start_ns: 1_000,
        end_ns: 2_001_000,
    };
    assert_eq!(s.seconds(), 0.002);
}
