//! One run of one workload: generate, set up, warm up and check, measure,
//! tear down, report.

use crate::host;
use crate::inputs::{self, Inputs};
use crate::json::Value;
use crate::layers;
use crate::lifecycle::{self, Measured, Ops};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::oracle::Tally;
use crate::report::{sig, Row, RunResult};
use crate::stats::Summary;
use std::path::{Path, PathBuf};

/// Arguments of one run (the driver's contract plus `--smoke`, `--dir`).
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// 16³-scale inputs: seconds instead of minutes, for CI and tests.
    pub smoke: bool,
    /// Where scratch, result and trace files go; by default this
    /// package's `out/`.
    pub dir: Option<PathBuf>,
}

/// Where result, trace and scratch files go: `out/` next to this
/// package's manifest — inside the checkout the binary was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory that is removed when the run ends, also on error.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Above this calibration spread the run is marked noisy.
const NOISY_CALIB_SPREAD: f64 = 0.10;

fn noise_block(inputs: &Inputs, m: &Measured, tally: &Tally) -> (Value, bool) {
    let calib = m.calib.summary();
    let spread = calib.rel_spread();
    let block = Value::obj([
        ("harness.generate_s", Value::Num(inputs.generate_s)),
        (
            "clock_factor",
            Value::Num(host::CALIB_NOMINAL_MS / m.clock_ms()),
        ),
        ("harness.calib_ms", Value::Num(calib.value)),
        ("harness.calib_spread", Value::Num(spread)),
        ("harness.cpu_util", Value::Num(m.cpu_util)),
        ("harness.steal_frac", Value::Num(m.steal_frac)),
        ("harness.ops_total", Value::Num(tally.attempted as f64)),
    ]);
    (block, spread > NOISY_CALIB_SPREAD)
}

/// Run one workload once.
pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let spec = inputs::find(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{}` (have: {})",
            args.workload,
            names.join(", ")
        )
    })?;
    let base = args.dir.clone().unwrap_or_else(out_dir);
    let dir = base.join(format!("scratch-{}-{}", spec.name, std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let scratch = Scratch(dir);

    let inputs = inputs::generate(spec, args.seed, args.smoke);
    // The end-to-end pass measures on one CPU (`host::pin_to_one_cpu`
    // says why); the traced pass floats, because what a second core buys
    // — rank, pool and prefetch scaling — is among the things it reports.
    let cores = host::cores();
    let pinned_cpu = if args.trace {
        None
    } else {
        host::pin_to_one_cpu()
    };
    let host = host::host_block(&scratch.0, args.seed, cores, pinned_cpu);
    let inputs_block = Value::obj([
        ("smoke", Value::Bool(args.smoke)),
        (
            "fields",
            Value::Num(inputs.snapshots[0].field_names().len() as f64),
        ),
        (
            "raw_bytes",
            Value::Arr(
                inputs
                    .snapshots
                    .iter()
                    .map(|h| Value::Num(h.snapshot_bytes() as f64))
                    .collect(),
            ),
        ),
        (
            "boxes_per_level",
            Value::Arr(
                inputs.snapshots[0]
                    .levels()
                    .map(|l| Value::Num(l.data.box_array().len() as f64))
                    .collect(),
            ),
        ),
    ]);
    let mut tally = Tally::default();
    let (mut rig, setup_times) = lifecycle::timed_setups(&inputs, &scratch.0, &mut tally)?;
    let expected = match lifecycle::warm_up(&inputs, &mut rig, &mut tally) {
        Ok(e) => e,
        Err(e) => {
            rig.teardown();
            return Err(e);
        }
    };
    let cr = rig.reports[0].compression_ratio();
    let mut ops = Ops {
        inputs: &inputs,
        rig: &mut rig,
        expected: &expected,
        dump_path: scratch.0.join("dump.h5l"),
        tally,
    };

    // The two passes differ in what they measure and which rows they
    // report; everything around them is shared.
    let (measured, mut rows, sections, tracer) = if args.trace {
        let traced = layers::measure(&mut ops, &scratch.0, args.seconds);
        let rows = PER_LAYER
            .iter()
            .map(|m| Row {
                name: m.name,
                unit: m.unit,
                summary: traced
                    .values
                    .get(m.name)
                    .cloned()
                    .unwrap_or_else(|| Summary::exact(f64::NAN)),
            })
            .collect::<Vec<_>>();
        (traced.measured, rows, traced.sections, Some(traced.tracer))
    } else {
        let m = lifecycle::measure(&mut ops, args.seconds);
        // Timings are reported at the nominal clock: a run during which
        // the calibration loop took 10 % longer has its times cut, and
        // its rates raised, by that much (README, "Estimator and noise").
        let clock = host::CALIB_NOMINAL_MS / m.clock_ms();
        let rows = END_TO_END
            .iter()
            .map(|e| Row {
                name: e.name,
                unit: e.unit,
                summary: match (e.name, e.better) {
                    ("setup_s", _) => lifecycle::setup_summary(&setup_times).scaled(clock),
                    ("compression_ratio", _) => Summary::exact(cr),
                    ("peak_rss_mb", _) => Summary::exact(host::peak_rss_mb()),
                    (name, Better::Lower) => m.floor(name, Better::Lower).scaled(clock),
                    (name, Better::Higher) => m.floor(name, Better::Higher).scaled(1.0 / clock),
                },
            })
            .collect::<Vec<_>>();
        let clock_line = format!(
            "clock: calibration loop {} ms (median of {}), nominal {} ms: times x {}, rates / {}\n",
            sig(m.clock_ms()),
            m.calib.pooled_sorted().len(),
            host::CALIB_NOMINAL_MS,
            sig(clock),
            sig(clock),
        );
        (m, rows, vec![clock_line], None)
    };
    let tally = std::mem::take(&mut ops.tally);
    rig.teardown();
    let (noise, noisy) = noise_block(&inputs, &measured, &tally);
    // The `harness.*` layer rows are the noise readings themselves.
    for row in rows.iter_mut().filter(|r| !r.summary.value.is_finite()) {
        if let Some(v) = noise.get(row.name).and_then(Value::as_f64) {
            row.summary = Summary::exact(v);
        }
    }
    let mut result = RunResult {
        workload: spec.name,
        traced: args.trace,
        rows,
        tally,
        noisy,
        host,
        inputs: inputs_block,
        noise,
        sections,
    };
    result.seal();
    if let Some(tracer) = tracer {
        let trace_path = base.join(format!("trace-{}.json", spec.name));
        std::fs::write(&trace_path, tracer.to_json().to_pretty())
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    }

    let detail_path = base.join(format!(
        "result-{}-{}.json",
        spec.name,
        if args.trace { "traced" } else { "e2e" }
    ));
    std::fs::write(&detail_path, result.detail().to_pretty())
        .map_err(|e| format!("write {}: {e}", detail_path.display()))?;
    Ok(result)
}
