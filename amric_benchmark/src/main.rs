//! Command line of the benchmark. See `README.md`.

use amric_benchmark::all::{run_all, AllArgs};
use amric_benchmark::compare::compare_files;
use amric_benchmark::inputs::WORKLOADS;
use amric_benchmark::json::Value;
use amric_benchmark::metrics::{END_TO_END, PER_LAYER};
use amric_benchmark::run::{run, RunArgs};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "usage:
  amric_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--dir <scratch>]
      one run of one workload; the last line of stdout is the result as JSON
  amric_benchmark all [--seed <n>] [--seconds <s>] [--smoke] [--out <file>]
      every workload, end to end then traced, each in its own process;
      writes out/result.json
  amric_benchmark compare <a.json> <b.json> [--bench <BENCHMARK.json>]
      judge result set b against a under the benchmark's bounds
  amric_benchmark schema
      print BENCHMARK.json as the metric tables define it";

/// Seconds one run measures unless told otherwise; `BENCHMARK.json`
/// passes the same number.
const RUN_SECONDS: f64 = 48.0;
const SMOKE_SECONDS: f64 = 1.5;

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, key: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == key)?;
        self.0.get(i + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.value(key)
            .map(|v| v.parse().map_err(|_| format!("bad value `{v}` for {key}")))
            .transpose()
    }

    fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }
}

fn schema() -> Value {
    Value::obj([
        (
            "command",
            Value::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "amric_benchmark/Cargo.toml",
                    "--",
                ]
                .map(Value::str)
                .to_vec(),
            ),
        ),
        ("paths", Value::Arr(vec![Value::str("amric_benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv.first().map(String::as_str).unwrap_or("");
    let flags = Flags(argv.clone());
    let smoke = flags.has("--smoke");
    let seed = flags.parsed("--seed")?.unwrap_or(1);
    let seconds: f64 =
        flags
            .parsed("--seconds")?
            .unwrap_or(if smoke { SMOKE_SECONDS } else { RUN_SECONDS });
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    match command {
        "all" => run_all(&AllArgs {
            seed,
            seconds,
            smoke,
            out: flags.value("--out").map(Into::into),
        }),
        "compare" => {
            let (Some(a), Some(b)) = (argv.get(1), argv.get(2)) else {
                return Err(USAGE.into());
            };
            let default_bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
            let bench = flags
                .value("--bench")
                .or_else(|| Path::new(default_bench).exists().then_some(default_bench));
            let (report, holds) = compare_files(a, b, bench)?;
            print!("{report}");
            Ok(holds)
        }
        "schema" => {
            print!("{}", schema().to_pretty());
            Ok(true)
        }
        _ => {
            let Some(workload) = flags.value("--workload") else {
                return Err(USAGE.into());
            };
            let trace = match flags.value("--trace").unwrap_or("0") {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
            };
            let result = run(&RunArgs {
                workload: workload.to_string(),
                seed,
                seconds,
                trace,
                smoke,
                dir: flags.value("--dir").map(Into::into),
            })?;
            print!("{}", result.table());
            println!("{}", result.result_line());
            // An incorrect run still reports: the driver reads `correct`.
            Ok(true)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("amric_benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
