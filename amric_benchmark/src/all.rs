//! `amric_benchmark all`: every workload, untraced then traced, each in
//! a child process of its own — so that `peak_rss_mb` is the workload's
//! and not the sum of everything that ran before it — and one result
//! file for `compare`.

use crate::inputs::WORKLOADS;
use crate::json::{self, Value};
use crate::run::out_dir;
use std::path::PathBuf;
use std::process::Command;

/// Arguments of `all`.
pub struct AllArgs {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub out: Option<PathBuf>,
}

/// Run every workload twice (end to end, then traced) in child
/// processes; print their tables; write the combined result file.
/// Returns whether every run was correct.
pub fn run_all(args: &AllArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    let mut host = Value::Null;
    for spec in WORKLOADS {
        let mut passes = Vec::new();
        for (pass, trace) in [("end_to_end", "0"), ("traced", "1")] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("spawn {}: {e}", spec.name))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let (table, line) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", &stdout));
            println!("{table}");
            if !output.status.success() {
                return Err(format!(
                    "{} ({pass}) exited with {}: {}",
                    spec.name,
                    output.status,
                    String::from_utf8_lossy(&output.stderr).trim()
                ));
            }
            let result =
                json::parse(line).map_err(|e| format!("{} result line: {e}", spec.name))?;
            all_correct &= result.get("correct") == Some(&Value::Bool(true));
            // The child also left the detail record next to the traces.
            let detail_path = out_dir().join(format!(
                "result-{}-{}.json",
                spec.name,
                if trace == "1" { "traced" } else { "e2e" }
            ));
            let detail = std::fs::read_to_string(&detail_path)
                .map_err(|e| format!("read {}: {e}", detail_path.display()))
                .and_then(|t| json::parse(&t))?;
            if let Some(h) = detail.get("host") {
                host = h.clone();
            }
            passes.push((pass, detail));
        }
        workloads.push((spec.name, Value::obj(passes)));
    }
    let combined = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("smoke", Value::Bool(args.smoke)),
        ("host", host),
        ("workloads", Value::obj(workloads)),
    ]);
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| out_dir().join("result.json"));
    std::fs::write(&out, combined.to_pretty())
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    println!("wrote {}", out.display());
    Ok(all_correct)
}
