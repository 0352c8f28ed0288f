//! `amric_benchmark compare <a.json> <b.json>`: does result set `b` hold
//! up against `a` under the bounds of `BENCHMARK.json`?
//!
//! One row per (workload, end-to-end metric) with both medians and both
//! spreads and a verdict:
//!
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound,
//!   and the two spreads do not overlap;
//! * `unresolved` — the medians differ by more than the bound but the
//!   spreads overlap, or a spread is itself wider than the bound while
//!   the two overlap: the runs cannot tell;
//! * `ok` — otherwise.
//!
//! Exact-count layer metrics must be identical when both sets ran on the
//! same seed. The exit status is non-zero on any `worse` or differing
//! count. This is the A/A check of the benchmark itself and the seed of a
//! CI gate.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::report::sig;

/// Verdict of one row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Median and spread of one metric in one result set.
#[derive(Clone, Copy, Debug)]
pub struct Reading {
    pub value: f64,
    pub lo: f64,
    pub hi: f64,
}

impl Reading {
    fn rel_spread(&self) -> f64 {
        (self.hi - self.lo) / self.value.abs().max(f64::MIN_POSITIVE)
    }
}

/// Judge `b` against `a` for a metric with the given direction and bound.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b.value - a.value) / a.value.abs(),
        Better::Higher => (a.value - b.value) / a.value.abs(),
    };
    let overlap = a.lo <= b.hi && b.lo <= a.hi;
    let wide = a.rel_spread().max(b.rel_spread()) > bound;
    match (worse_by > bound, overlap) {
        (true, false) => Verdict::Worse,
        (true, true) => Verdict::Unresolved,
        (false, true) if wide => Verdict::Unresolved,
        (false, _) => Verdict::Ok,
    }
}

fn reading(set: &Value, workload: &str, pass: &str, metric: &str) -> Option<Reading> {
    let m = set
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    Some(Reading {
        value,
        lo: m.get("lo").and_then(Value::as_f64).unwrap_or(value),
        hi: m.get("hi").and_then(Value::as_f64).unwrap_or(value),
    })
}

/// Bounds by metric name: from `BENCHMARK.json` when given, else the
/// built-in table (a test keeps the two equal).
fn bounds(benchmark: Option<&Value>) -> Vec<(&'static str, Better, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let from_file = benchmark
                .and_then(|b| b.get("end_to_end"))
                .and_then(Value::as_arr)
                .and_then(|list| {
                    list.iter()
                        .find(|j| j.get("name").and_then(Value::as_str) == Some(m.name))
                })
                .and_then(|j| j.get("bound"))
                .and_then(Value::as_f64);
            (m.name, m.better, from_file.unwrap_or(m.bound))
        })
        .collect()
}

/// Compare two parsed result sets; returns the printed report and
/// whether `b` holds (no `worse` row, no differing exact count).
pub fn compare(a: &Value, b: &Value, benchmark: Option<&Value>) -> (String, bool) {
    let mut out = format!(
        "{:<14} {:<20} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  {}\n",
        "workload", "metric", "a", "a spread", "b", "b spread", "change", "bound", "verdict"
    );
    let mut holds = true;
    let names: Vec<&str> = a
        .get("workloads")
        .and_then(Value::as_obj)
        .map(|w| w.iter().map(|(k, _)| k.as_str()).collect())
        .unwrap_or_default();
    let mut tally = [0usize; 3];
    for workload in &names {
        for (metric, better, bound) in bounds(benchmark) {
            let (Some(ra), Some(rb)) = (
                reading(a, workload, "end_to_end", metric),
                reading(b, workload, "end_to_end", metric),
            ) else {
                out.push_str(&format!("{workload:<14} {metric:<20} missing in one set\n"));
                holds = false;
                continue;
            };
            let verdict = judge(ra, rb, better, bound);
            tally[verdict as usize] += 1;
            holds &= verdict != Verdict::Worse;
            out.push_str(&format!(
                "{:<14} {:<20} {:>12} {:>23} {:>12} {:>23} {:>+7.1}% {:>5.1}%  {}\n",
                workload,
                metric,
                sig(ra.value),
                format!("{} .. {}", sig(ra.lo), sig(ra.hi)),
                sig(rb.value),
                format!("{} .. {}", sig(rb.lo), sig(rb.hi)),
                100.0 * (rb.value - ra.value) / ra.value.abs(),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
    }
    // Exact counts repeat bit-for-bit on one seed.
    let seed = |s: &Value| s.get("seed").and_then(Value::as_f64);
    if seed(a).is_some() && seed(a) == seed(b) {
        let mut differing = 0;
        for workload in &names {
            for layer in PER_LAYER.iter().filter(|l| l.exact) {
                let (ra, rb) = (
                    reading(a, workload, "traced", layer.name),
                    reading(b, workload, "traced", layer.name),
                );
                if let (Some(ra), Some(rb)) = (ra, rb) {
                    if ra.value.to_bits() != rb.value.to_bits() {
                        differing += 1;
                        out.push_str(&format!(
                            "{workload:<14} {:<36} exact count differs: {} vs {}\n",
                            layer.name, ra.value, rb.value
                        ));
                    }
                }
            }
        }
        out.push_str(&format!(
            "exact layer counts (same seed): {}\n",
            if differing == 0 {
                "identical".to_string()
            } else {
                format!("{differing} differ")
            }
        ));
        holds &= differing == 0;
    }
    out.push_str(&format!(
        "{} ok, {} worse, {} unresolved\n",
        tally[Verdict::Ok as usize],
        tally[Verdict::Worse as usize],
        tally[Verdict::Unresolved as usize]
    ));
    (out, holds)
}

/// Load two result files and compare them.
pub fn compare_files(a: &str, b: &str, benchmark: Option<&str>) -> Result<(String, bool), String> {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| json::parse(&t).map_err(|e| format!("parse {p}: {e}")))
    };
    let bench = benchmark.map(load).transpose()?;
    Ok(compare(&load(a)?, &load(b)?, bench.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, lo: f64, hi: f64) -> Reading {
        Reading { value, lo, hi }
    }

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // Within the bound, tight spreads.
        assert_eq!(
            judge(r(100.0, 99.0, 101.0), r(104.0, 103.0, 105.0), Lower, 0.1),
            Verdict::Ok
        );
        // 30 % slower, spreads apart.
        assert_eq!(
            judge(r(100.0, 98.0, 102.0), r(130.0, 127.0, 133.0), Lower, 0.1),
            Verdict::Worse
        );
        // 30 % slower but one round of b reached into a's spread.
        assert_eq!(
            judge(r(100.0, 98.0, 102.0), r(130.0, 101.0, 140.0), Lower, 0.1),
            Verdict::Unresolved
        );
        // Medians agree but the spread is wider than the bound.
        assert_eq!(
            judge(r(100.0, 80.0, 125.0), r(101.0, 85.0, 120.0), Lower, 0.1),
            Verdict::Unresolved
        );
        // Entirely better is ok, however wide.
        assert_eq!(
            judge(r(100.0, 80.0, 125.0), r(50.0, 40.0, 60.0), Lower, 0.1),
            Verdict::Ok
        );
        // Direction: a throughput that drops is worse.
        assert_eq!(
            judge(r(100.0, 99.0, 101.0), r(80.0, 79.0, 81.0), Higher, 0.1),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, 99.0, 101.0), r(120.0, 119.0, 121.0), Higher, 0.1),
            Verdict::Ok
        );
        // Exact values: any change beyond the bound is worse.
        assert_eq!(
            judge(r(17.0, 17.0, 17.0), r(16.8, 16.8, 16.8), Higher, 0.005),
            Verdict::Worse
        );
    }

    fn set(seed: f64, write: f64, calls: f64) -> Value {
        let metric = |v: f64| {
            Value::obj([
                ("value", Value::Num(v)),
                ("lo", Value::Num(v)),
                ("hi", Value::Num(v)),
            ])
        };
        let e2e = Value::obj(END_TO_END.iter().map(|m| {
            (
                m.name,
                metric(if m.name == "write_mb_s" { write } else { 10.0 }),
            )
        }));
        let traced = Value::obj([("h5lite.filter_calls", metric(calls))]);
        Value::obj([
            ("seed", Value::Num(seed)),
            (
                "workloads",
                Value::obj([(
                    "nyx_lr",
                    Value::obj([
                        ("end_to_end", Value::obj([("metrics", e2e)])),
                        ("traced", Value::obj([("metrics", traced)])),
                    ]),
                )]),
            ),
        ])
    }

    #[test]
    fn report_and_status() {
        let (text, holds) = compare(&set(1.0, 200.0, 24.0), &set(1.0, 201.0, 24.0), None);
        assert!(holds, "{text}");
        assert!(text.contains("identical") && text.contains("10 ok, 0 worse, 0 unresolved"));

        let (text, holds) = compare(&set(1.0, 200.0, 24.0), &set(1.0, 120.0, 24.0), None);
        assert!(!holds && text.contains("WORSE"), "{text}");

        let (text, holds) = compare(&set(1.0, 200.0, 24.0), &set(1.0, 200.0, 25.0), None);
        assert!(!holds && text.contains("exact count differs"), "{text}");

        // Different seeds: counts are not compared.
        let (text, holds) = compare(&set(1.0, 200.0, 24.0), &set(2.0, 200.0, 25.0), None);
        assert!(holds && !text.contains("exact layer counts"), "{text}");

        // A bound from BENCHMARK.json overrides the table.
        let bench = Value::obj([(
            "end_to_end",
            Value::Arr(vec![Value::obj([
                ("name", Value::str("write_mb_s")),
                ("bound", Value::Num(0.5)),
            ])]),
        )]);
        let (_, holds) = compare(&set(1.0, 200.0, 24.0), &set(1.0, 120.0, 24.0), Some(&bench));
        assert!(holds);
    }
}
