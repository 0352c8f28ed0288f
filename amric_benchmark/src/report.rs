//! Result assembly: the named metric rows of one run, the table printed
//! for people, the one-line JSON the driver reads, and the detail file.

use crate::json::Value;
use crate::oracle::Tally;
use crate::stats::Summary;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub summary: Summary,
}

/// Everything one run of one workload produced.
pub struct RunResult {
    pub workload: &'static str,
    pub traced: bool,
    pub rows: Vec<Row>,
    pub tally: Tally,
    /// Calibration-loop spread above 10 %: the host moved under the run.
    pub noisy: bool,
    pub host: Value,
    /// What was generated: sizes of both snapshots.
    pub inputs: Value,
    /// `harness.*` noise readings, also for untraced runs.
    pub noise: Value,
    /// Extra printed sections (waterfalls).
    pub sections: Vec<String>,
}

impl RunResult {
    /// Replace non-finite values — a metric that could not be computed —
    /// by a counted failure, so that the result line stays valid JSON and
    /// the run reads as incorrect instead of silently dropping a number.
    pub fn seal(&mut self) {
        for row in &mut self.rows {
            let finite = row.summary.value.is_finite();
            self.tally.check(finite, || {
                format!("metric {} has no finite value", row.name)
            });
            if !finite {
                row.summary = Summary::exact(-1.0);
            }
        }
    }

    /// Did every operation and check pass?
    pub fn correct(&self) -> bool {
        self.tally.failed == 0
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        Value::obj([
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            (
                "metrics",
                Value::obj(self.rows.iter().map(|r| {
                    (
                        r.name,
                        Value::obj([
                            ("value", Value::Num(r.summary.value)),
                            ("unit", Value::str(r.unit)),
                        ]),
                    )
                })),
            ),
        ])
        .to_line()
    }

    /// The detail record: every metric with median, spread, sample count
    /// and tail percentile, the host block and the noise readings.
    pub fn detail(&self) -> Value {
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("correct", Value::Bool(self.correct())),
            ("attempted", Value::Num(self.tally.attempted as f64)),
            ("failed", Value::Num(self.tally.failed as f64)),
            (
                "failures",
                Value::Arr(self.tally.notes.iter().map(Value::str).collect()),
            ),
            ("noisy", Value::Bool(self.noisy)),
            ("host", self.host.clone()),
            ("inputs", self.inputs.clone()),
            ("noise", self.noise.clone()),
            (
                "metrics",
                Value::obj(self.rows.iter().map(|r| {
                    let s = &r.summary;
                    let mut fields = vec![
                        ("value", Value::Num(s.value)),
                        ("unit", Value::str(r.unit)),
                        ("median", Value::Num(s.median)),
                        ("lo", Value::Num(s.lo)),
                        ("hi", Value::Num(s.hi)),
                        ("n", Value::Num(s.n as f64)),
                    ];
                    if let Some((p, v)) = s.tail {
                        fields.push(("tail_p", Value::Num(p)));
                        fields.push(("tail", Value::Num(v)));
                    }
                    if !s.rounds.is_empty() {
                        let rounds = s.rounds.iter().map(|&v| Value::Num(v)).collect();
                        fields.push(("rounds", Value::Arr(rounds)));
                    }
                    (r.name, Value::obj(fields))
                })),
            ),
        ])
    }

    /// The table printed above the result line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} ({}){} ==\n{:<36} {:>14} {:>12} {:<8} {:>7}  {:<27} {}\n",
            self.workload,
            if self.traced { "traced" } else { "end to end" },
            if self.noisy { "  [noisy host]" } else { "" },
            "metric",
            "value",
            "median",
            "unit",
            "n",
            "spread",
            "tail",
        );
        for r in &self.rows {
            let s = &r.summary;
            let spread = if s.n > 1 {
                format!("{} .. {}", sig(s.lo), sig(s.hi))
            } else {
                "-".into()
            };
            let tail = s
                .tail
                .map_or_else(|| "-".into(), |(p, v)| format!("p{p} {}", sig(v)));
            out.push_str(&format!(
                "{:<36} {:>14} {:>12} {:<8} {:>7}  {:<27} {}\n",
                r.name,
                sig(s.value),
                sig(s.median),
                r.unit,
                s.n,
                spread,
                tail
            ));
        }
        for section in &self.sections {
            out.push_str(section);
        }
        out.push_str(&format!(
            "operations and checks: {} attempted, {} failed (fail ratio {})\n",
            self.tally.attempted,
            self.tally.failed,
            self.tally.failed as f64 / self.tally.attempted.max(1) as f64
        ));
        for note in &self.tally.notes {
            out.push_str(&format!("  FAILED: {note}\n"));
        }
        out
    }
}

/// Five significant digits for the table (files keep every digit).
pub fn sig(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (4 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::metrics::{legal_name, legal_unit, END_TO_END, PER_LAYER};

    fn result(rows: Vec<Row>) -> RunResult {
        RunResult {
            workload: "w",
            traced: false,
            rows,
            tally: Tally::default(),
            noisy: false,
            host: Value::Null,
            inputs: Value::Null,
            noise: Value::Null,
            sections: Vec::new(),
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let rows = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| Row {
                name: m.name,
                unit: m.unit,
                summary: Summary::exact(1.25 + i as f64),
            })
            .collect();
        let mut r = result(rows);
        r.tally.check(true, String::new);
        r.seal();
        let line = r.result_line();
        assert!(!line.contains('\n'));
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let metrics = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        for ((name, m), want) in metrics.iter().zip(END_TO_END) {
            assert_eq!(name, want.name);
            assert!(legal_name(name));
            assert!(legal_unit(m.get("unit").unwrap().as_str().unwrap()));
            assert!(m.get("value").unwrap().as_f64().unwrap() > 0.0);
            assert_eq!(m.as_obj().unwrap().len(), 2);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_metric_without_a_value_fails_the_run_but_keeps_the_line_valid() {
        let mut r = result(vec![Row {
            name: "x",
            unit: "ms",
            summary: Summary::exact(f64::NAN),
        }]);
        r.seal();
        assert!(!r.correct());
        let v = json::parse(&r.result_line()).unwrap();
        assert_eq!(v.get("failed").and_then(Value::as_f64), Some(1.0));
        assert!(r.table().contains("FAILED: metric x"));
        assert!(json::parse(&r.detail().to_pretty()).is_ok());
    }

    #[test]
    fn sig_keeps_five_digits() {
        assert_eq!(sig(123.456789), "123.46");
        assert_eq!(sig(0.00123456), "0.0012346");
        assert_eq!(sig(17.0), "17.000");
        assert_eq!(sig(123456.7), "123457");
    }
}
