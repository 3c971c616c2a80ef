//! Metrics, the human-readable table, the result file and the one-line
//! JSON verdict.

use crate::stats::Summary;
use std::fmt::Write as _;

/// One reported metric. `dist` is the sample behind it (when it has
/// one), printed as count, quartiles and median.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub dist: Option<Summary>,
    pub note: String,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            dist: None,
            note: String::new(),
        }
    }

    /// The sample's median as the value.
    pub fn median(name: &'static str, unit: &'static str, dist: Summary) -> Metric {
        let mut m = Metric::new(name, unit, dist.median());
        m.dist = Some(dist);
        m
    }

    /// The sample's supported tail quantile (at most `cap`) as the value.
    pub fn tail(name: &'static str, unit: &'static str, dist: Summary, cap: f64) -> Metric {
        let (q, v) = dist.tail(cap);
        let mut m = Metric::new(name, unit, v);
        m.note = format!("p{:.0} of n={}", q * 100.0, dist.n());
        m.dist = Some(dist);
        m
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Everything one run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Named correctness checks beyond per-operation bit identity.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<Metric>,
    /// Free-form context lines (sizes, ceilings) for the table.
    pub info: Vec<String>,
}

impl Outcome {
    /// Count one operation; `ok` false makes it a failure.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.attempted > 0
            && self.checks.iter().all(|(_, ok)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The table: every metric with unit, sample count, quartiles and
    /// median, then the checks and context lines.
    pub fn table(&self) -> String {
        let mut t = format!(
            "{:<26} {:>14} {:<9} {:>6} {:>12} {:>12} {:>12}  note\n",
            "metric", "value", "unit", "n", "q1", "median", "q3"
        );
        for m in &self.metrics {
            let _ = write!(t, "{:<26} {:>14} {:<9}", m.name, fmt(m.value), m.unit);
            match &m.dist {
                Some(d) => {
                    let _ = write!(
                        t,
                        " {:>6} {:>12} {:>12} {:>12}",
                        d.n(),
                        fmt(d.q(0.25)),
                        fmt(d.median()),
                        fmt(d.q(0.75))
                    );
                }
                None => {
                    let _ = write!(t, " {:>6} {:>12} {:>12} {:>12}", "-", "-", "-", "-");
                }
            }
            let _ = writeln!(t, "  {}", m.note);
        }
        let _ = writeln!(
            t,
            "operations: {} attempted, {} failed (error_rate {:.6})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, ok) in &self.checks {
            let _ = writeln!(t, "check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        for line in &self.info {
            let _ = writeln!(t, "{line}");
        }
        t
    }

    /// The closing line: `correct`, `attempted`, `failed` and each
    /// metric's value and unit.
    pub fn verdict_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The result file: run identity, fingerprint and every metric with
    /// its sample summary.
    pub fn result_json(&self, run: &str, fingerprint: &str) -> String {
        let mut s = format!(
            "{{\n  \"run\": \"{run}\",\n  \"fingerprint\": \"{}\",\n  \"correct\": {},\n  \
             \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n",
            fingerprint.replace('"', "'"),
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                s,
                "    \"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name,
                json_num(m.value),
                m.unit
            );
            if let Some(d) = &m.dist {
                let _ = write!(
                    s,
                    ", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}",
                    d.n(),
                    json_num(d.q(0.25)),
                    json_num(d.median()),
                    json_num(d.q(0.75))
                );
            }
            let sep = if i + 1 == self.metrics.len() { "" } else { "," };
            let _ = writeln!(s, "}}{sep}");
        }
        s.push_str("  },\n  \"info\": [\n");
        let checks = self
            .checks
            .iter()
            .map(|(c, ok)| format!("check {c}: {}", if *ok { "ok" } else { "FAILED" }));
        let info: Vec<String> = checks
            .chain(self.info.iter().cloned())
            .map(|l| format!("    \"{}\"", l.replace('"', "'")))
            .collect();
        s.push_str(&info.join(",\n"));
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Compare against a saved result file: refused as incomparable when
    /// the fingerprints differ, otherwise each metric's ratio to it.
    pub fn compare(&self, baseline: &str, fingerprint: &str) -> String {
        let base_fp = string_field(baseline, "fingerprint").unwrap_or_default();
        let ours = fingerprint.replace('"', "'");
        if base_fp != ours {
            let diff: Vec<String> = base_fp
                .split(';')
                .zip(ours.split(';'))
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("{a} vs {b}"))
                .collect();
            return format!(
                "baseline INCOMPARABLE: measured on a different fingerprint ({}); \
                 no regression verdict\n",
                if diff.is_empty() {
                    "field sets differ".into()
                } else {
                    diff.join(", ")
                }
            );
        }
        let mut out = String::from("baseline comparable (same fingerprint):\n");
        for m in &self.metrics {
            if let Some(b) = metric_value(baseline, m.name) {
                let _ = writeln!(
                    out,
                    "  {:<26} {:>14.6} vs {:>14.6} {:<9} ratio {:.4}",
                    m.name,
                    m.value,
                    b,
                    m.unit,
                    m.value / b
                );
            }
        }
        out
    }
}

/// Six significant digits, scientific when small or large.
fn fmt(v: f64) -> String {
    if v != 0.0 && !(1e-3..1e7).contains(&v.abs()) {
        format!("{v:.5e}")
    } else {
        format!("{v:.6}")
    }
}

/// A finite f64 in full precision (JSON has no NaN or infinity).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn string_field(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\": \"");
    let start = doc.find(&pat)? + pat.len();
    let len = doc[start..].find('"')?;
    Some(doc[start..start + len].to_string())
}

fn metric_value(doc: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let start = doc.find(&pat)? + pat.len();
    let end = doc[start..].find([',', '}'])?;
    doc[start..start + end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_file_round_trips_through_compare() {
        let mut o = Outcome::default();
        o.op(true);
        o.push(Metric::new("gemm_ms_p50", "ms", 2.5));
        let doc = o.result_json("x", "cpu=a;nproc=2");
        assert_eq!(metric_value(&doc, "gemm_ms_p50"), Some(2.5));
        assert!(o.compare(&doc, "cpu=a;nproc=2").contains("ratio 1.0000"));
        assert!(o.compare(&doc, "cpu=b;nproc=2").contains("INCOMPARABLE"));
    }

    #[test]
    fn verdict_is_one_json_object() {
        let mut o = Outcome::default();
        o.op(true);
        o.push(Metric::new("setup_s", "s", 0.125));
        assert_eq!(
            o.verdict_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
    }
}
