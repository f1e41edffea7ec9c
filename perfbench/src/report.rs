//! The result of one run and its JSON rendering.

use crate::spec::{END_TO_END, PER_LAYER};

/// What a workload measured in one run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Metric name → value (units come from the spec tables).
    pub metrics: Vec<(&'static str, f64)>,
    /// Operations attempted (replays, or requests) and how many failed
    /// their correctness check.
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts for the run envelope (iterations, setups, ...).
    pub runs: Vec<(&'static str, u64)>,
    /// Extra envelope facts (store sizes, budgets, ...).
    pub facts: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The metrics of one table (end-to-end when untraced, per-layer
    /// when traced), in table order. A per-layer metric the workload
    /// does not exercise reads 0: no time or work in that layer.
    pub fn table(&self, traced: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
        let names: Vec<(&'static str, &'static str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (n, _) in &self.metrics {
            if !names.iter().any(|(m, _)| m == n) {
                return Err(format!(
                    "metric {n} is not in the {} table",
                    table_name(traced)
                ));
            }
        }
        let mut out = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let v = self
                .metrics
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v);
            match v {
                Some(v) => out.push((name, unit, v)),
                None if traced => out.push((name, unit, 0.0)),
                None => return Err(format!("end-to-end metric {name} was not measured")),
            }
        }
        Ok(out)
    }
}

fn table_name(traced: bool) -> &'static str {
    if traced {
        "per-layer"
    } else {
        "end-to-end"
    }
}

/// A JSON string literal (names and notes here are plain ASCII).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit (shortest round-trip form).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The final result line.
pub fn result_line(correct: bool, m: &Measured, table: &[(&str, &str, f64)]) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        metrics.join(", ")
    )
}
