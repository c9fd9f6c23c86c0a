//! Named metrics and the result line.

use std::collections::BTreeMap;
use std::fmt;

/// Metric name → (value, unit).
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    /// Set (or overwrite) one metric.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), (value, unit));
    }

    /// Copy in every metric of `other` not already set here.
    pub fn fill_from(&mut self, other: &Metrics) {
        for (k, v) in &other.0 {
            self.0.entry(k.clone()).or_insert(*v);
        }
    }

    fn json(&self, errors: &mut Vec<String>) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(k, (v, unit))| {
                let v = if v.is_finite() {
                    *v
                } else {
                    errors.push(format!("metric {k} is not finite ({v})"));
                    -1.0
                };
                format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, (v, unit))) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(f, "{sep}{k}={v:.6} {unit}")?;
        }
        Ok(())
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Failed output checks (empty: every output was correct).
    pub errors: Vec<String>,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics (traced runs only).
    pub layer: Metrics,
}

impl Outcome {
    /// Record the result of one output check.
    pub fn check(&mut self, verdict: Result<(), String>) {
        if let Err(e) = verdict {
            // Keep the log bounded: the first failures tell the story.
            if self.errors.len() < 32 {
                self.errors.push(e);
            } else if self.errors.len() == 32 {
                self.errors
                    .push("(further check failures suppressed)".into());
            }
        }
    }

    /// Merge a traced slice of another workload into this outcome.
    pub fn absorb_slice(&mut self, slice: Outcome) {
        self.attempted += slice.attempted;
        self.failed += slice.failed;
        self.errors.extend(slice.errors);
        self.layer.fill_from(&slice.layer);
    }

    /// The result line, showing `shown`'s metrics.
    pub fn to_json(&self, shown: &Metrics) -> String {
        let mut errors = self.errors.clone();
        let metrics = shown.json(&mut errors);
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
            errors.is_empty(),
            self.attempted,
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_all_digits() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.e2e.set("wall_s", 1.234567891, "s");
        assert_eq!(
            o.to_json(&o.e2e),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"wall_s\": {\"value\": 1.234567891, \"unit\": \"s\"}}}"
        );
        o.e2e.set("bad", f64::NAN, "s");
        assert!(o.to_json(&o.e2e).starts_with("{\"correct\": false"));
    }
}
