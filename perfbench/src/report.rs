//! Collects metrics and operation outcomes, and prints the result line.

use dtucker::serve::JsonWriter;

/// Metrics by name, plus how many operations were attempted and failed.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
}

/// Failure messages printed before the rest are only counted.
const SHOWN_FAILURES: u64 = 10;

impl Report {
    /// Sets metric `name` (replacing an earlier value).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Counts one operation; a failed one is reported on stderr.
    pub fn attempt(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= SHOWN_FAILURES {
                eprintln!("check failed: {}", what());
            }
        }
    }

    /// Operations attempted and failed so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.attempted, self.failed)
    }

    /// The result object carrying exactly `names`, in that order. A name
    /// that was never measured is an error in the benchmark itself.
    pub fn result_line(&self, names: &[&str]) -> Result<String, String> {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.boolean(self.failed == 0 && self.attempted > 0);
        w.key("attempted");
        w.number_u64(self.attempted);
        w.key("failed");
        w.number_u64(self.failed);
        w.key("metrics");
        w.begin_object();
        for name in names {
            let (_, value, unit) = self
                .metrics
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            w.key(name);
            w.begin_object();
            w.key("value");
            w.number_f64(*value);
            w.key("unit");
            w.string(unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        Ok(w.finish())
    }
}
