//! The one-line JSON result a run prints last, and reading it back (the
//! parent process reads its children's results; nothing else parses JSON).

/// What one run of one workload reports.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Every oracle held and the simulated clock repeated exactly.
    pub correct: bool,
    /// Operations attempted in the timed repetitions.
    pub attempted: u64,
    /// Operations whose oracle failed.
    pub failed: u64,
    /// Metric name → (value, unit), in declaration order when printed.
    pub metrics: Vec<(String, f64, String)>,
}

impl RunResult {
    /// Value of `name`, if reported.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// The result line. Values print with every digit they were measured
    /// with (`{}` on an `f64` is the shortest text that reads back exactly).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Read back a line written by [`RunResult::to_json`].
    pub fn from_json(line: &str) -> Option<RunResult> {
        let after =
            |s: &'_ str, key: &str| -> Option<usize> { s.find(key).map(|at| at + key.len()) };
        let scalar = |key: &str| -> Option<&str> {
            let rest = &line[after(line, &format!("\"{key}\": "))?..];
            rest.split([',', '}']).next()
        };
        let mut metrics = Vec::new();
        let mut rest = &line[after(line, "\"metrics\": {")?..];
        while let Some(name_end) = rest.find("\": {\"value\": ") {
            let name = rest[..name_end].rsplit('"').next()?;
            rest = &rest[name_end + "\": {\"value\": ".len()..];
            let value_end = rest.find(", \"unit\": \"")?;
            let value: f64 = rest[..value_end].parse().ok()?;
            rest = &rest[value_end + ", \"unit\": \"".len()..];
            let unit_end = rest.find('"')?;
            metrics.push((name.to_string(), value, rest[..unit_end].to_string()));
            rest = &rest[unit_end..];
        }
        Some(RunResult {
            correct: scalar("correct")?.parse().ok()?,
            attempted: scalar("attempted")?.parse().ok()?,
            failed: scalar("failed")?.parse().ok()?,
            metrics,
        })
    }
}
