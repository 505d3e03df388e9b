//! Declared metrics, correctness accounting, and the result line.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// A declared metric: what `BENCHMARK.json` lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declared {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

const fn d(name: &'static str, unit: &'static str, better: Better) -> Declared {
    Declared { name, unit, better }
}

/// End-to-end metrics: every workload reports each of them with tracing
/// off. `call_s` is the workload's timed call (`train` to its target or
/// epoch budget, or one closed-loop serving run); `ops_per_s` counts SGD
/// updates or completed requests; `quality_ratio` is test RMSE over the
/// data's noise floor for training and simulated p99 over the deadline
/// for serving.
pub const END_TO_END: [Declared; 5] = [
    d("setup_s", "s", Better::Lower),
    d("call_s", "s", Better::Lower),
    d("ops_per_s", "1/s", Better::Higher),
    d("quality_ratio", "ratio", Better::Lower),
    d("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics every workload reports with tracing on. The kernel
/// is the workload's hot loop over its own factor rows: `sgd_update` for
/// training (an op is one update), the top-N scoring scan for serving (an
/// op is one scored item). `call.self_s` is the part of the timed call no
/// lower-layer span accounts for.
pub const PER_LAYER: [Declared; 13] = [
    d("data.generate_s", "s", Better::Lower),
    d("feature.init_s", "s", Better::Lower),
    d("feature.factor_bytes", "B", Better::Lower),
    d("kernel.f32.ns_per_op", "ns", Better::Lower),
    d("kernel.f16.ns_per_op", "ns", Better::Lower),
    d("kernel.bytes_per_op", "B", Better::Lower),
    d("kernel.gbps", "GB/s", Better::Higher),
    d("kernel.bw_fraction", "ratio", Better::Higher),
    d("call.self_s", "s", Better::Lower),
    d("call.self_share", "ratio", Better::Lower),
    d("trace.overhead_share", "ratio", Better::Lower),
    d("host.copy_gbps", "GB/s", Better::Higher),
    d("host.llc_bytes", "B", Better::Higher),
];

/// Operations attempted and failed, and whether every correctness check
/// held. A failed correctness check is also a failed operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outcome {
    /// Operations attempted (train calls, requests, checked answers).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// False once any correctness check fails.
    pub correct: bool,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            correct: true,
            notes: Vec::new(),
        }
    }
}

impl Outcome {
    /// Counts one checked answer; a wrong one fails and clears `correct`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.correct = false;
            self.notes.push(what());
        }
    }

    /// Counts `attempted` operations of which `failed` failed without a
    /// wrong answer (shed or late requests).
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// End-to-end values (untraced run) or per-layer values (traced run):
    /// exactly the declared set for the run's mode.
    pub metrics: Vec<Metric>,
    /// The full per-layer ledger of the traced run, including the
    /// workload-specific layers; printed, not part of the result line.
    pub ledger: Vec<Metric>,
    /// Free-form lines printed before the result (host label, sizes).
    pub notes: Vec<String>,
    /// Storage bytes of the workload's P and Q.
    pub factor_bytes: u64,
    /// Operation and correctness accounting.
    pub outcome: Outcome,
}

impl Report {
    /// Records a result-line metric, taking the unit from `declared`.
    pub fn metric(&mut self, declared: &[Declared], name: &'static str, value: f64) {
        let unit = declared
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"))
            .unit;
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a ledger entry.
    pub fn ledger(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.ledger.push(Metric { name, value, unit });
    }

    /// Value of a ledger entry.
    pub fn ledger_value(&self, name: &str) -> Option<f64> {
        self.ledger.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Ways the result-line metrics differ from `declared` (each declared
    /// name exactly once, nothing else, every value finite); empty when
    /// they match. A difference is a benchmark bug.
    pub fn mismatches(&self, declared: &[Declared]) -> Vec<String> {
        let mut out = Vec::new();
        for m in declared {
            let n = self.metrics.iter().filter(|x| x.name == m.name).count();
            if n != 1 {
                out.push(format!("metric {} emitted {n} times", m.name));
            }
        }
        for m in &self.metrics {
            if !declared.iter().any(|x| x.name == m.name) || !m.value.is_finite() {
                out.push(format!(
                    "metric {} = {} is undeclared or not finite",
                    m.name, m.value
                ));
            }
        }
        out
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.outcome.correct,
            self.outcome.attempted.max(1),
            self.outcome.failed,
            metrics.join(", ")
        )
    }
}

/// True when `name` is a legal metric name: starts with a letter or
/// digit, at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a legal unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut r = Report::default();
        r.metric(&END_TO_END, "setup_s", 0.5);
        r.outcome.check(true, String::new);
        let line = r.result_line();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn mismatches_flag_missing_and_non_finite_metrics() {
        let mut r = Report::default();
        r.metric(&END_TO_END, "setup_s", f64::NAN);
        assert_eq!(r.mismatches(&END_TO_END).len(), 5, "four missing, one NaN");
    }
}
