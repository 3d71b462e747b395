//! What one run measured and checked, and the result line it prints.

use std::collections::BTreeMap;

use crate::calib::Calibration;
use crate::catalogue;
use crate::trace::Tracer;

/// Operation tallies, output checks and metric values of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus output checks).
    pub attempted: u64,
    /// Operations that failed, including failed output checks.
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// Count one operation.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Count one output check; a mismatch is a failed operation.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            eprintln!("output check failed: {what}");
        }
        self.op(ok);
    }

    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// A recorded metric value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Failed over attempted operations.
    pub fn error_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// True when something was attempted and nothing failed.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// Record the run's kernel time as `machine.calib_ms`, print it with
    /// the raw end-to-end times, and rescale those to the reference
    /// speed: times are multiplied by the calibration factor, rates
    /// divided by it.
    pub fn calibrate(&mut self, calibration: &Calibration) {
        let factor = calibration.factor();
        self.set("machine.calib_ms", calibration.kernel_ms());
        let mut line = format!("retrobench: calib_ms={}", calibration.kernel_ms());
        for (name, is_rate) in [
            ("setup_s", false),
            ("op_p50_ms", false),
            ("ops_per_s", true),
        ] {
            if let Some(v) = self.metrics.get_mut(name) {
                line.push_str(&format!(" raw_{name}={v}"));
                *v = if is_rate { *v / factor } else { *v * factor };
            }
        }
        println!("{line}");
    }

    /// Record the tracer's per-layer self times and its mean root span.
    pub fn set_trace(&mut self, tracer: &Tracer) {
        for (name, ms) in tracer.self_ms() {
            self.set(&format!("self_ms.{name}"), ms);
        }
        self.set("trace.root_ms", tracer.mean_root_ms("bench"));
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and the catalogue's metrics for this kind of run. An
    /// untraced run must have measured every end-to-end metric; a traced
    /// run reports 0 for layers its workload does not exercise.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        for (name, unit) in catalogue::reported(trace) {
            let value = match (name.as_str(), self.metrics.get(&name)) {
                ("error_frac", _) => self.error_frac(),
                (_, Some(v)) => *v,
                (_, None) if trace => 0.0,
                (_, None) => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        ))
    }
}
