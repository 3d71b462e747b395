//! The metric catalogue: every metric the benchmark reports, with its
//! unit. `BENCHMARK.json` lists the same names and units (a test pins
//! the two together), so this is the one place a metric is declared.
//!
//! End-to-end metrics are measured on every workload, each meaning the
//! workload's own unit of work (one `retrodns analyze` process, one
//! `Pipeline::run`, one streamed week, one served query); untraced runs
//! report exactly these. Traced runs report exactly the per-layer
//! metrics; a layer the workload does not exercise reports 0.

/// One metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Spec {
    Spec { name, unit }
}

/// End-to-end metrics (untraced runs).
pub const END_TO_END: &[Spec] = &[
    m("setup_s", "s"),
    m("op_p50_ms", "ms"),
    m("ops_per_s", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Span names whose self time a traced run reports as `self_ms.<name>`.
/// `bench` is the root span: its self time is the benchmark's own glue
/// between layer calls.
pub const SPANS: &[&str] = &[
    "bench",
    "data.load",
    "scan.annotate",
    "pipeline.quarantine",
    "map.build",
    "classify",
    "shortlist",
    "inspect",
    "pivot",
    "render",
    "incremental.ingest",
    "checkpoint.write",
    "serve.verdict",
    "serve.funnel",
    "serve.report",
    "serve.status",
    "serve.watch",
];

/// Per-layer metrics (traced runs), excluding the `self_ms.*` family
/// generated from [`SPANS`].
pub const LAYER: &[Spec] = &[
    m("nproc", "count"),
    m("machine.calib_ms", "ms"),
    m("error_frac", "frac"),
    m("samples", "count"),
    m("trace.root_ms", "ms"),
    m("trace.untraced_ms", "ms"),
    m("trace.overhead_ms", "ms"),
    m("data.load_ms", "ms"),
    m("data.load_mb_per_s", "MB/s"),
    m("scan.annotate_ns_per_obs", "ns"),
    m("pipeline.quarantine_ns_per_obs", "ns"),
    m("map.build_rows_ns_per_obs.w1", "ns"),
    m("map.build_rows_ns_per_obs.wn", "ns"),
    m("map.build_store_ns_per_obs.w1", "ns"),
    m("map.build_store_ns_per_obs.wn", "ns"),
    m("map.rows_t1_over_tn", "x"),
    m("map.store_t1_over_tn", "x"),
    m("map.rows_over_store.w1", "x"),
    m("map.rows_over_store.wn", "x"),
    m("map.append_ns_per_obs", "ns"),
    m("map.maps", "count"),
    m("classify.ns_per_map.w1", "ns"),
    m("classify.ns_per_map.wn", "ns"),
    m("classify.t1_over_tn", "x"),
    m("classify.maps", "count"),
    m("shortlist.ns_per_map", "ns"),
    m("shortlist.keep_ratio", "frac"),
    m("inspect.us_per_candidate.w1", "us"),
    m("inspect.us_per_candidate.wn", "us"),
    m("inspect.t1_over_tn", "x"),
    m("inspect.candidates", "count"),
    m("inspect.verdict_ratio", "frac"),
    m("pivot.us_per_hijack", "us"),
    m("pivot.discovered", "count"),
    m("report.encode_us", "us"),
    m("report.bytes", "bytes"),
    m("store.build_ns_per_obs", "ns"),
    m("store.encode_ns_per_obs", "ns"),
    m("store.decode_ns_per_obs", "ns"),
    m("store.bytes_per_obs", "bytes"),
    m("incremental.ingest_ms.p50", "ms"),
    m("incremental.ingest_ms.p95", "ms"),
    m("incremental.week_obs", "count"),
    m("checkpoint.write_ms.p50", "ms"),
    m("checkpoint.write_ms.p95", "ms"),
    m("checkpoint.observations_ms.p50", "ms"),
    m("checkpoint.parts_written_per_week", "count"),
    m("checkpoint.bytes_written_per_week", "bytes"),
    m("checkpoint.resume_ms", "ms"),
    m("checkpoint.disk_mb", "MB"),
    m("checkpoint.orphan_mb", "MB"),
    m("serve.handle_us.verdict", "us"),
    m("serve.handle_us.funnel", "us"),
    m("serve.handle_us.report", "us"),
    m("serve.handle_us.status", "us"),
    m("serve.handle_us.watch", "us"),
    m("serve.wire_us", "us"),
    m("serve.job_week_ms", "ms"),
    m("serve.query_p99_ms", "ms"),
];

/// Every per-layer metric: [`LAYER`] plus one `self_ms.<span>` per
/// [`SPANS`] entry.
pub fn per_layer() -> Vec<(String, &'static str)> {
    LAYER
        .iter()
        .map(|s| (s.name.to_string(), s.unit))
        .chain(SPANS.iter().map(|s| (format!("self_ms.{s}"), "ms")))
        .collect()
}

/// The metrics a run reports: end-to-end for untraced runs, per-layer
/// for traced ones.
pub fn reported(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|s| (s.name.to_string(), s.unit))
            .collect()
    }
}
