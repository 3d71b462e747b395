//! The four workloads and what they share.

pub mod analyze_cold;
pub mod resweep;
pub mod serve;
pub mod stream;

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use retrodns::core::inspect::t1_star_pass;
use retrodns::core::pipeline::{quarantine, AnalystInputs, Pipeline, PipelineConfig};
use retrodns::core::pivot::pivot;
use retrodns::core::shortlist::shortlist;
use retrodns::core::{DetectedHijack, DetectedTarget, MapBuilder, Pattern};
use retrodns::scan::DomainObservation;
use retrodns::serve::JobData;
use retrodns::types::Day;

use crate::inputs::Inputs;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `retrodns analyze --data DIR` process per sample.
    AnalyzeCold,
    /// `Pipeline::run` over a resident corpus under several configs.
    Resweep,
    /// Week-at-a-time ingest plus a checkpoint after every week.
    StreamDurable,
    /// Closed-loop queries against `retrodns-serve` while a job streams.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AnalyzeCold,
        Workload::Resweep,
        Workload::StreamDurable,
        Workload::ServeMixed,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnalyzeCold => "analyze-cold",
            Workload::Resweep => "resweep",
            Workload::StreamDurable => "stream-durable",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A data directory loaded the way the CLI and the server load it.
pub struct Corpus {
    /// The analysis inputs (`JobData::load`).
    pub data: JobData,
    /// Annotated observations (`JobData::observations`).
    pub observations: Vec<DomainObservation>,
}

impl Corpus {
    /// Load `dir` through the program's own loader.
    pub fn load(dir: &Path) -> Result<Corpus, String> {
        let data = JobData::load(dir)?;
        let observations = data.observations();
        Ok(Corpus { data, observations })
    }

    /// The analyst-input bundle over the whole corpus.
    pub fn inputs(&self) -> AnalystInputs<'_> {
        self.data.inputs(&self.observations)
    }
}

/// Make (or find in the cache) the workload's data directory and print
/// its identity: two runs with the same digest measured the same inputs.
/// Generation and the digest check happen here, once, so that neither
/// lands in `setup_s`; the line reports how long they took.
pub fn prepare(ctx: &Ctx, workload: Workload, domains: usize) -> Result<Inputs, String> {
    let t = Instant::now();
    let inputs = ctx.inputs(domains)?;
    println!(
        "retrobench: workload={} seed={} domains={domains} inputs_digest={:016x} inputs_bytes={} inputs_s={:.3} nproc={} trace={}",
        workload.name(),
        ctx.seed,
        inputs.digest,
        inputs.bytes,
        t.elapsed().as_secs_f64(),
        ctx.nproc,
        ctx.trace as u8
    );
    Ok(inputs)
}

/// Run the workload's set-up `ctx.sizes.setup_reps` times over inputs
/// already prepared, keeping only the last result, and record the
/// median set-up time as `setup_s`.
pub fn setup<T>(
    ctx: &Ctx,
    out: &mut Outcome,
    mut once: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..ctx.sizes.setup_reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    println!(
        "retrobench: setup_reps_s={}",
        times
            .iter()
            .map(|t| format!("{t:.3}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    out.set("setup_s", median(&times));
    Ok(last.expect("at least one set-up ran"))
}

/// Record `op_p50_ms` and `ops_per_s` from per-operation times in ms
/// over `busy_s` seconds of measurement.
pub fn set_op_metrics(out: &mut Outcome, op_ms: &[f64], busy_s: f64) {
    out.set("op_p50_ms", median(op_ms));
    out.set("ops_per_s", op_ms.len() as f64 / busy_s.max(1e-9));
}

/// Record the tracing overhead: mean traced minus mean untraced time of
/// the same unit of work.
pub fn set_overhead(out: &mut Outcome, untraced_ms: &[f64]) {
    let untraced = mean(untraced_ms);
    out.set("trace.untraced_ms", untraced);
    let root = out.get("trace.root_ms").unwrap_or(0.0);
    out.set("trace.overhead_ms", root - untraced);
}

/// Slice sorted observations into per-scan-date batches, oldest first,
/// keeping the first `max_weeks` (the slicing `analyze --stream` and
/// the server's jobs use).
pub fn week_slices(
    observations: &[DomainObservation],
    max_weeks: usize,
) -> Vec<Vec<DomainObservation>> {
    let mut by_date: BTreeMap<Day, Vec<DomainObservation>> = BTreeMap::new();
    for o in observations {
        by_date.entry(o.date).or_default().push(o.clone());
    }
    by_date.into_values().take(max_weeks).collect()
}

/// Report JSON as compared by the checks.
pub fn report_json(report: &retrodns::core::Report) -> String {
    serde_json::to_string(report).expect("report serializes")
}

/// Work counts of one pass through the stages.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    /// Input observations.
    pub obs: usize,
    /// Observations kept by quarantine.
    pub kept: usize,
    /// Deployment maps built.
    pub maps: usize,
    /// Maps classified transient.
    pub transient: usize,
    /// Shortlisted candidates.
    pub candidates: usize,
    /// Candidates inspection concluded hijacked or targeted.
    pub verdicts: usize,
    /// Hijacks handed to pivot (inspection's plus T1*).
    pub confirmed: usize,
    /// Hijacks pivot discovered.
    pub found: usize,
}

/// What the composed stages concluded.
pub struct Stages {
    /// Work counts.
    pub counts: Counts,
    /// Inspection's, T1* and pivot hijacks.
    pub hijacked: Vec<DetectedHijack>,
    /// Inspection's targets.
    pub targeted: Vec<DetectedTarget>,
}

/// The pipeline's stages called one by one in `Pipeline::run`'s order,
/// each inside a span: quarantine, sharded map build, classify,
/// shortlist, inspect, then T1* and pivot. Intermediate outputs are
/// dropped before returning, as `Pipeline::run` drops them.
pub fn traced_stages(tracer: &mut Tracer, corpus: &Corpus, cfg: &PipelineConfig) -> Stages {
    let data = &corpus.data;
    let ai = corpus.inputs();
    let pipe = Pipeline::new(cfg.clone());
    let mut builder = MapBuilder::new(cfg.window.clone());
    builder.link_gap_scans = cfg.link_gap_scans;
    let (kept, _) = tracer.time("pipeline.quarantine", || {
        quarantine(&corpus.observations, &cfg.window, &data.certs)
    });
    let (maps, _) = tracer.time("map.build", || {
        builder.build_sharded_stats(&kept, cfg.workers)
    });
    let patterns = tracer.time("classify", || pipe.classify_maps(&maps));
    let listed = tracer.time("shortlist", || {
        shortlist(&maps, &patterns, &data.asdb, &data.certs, &cfg.shortlist)
    });
    let inspected = tracer.time("inspect", || {
        pipe.inspect_candidates(&listed.candidates, &ai)
    });
    let (hijacked, confirmed, found) = tracer.time("pivot", || {
        let ips = inspected
            .hijacked
            .iter()
            .flat_map(|h| h.attacker_ips.iter().copied())
            .collect();
        let mut hijacked = inspected.hijacked.clone();
        hijacked.extend(t1_star_pass(&inspected.inconclusive, &ips));
        let found = pivot(&hijacked, &data.pdns, &data.crtsh, &cfg.pivot);
        let confirmed = hijacked.len();
        let found_n = found.len();
        hijacked.extend(found);
        (hijacked, confirmed, found_n)
    });
    Stages {
        counts: Counts {
            obs: corpus.observations.len(),
            kept: kept.len(),
            maps: maps.len(),
            transient: patterns
                .iter()
                .filter(|p| matches!(p, Pattern::Transient { .. }))
                .count(),
            candidates: listed.candidates.len(),
            verdicts: inspected.hijacked.len() + inspected.targeted.len(),
            confirmed,
            found,
        },
        hijacked,
        targeted: inspected.targeted,
    }
}
