//! `analyze-cold`: one `retrodns analyze --data DIR` child process per
//! sample, over a simulated JSON data directory covering the full study
//! window. This is the adoption path: JSON load and annotation dominate,
//! so it shows `data` / `scan` changes and how much a pipeline-stage
//! gain is worth to a batch user.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use retrodns::core::pipeline::{Pipeline, PipelineConfig, Report};
use retrodns::core::report::{render_table2, render_table3, DomainInfo};
use retrodns::serve::JobData;
use retrodns::sim::DomainMeta;
use retrodns::types::DomainName;

use super::{prepare, set_op_metrics, set_overhead, setup, traced_stages, Corpus, Workload};
use crate::stats::median;
use crate::sys::run_child;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Worker count `retrodns analyze` runs its pipeline with.
const CLI_WORKERS: usize = 4;

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let domains = ctx.sizes.batch_domains;
    let inputs = prepare(ctx, Workload::AnalyzeCold, domains)?;
    let (corpus, meta) = setup(ctx, out, || {
        Ok((Corpus::load(&inputs.dir)?, load_meta(&inputs.dir)?))
    })?;
    let config = PipelineConfig {
        workers: ctx.nproc,
        ..PipelineConfig::default()
    };
    let reference = Pipeline::new(config).run(&corpus.inputs());
    drop(corpus);
    let expected = ctx.reference(verdict_lines(&reference, &meta));
    let mut analyze = Command::new(ctx.bin("retrodns"));
    analyze.arg("analyze").arg("--data").arg(&inputs.dir);

    let start = Instant::now();
    let mut untraced_ms = Vec::new();
    let mut peaks = Vec::new();
    let mut tracer = Tracer::new(Instant::now());
    let mut obs = 0;
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        passes += 1;
        let run = run_child(&mut analyze)?;
        untraced_ms.push(run.wall.as_secs_f64() * 1e3);
        peaks.push(run.peak_rss_mb);
        let stdout = String::from_utf8_lossy(&run.stdout);
        let verdicts = stdout.find("funnel:\n").map(|i| &stdout[i..]);
        out.check(
            "analyze-cold: funnel and verdict lines match the in-process reference",
            run.status.success() && verdicts == Some(expected.as_str()),
        );
        if ctx.trace {
            tracer.next_run();
            let root = tracer.open("bench");
            let (n, hijacked) = traced_pass(&mut tracer, &inputs.dir)?;
            tracer.close(root);
            obs = n;
            out.check(
                "analyze-cold: stage functions reproduce the reference hijack verdicts",
                hijacked == reference.hijacked_domains().into_iter().collect()
                    && !ctx.force_mismatch,
            );
        }
    }
    if !ctx.trace {
        set_op_metrics(out, &untraced_ms, untraced_ms.iter().sum::<f64>() / 1e3);
        out.set("peak_rss_mb", median(&peaks));
        return Ok(());
    }
    out.set_trace(&tracer);
    set_overhead(out, &untraced_ms);
    out.set("samples", passes as f64);
    let self_ms = tracer.self_ms();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let load = layer("data.load");
    out.set("data.load_ms", load);
    out.set(
        "data.load_mb_per_s",
        inputs.bytes as f64 / 1e6 / (load / 1e3),
    );
    out.set(
        "scan.annotate_ns_per_obs",
        layer("scan.annotate") * 1e6 / obs.max(1) as f64,
    );
    out.set(
        "pipeline.quarantine_ns_per_obs",
        layer("pipeline.quarantine") * 1e6 / obs.max(1) as f64,
    );
    tracer
        .write_jsonl(
            &ctx.work
                .join("traces")
                .join(format!("analyze-cold-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing trace: {e}"))
}

fn load_meta(dir: &Path) -> Result<Vec<DomainMeta>, String> {
    let path = dir.join("meta.json");
    let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_slice(&bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// What `retrodns analyze` prints from its funnel block on: the funnel
/// counts and the hijacked / targeted tables.
pub fn verdict_lines(report: &Report, meta: &[DomainMeta]) -> String {
    let f = &report.funnel;
    let mut s = String::new();
    let _ = writeln!(s, "funnel:");
    let _ = writeln!(s, "  domains observed        {}", f.domains_total);
    let _ = writeln!(s, "  transient maps          {}", f.transient_maps);
    let _ = writeln!(s, "  shortlisted             {}", f.shortlisted);
    let _ = writeln!(s, "  dismissed (stale cert)  {}", f.dismissed_stale);
    let _ = writeln!(s, "  inconclusive            {}", f.inconclusive);
    let _ = writeln!(
        s,
        "  hijacked                {} ({:?})",
        report.hijacked.len(),
        f.hijacks_by_type
    );
    let _ = writeln!(s, "  targeted                {}", report.targeted.len());
    if !report.degraded.is_empty() {
        let _ = writeln!(
            s,
            "  degraded                {} ({:?})",
            report.degraded.len(),
            f.degraded
        );
    }
    let info_map = info_map(meta);
    let info = |d: &DomainName| info_map.get(d).cloned();
    let _ = writeln!(s, "\nhijacked domains:");
    s.push_str(&render_table2(&report.hijacked, &info));
    let _ = writeln!(s, "\ntargeted domains:");
    s.push_str(&render_table3(&report.targeted, &info));
    s
}

fn info_map(meta: &[DomainMeta]) -> HashMap<DomainName, DomainInfo> {
    meta.iter()
        .map(|m| {
            (
                m.domain.clone(),
                DomainInfo {
                    sector: m.sector.to_string(),
                    country: Some(m.country),
                    org_name: m.org_name.clone(),
                },
            )
        })
        .collect()
}

/// The CLI's sequence from its public functions, each in a span: load,
/// annotate, the pipeline stages at the CLI's worker count, render.
/// Returns the observation count and the hijacked domains.
fn traced_pass(tracer: &mut Tracer, dir: &Path) -> Result<(usize, BTreeSet<DomainName>), String> {
    let (data, meta) = tracer.time("data.load", || -> Result<_, String> {
        Ok((JobData::load(dir)?, load_meta(dir)?))
    })?;
    let observations = tracer.time("scan.annotate", || data.observations());
    let corpus = Corpus { data, observations };
    let cfg = PipelineConfig {
        workers: CLI_WORKERS,
        ..PipelineConfig::default()
    };
    let stages = traced_stages(tracer, &corpus, &cfg);
    tracer.time("render", || {
        let info_map = info_map(&meta);
        let info = |d: &DomainName| info_map.get(d).cloned();
        std::hint::black_box(render_table2(&stages.hijacked, &info));
        std::hint::black_box(render_table3(&stages.targeted, &info));
    });
    Ok((
        stages.counts.obs,
        stages.hijacked.iter().map(|h| h.domain.clone()).collect(),
    ))
}
