//! `resweep`: an analyst re-running the pipeline over a resident corpus
//! under a fixed list of threshold configurations.
//!
//! Inputs are rows at `workers = nproc`, as every caller passes them.
//! Loading is set-up, not timed, so map building and classification
//! dominate; the data, checkpoint and serve layers are absent.

use std::collections::BTreeSet;
use std::time::Instant;

use retrodns::core::pipeline::{quarantine, Pipeline, PipelineConfig};
use retrodns::core::shortlist::shortlist;
use retrodns::core::MapBuilder;
use retrodns::store::ObservationStore;

use super::{
    prepare, report_json, set_op_metrics, set_overhead, setup, traced_stages, Corpus, Counts,
    Workload,
};
use crate::stats::median;
use crate::sys;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// The swept configurations: the default plus small moves of the
/// transient threshold and the visibility floor, as the ablation study
/// makes them.
pub fn configs(workers: usize) -> Vec<PipelineConfig> {
    let base = PipelineConfig {
        workers,
        ..PipelineConfig::default()
    };
    let mut out = vec![base.clone()];
    for days in [60, 120] {
        let mut c = base.clone();
        c.classify.transient_max_days = days;
        out.push(c);
    }
    for vis in [0.75, 0.85] {
        let mut c = base.clone();
        c.shortlist.min_visibility = vis;
        out.push(c);
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let domains = ctx.sizes.batch_domains;
    let inputs = prepare(ctx, Workload::Resweep, domains)?;
    let corpus = setup(ctx, out, || Corpus::load(&inputs.dir))?;
    let ai = corpus.inputs();
    let wn = ctx.nproc;

    // The default-config report must not depend on the worker count.
    let at_w1 = report_json(&Pipeline::new(configs(1).remove(0)).run(&ai));
    let at_wn = report_json(&Pipeline::new(configs(wn).remove(0)).run(&ai));
    out.check(
        "resweep: default report byte-identical at workers 1 and nproc",
        ctx.reference(at_w1.clone()) == at_wn,
    );

    sys::reset_peak_rss(None);
    if ctx.trace {
        traced(ctx, &corpus, &at_w1, out)
    } else {
        untraced(ctx, &corpus, &at_w1, out)
    }
}

/// Re-run every config round-robin until the time is up; each re-run's
/// report must match the first report of its config.
fn untraced(
    ctx: &Ctx,
    corpus: &Corpus,
    default_report: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let ai = corpus.inputs();
    let cfgs = configs(ctx.nproc);
    let mut expected: Vec<Option<String>> = vec![None; cfgs.len()];
    expected[0] = Some(ctx.reference(default_report.to_string()));
    let start = Instant::now();
    let mut op_ms = Vec::new();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds || i < cfgs.len() {
        let c = i % cfgs.len();
        let t = Instant::now();
        let report = Pipeline::new(cfgs[c].clone()).run(&ai);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let json = report_json(&report);
        match &expected[c] {
            Some(e) => out.check(
                "resweep: re-run report matches its config's reference",
                *e == json,
            ),
            None => {
                out.op(true);
                expected[c] = Some(json);
            }
        }
        i += 1;
    }
    set_op_metrics(out, &op_ms, op_ms.iter().sum::<f64>() / 1e3);
    out.set("peak_rss_mb", sys::peak_rss_mb(None));
    Ok(())
}

/// Per-layer timings of the parallel layers at one worker count.
#[derive(Default)]
struct Probe {
    rows_ms: Vec<f64>,
    store_ms: Vec<f64>,
    classify_ms: Vec<f64>,
    inspect_ms: Vec<f64>,
}

/// Traced passes: the default-config pipeline composed from its stage
/// functions (in `Pipeline::run`'s order) inside spans, alternating with
/// an untraced `Pipeline::run` and with `w1` / `wn` probes of the
/// parallel layers.
fn traced(
    ctx: &Ctx,
    corpus: &Corpus,
    default_report: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let ai = corpus.inputs();
    let data = &corpus.data;
    let wn = ctx.nproc;
    let cfg = configs(wn).remove(0);
    let pipe_wn = Pipeline::new(cfg.clone());
    let pipe_w1 = Pipeline::new(configs(1).remove(0));
    let mut builder = MapBuilder::new(cfg.window.clone());
    builder.link_gap_scans = cfg.link_gap_scans;

    let reference: retrodns::core::Report =
        serde_json::from_str(default_report).map_err(|e| format!("reference report: {e}"))?;
    let expected_hijacked: BTreeSet<String> = reference
        .hijacked
        .iter()
        .map(|h| h.domain.to_string())
        .collect();

    let mut tracer = Tracer::new(Instant::now());
    let (mut w1, mut wnp) = (Probe::default(), Probe::default());
    let mut untraced_ms = Vec::new();
    let mut counts = Counts::default();
    let start = Instant::now();
    let mut passes = 0;
    while passes < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        passes += 1;
        let t = Instant::now();
        std::hint::black_box(pipe_wn.run(&ai));
        untraced_ms.push(t.elapsed().as_secs_f64() * 1e3);

        tracer.next_run();
        let root = tracer.open("bench");
        let stages = traced_stages(&mut tracer, corpus, &cfg);
        let hijacked: BTreeSet<String> = stages
            .hijacked
            .iter()
            .map(|h| h.domain.to_string())
            .collect();
        counts = stages.counts;
        drop(stages);
        tracer.close(root);
        out.check(
            "resweep: stage functions reproduce Pipeline::run's hijack verdicts",
            hijacked == expected_hijacked && !ctx.force_mismatch,
        );

        // Parallel layers at w1 and wn, outside the pass's spans. The
        // rows and store builds at the same worker count form the A/B
        // pair of map-build algorithms.
        let (kept, _) = quarantine(&corpus.observations, &cfg.window, &data.certs);
        let maps = builder.build_sharded_stats(&kept, wn).0;
        let patterns = pipe_wn.classify_maps(&maps);
        let listed = shortlist(&maps, &patterns, &data.asdb, &data.certs, &cfg.shortlist);
        let store = ObservationStore::from_observations(&kept).map_err(|e| e.to_string())?;
        for (workers, probe, pipe) in [(1, &mut w1, &pipe_w1), (wn, &mut wnp, &pipe_wn)] {
            let t = Instant::now();
            let (maps_r, _) = builder.build_sharded_stats(&kept, workers);
            probe.rows_ms.push(ms(t));
            let t = Instant::now();
            let (maps_s, _) = builder.build_store_stats(&store, None, workers);
            probe.store_ms.push(ms(t));
            out.check(
                "resweep: rows and store map builds equal at every worker count",
                maps_r == maps && maps_s == maps,
            );
            let t = Instant::now();
            std::hint::black_box(pipe.classify_maps(&maps));
            probe.classify_ms.push(ms(t));
            let t = Instant::now();
            std::hint::black_box(pipe.inspect_candidates(&listed.candidates, &ai));
            probe.inspect_ms.push(ms(t));
        }
    }
    out.set_trace(&tracer);
    set_overhead(out, &untraced_ms);
    out.set("samples", passes as f64);
    let Counts {
        obs,
        kept,
        maps,
        transient,
        candidates,
        verdicts,
        confirmed,
        found,
    } = counts;
    let self_ms = tracer.self_ms();
    let layer = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let per = |total_ms: f64, n: usize, scale: f64| total_ms * scale / n.max(1) as f64;
    out.set(
        "pipeline.quarantine_ns_per_obs",
        per(layer("pipeline.quarantine"), obs, 1e6),
    );
    let m = |v: &[f64]| median(v);
    let rows = (
        per(m(&w1.rows_ms), kept, 1e6),
        per(m(&wnp.rows_ms), kept, 1e6),
    );
    let store = (
        per(m(&w1.store_ms), kept, 1e6),
        per(m(&wnp.store_ms), kept, 1e6),
    );
    out.set("map.build_rows_ns_per_obs.w1", rows.0);
    out.set("map.build_rows_ns_per_obs.wn", rows.1);
    out.set("map.build_store_ns_per_obs.w1", store.0);
    out.set("map.build_store_ns_per_obs.wn", store.1);
    out.set("map.rows_t1_over_tn", rows.0 / rows.1);
    out.set("map.store_t1_over_tn", store.0 / store.1);
    out.set("map.rows_over_store.w1", rows.0 / store.0);
    out.set("map.rows_over_store.wn", rows.1 / store.1);
    out.set("map.maps", maps as f64);
    let classify = (
        per(m(&w1.classify_ms), maps, 1e6),
        per(m(&wnp.classify_ms), maps, 1e6),
    );
    out.set("classify.ns_per_map.w1", classify.0);
    out.set("classify.ns_per_map.wn", classify.1);
    out.set("classify.t1_over_tn", classify.0 / classify.1);
    out.set("classify.maps", maps as f64);
    out.set("shortlist.ns_per_map", per(layer("shortlist"), maps, 1e6));
    out.set(
        "shortlist.keep_ratio",
        candidates as f64 / transient.max(1) as f64,
    );
    let inspect = (
        per(m(&w1.inspect_ms), candidates, 1e3),
        per(m(&wnp.inspect_ms), candidates, 1e3),
    );
    out.set("inspect.us_per_candidate.w1", inspect.0);
    out.set("inspect.us_per_candidate.wn", inspect.1);
    out.set("inspect.t1_over_tn", inspect.0 / inspect.1);
    out.set("inspect.candidates", candidates as f64);
    out.set(
        "inspect.verdict_ratio",
        verdicts as f64 / candidates.max(1) as f64,
    );
    out.set("pivot.us_per_hijack", per(layer("pivot"), confirmed, 1e3));
    out.set("pivot.discovered", found as f64);
    tracer
        .write_jsonl(
            &ctx.work
                .join("traces")
                .join(format!("resweep-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing trace: {e}"))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
