//! `stream-durable`: week-at-a-time `IncrementalAnalyzer::ingest_week`
//! followed by a checkpoint after every week, as `retrodns-serve` jobs
//! and `analyze --stream --checkpoint-dir` run it.
//!
//! About two years of weeks are streamed, enough for the rule of three
//! consecutive six-month periods. Checkpoints go to the real disk under
//! the work directory. The batch map builder and the JSON loader are
//! absent from the timed part.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use retrodns::cert::{CertId, Certificate};
use retrodns::core::pipeline::{quarantine, AnalystInputs, Pipeline, PipelineConfig};
use retrodns::core::{CheckpointStore, IncrementalAnalyzer, MapBuilder};
use retrodns::scan::DomainObservation;
use retrodns::store::{DictCodes, ObservationStore, StoreBuilder, StoreManifest, StoreReader};

use super::{
    prepare, report_json, set_op_metrics, set_overhead, setup, week_slices, Corpus, Workload,
};
use crate::stats::{mean, median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let domains = ctx.sizes.stream_domains;
    let inputs = prepare(ctx, Workload::StreamDurable, domains)?;
    let (corpus, weeks) = setup(ctx, out, || {
        let corpus = Corpus::load(&inputs.dir)?;
        let weeks = week_slices(&corpus.observations, ctx.sizes.stream_weeks);
        Ok((corpus, weeks))
    })?;
    let config = PipelineConfig {
        workers: ctx.nproc,
        ..PipelineConfig::default()
    };

    // Reference: one batch run over exactly the streamed weeks.
    let last = weeks.last().and_then(|w| w.first()).map(|o| o.date);
    let prefix: Vec<DomainObservation> = corpus
        .observations
        .iter()
        .filter(|o| Some(o.date) <= last)
        .cloned()
        .collect();
    let batch = {
        let ai = AnalystInputs {
            observations: &prefix,
            ..corpus.inputs()
        };
        ctx.reference(report_json(&Pipeline::new(config.clone()).run(&ai)))
    };
    drop(prefix);

    sys::reset_peak_rss(None);
    let ai = corpus.inputs();
    let root = ctx.work.join("stream");
    let start = Instant::now();
    let mut week_ms = Vec::new();
    let mut passes = 0;
    if !ctx.trace {
        while passes == 0 || start.elapsed().as_secs_f64() < ctx.seconds {
            let pass = stream_pass(
                &weeks,
                &ai,
                &config,
                &root.join(format!("pass{passes}")),
                None,
            )?;
            pass.check(&batch, out);
            week_ms.extend(pass.week_ms);
            passes += 1;
        }
        set_op_metrics(out, &week_ms, week_ms.iter().sum::<f64>() / 1e3);
        out.set("peak_rss_mb", sys::peak_rss_mb(None));
        return Ok(());
    }

    // Traced: alternate untraced and traced passes; the traced pass also
    // records what each week's checkpoint wrote.
    let mut tracer = Tracer::new(Instant::now());
    let mut untraced_ms = Vec::new();
    let mut last_traced = None;
    while passes < 2 || start.elapsed().as_secs_f64() < ctx.seconds {
        let dir = root.join(format!("pass{passes}"));
        let pass = if passes % 2 == 0 {
            let pass = stream_pass(&weeks, &ai, &config, &dir, None)?;
            untraced_ms.push(pass.week_ms.iter().sum());
            pass
        } else {
            tracer.next_run();
            stream_pass(&weeks, &ai, &config, &dir, Some(&mut tracer))?
        };
        pass.check(&batch, out);
        if passes % 2 == 1 {
            last_traced = Some(pass);
        }
        passes += 1;
    }
    let pass = last_traced.expect("at least one traced pass");
    out.set_trace(&tracer);
    set_overhead(out, &untraced_ms);
    out.set("samples", passes as f64);
    out.set("incremental.ingest_ms.p50", median(&pass.ingest_ms));
    out.set("incremental.ingest_ms.p95", quantile(&pass.ingest_ms, 0.95));
    out.set(
        "incremental.week_obs",
        mean(&weeks.iter().map(|w| w.len() as f64).collect::<Vec<_>>()),
    );
    out.set("checkpoint.write_ms.p50", median(&pass.checkpoint_ms));
    out.set(
        "checkpoint.write_ms.p95",
        quantile(&pass.checkpoint_ms, 0.95),
    );
    out.set(
        "checkpoint.bytes_written_per_week",
        mean(&pass.bytes_written),
    );
    out.set("checkpoint.resume_ms", pass.resume_ms);
    out.set("checkpoint.disk_mb", pass.disk_bytes as f64 / 1e6);
    out.set("checkpoint.orphan_mb", pass.orphan_bytes as f64 / 1e6);
    out.set("report.encode_us", pass.encode_us);
    out.set("report.bytes", pass.report_bytes as f64);
    probe_layers(
        &weeks,
        &config,
        &corpus.data.certs,
        &root.join("probe"),
        out,
    )?;
    tracer
        .write_jsonl(
            &ctx.work
                .join("traces")
                .join(format!("stream-durable-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing trace: {e}"))
}

/// What one streamed pass measured.
#[derive(Default)]
struct Pass {
    week_ms: Vec<f64>,
    ingest_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    checkpoint_ok: Vec<bool>,
    bytes_written: Vec<f64>,
    report: String,
    resumed_report: Option<String>,
    resume_ms: f64,
    disk_bytes: u64,
    orphan_bytes: u64,
    encode_us: f64,
    report_bytes: usize,
}

impl Pass {
    /// Count the pass's weeks and its output checks.
    fn check(&self, batch: &str, out: &mut Outcome) {
        for ok in &self.checkpoint_ok {
            out.op(*ok);
        }
        out.check(
            "stream-durable: streamed report byte-identical to the batch run",
            self.report == batch,
        );
        out.check(
            "stream-durable: resumed report byte-identical to the streamed one",
            self.resumed_report.as_deref() == Some(self.report.as_str()),
        );
    }
}

/// Stream `weeks` into a fresh analyzer checkpointing into `dir`, then
/// resume from the final checkpoint. With a tracer, each ingest and
/// checkpoint is a span under one root and the bytes each checkpoint
/// wrote are recorded.
fn stream_pass(
    weeks: &[Vec<DomainObservation>],
    ai: &AnalystInputs,
    config: &PipelineConfig,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut analyzer = IncrementalAnalyzer::new(config.clone());
    let mut pass = Pass::default();
    let mut files = BTreeMap::new();
    let root = tracer.as_deref_mut().map(|t| t.open("bench"));
    for week in weeks {
        let t0 = Instant::now();
        let ingest = tracer.as_deref_mut().map(|t| t.open("incremental.ingest"));
        analyzer.ingest_week(week, ai);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), ingest) {
            t.close(id);
        }
        let t1 = Instant::now();
        let span = tracer.as_deref_mut().map(|t| t.open("checkpoint.write"));
        let ok = analyzer.checkpoint(&store);
        if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
            t.close(id);
        }
        let t2 = Instant::now();
        if let Err(e) = &ok {
            eprintln!("checkpoint failed: {e}");
        }
        pass.checkpoint_ok.push(ok.is_ok());
        pass.week_ms.push((t2 - t0).as_secs_f64() * 1e3);
        pass.ingest_ms.push((t1 - t0).as_secs_f64() * 1e3);
        pass.checkpoint_ms.push((t2 - t1).as_secs_f64() * 1e3);
        if tracer.is_some() {
            pass.bytes_written
                .push(changed_bytes(dir, &mut files) as f64);
        }
    }
    if let (Some(t), Some(id)) = (tracer, root) {
        t.close(id);
    }
    pass.report = report_json(analyzer.report());
    let t = Instant::now();
    let resumed = IncrementalAnalyzer::resume(config.clone(), &store);
    pass.resume_ms = t.elapsed().as_secs_f64() * 1e3;
    pass.resumed_report = resumed.map(|a| report_json(a.report()));
    let t = Instant::now();
    let pretty = serde_json::to_string_pretty(analyzer.report()).expect("report serializes");
    pass.encode_us = t.elapsed().as_secs_f64() * 1e6;
    pass.report_bytes = pretty.len();
    pass.disk_bytes = sys::dir_bytes(dir);
    pass.orphan_bytes = orphan_bytes(&store.observations_dir());
    let _ = std::fs::remove_dir_all(dir);
    Ok(pass)
}

/// Bytes of the files under `dir` that are new or changed since the
/// last call (`seen` carries each file's size and mtime between calls).
fn changed_bytes(dir: &Path, seen: &mut BTreeMap<PathBuf, (u64, SystemTime)>) -> u64 {
    let mut changed = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for e in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            let Ok(meta) = e.metadata() else { continue };
            if meta.is_dir() {
                stack.push(e.path());
                continue;
            }
            let stamp = (
                meta.len(),
                meta.modified().unwrap_or(SystemTime::UNIX_EPOCH),
            );
            if seen.insert(e.path(), stamp) != Some(stamp) {
                changed += meta.len();
            }
        }
    }
    changed
}

/// Bytes of observation parts no longer named by the current manifest.
fn orphan_bytes(obs_dir: &Path) -> u64 {
    let Ok(text) = std::fs::read(obs_dir.join("manifest.json")) else {
        return 0;
    };
    let Ok(manifest) = serde_json::from_slice::<StoreManifest>(&text) else {
        return 0;
    };
    let mut live: BTreeSet<String> = manifest
        .chunk_hashes
        .iter()
        .map(|h| format!("chunk-{h:016x}.bin"))
        .collect();
    live.insert(format!("dict-{:016x}.bin", manifest.dict_hash));
    live.insert("manifest.json".to_string());
    std::fs::read_dir(obs_dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| !live.contains(&e.file_name().to_string_lossy().to_string()))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// Layers the analyzer calls internally, timed by replaying their public
/// functions over the same weeks: the observation-log save
/// (`CheckpointStore::save_observations` on a log built the way the
/// analyzer builds its own), the map append, and the store's build,
/// encode and decode.
fn probe_layers(
    weeks: &[Vec<DomainObservation>],
    config: &PipelineConfig,
    certs: &HashMap<CertId, Certificate>,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let store = CheckpointStore::open(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut log = StoreBuilder::new().finish();
    let mut codes = DictCodes::default();
    let mut builder = MapBuilder::new(config.window.clone());
    builder.link_gap_scans = config.link_gap_scans;
    let mut maps = Vec::new();
    let (mut save_ms, mut parts, mut append_ms) = (Vec::new(), Vec::new(), 0.0);
    let mut kept_all = Vec::new();
    for week in weeks {
        let kept = quarantine(week, &config.window, certs).0.into_owned();
        log.append_with_codes(&kept, &mut codes)
            .map_err(|e| format!("log append: {e}"))?;
        let t = Instant::now();
        let written = store
            .save_observations(&log)
            .map_err(|e| format!("save_observations: {e}"))?;
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        parts.push(written as f64);
        let t = Instant::now();
        builder.append_scan(&mut maps, &kept);
        append_ms += t.elapsed().as_secs_f64() * 1e3;
        kept_all.extend(kept);
    }
    let n = kept_all.len().max(1) as f64;
    out.set("checkpoint.observations_ms.p50", median(&save_ms));
    out.set("checkpoint.parts_written_per_week", mean(&parts));
    out.set("map.append_ns_per_obs", append_ms * 1e6 / n);

    let t = Instant::now();
    let built = ObservationStore::from_observations(&kept_all).map_err(|e| e.to_string())?;
    out.set(
        "store.build_ns_per_obs",
        t.elapsed().as_secs_f64() * 1e9 / n,
    );
    let t = Instant::now();
    let bytes = built.encode();
    out.set(
        "store.encode_ns_per_obs",
        t.elapsed().as_secs_f64() * 1e9 / n,
    );
    out.set("store.bytes_per_obs", bytes.len() as f64 / n);
    let t = Instant::now();
    let decoded = StoreReader::open(&bytes)
        .and_then(|r| r.decode())
        .map_err(|e| format!("store decode: {e}"))?;
    out.set(
        "store.decode_ns_per_obs",
        t.elapsed().as_secs_f64() * 1e9 / n,
    );
    out.check(
        "stream-durable: appended log, built store and decoded store agree",
        log.fingerprint() == built.fingerprint() && decoded.fingerprint() == built.fingerprint(),
    );
    let _ = std::fs::remove_dir_all(dir);
    Ok(())
}
