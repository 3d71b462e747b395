//! Streaming ↔ batch equivalence: ingesting N scan-weeks one at a time
//! through [`IncrementalAnalyzer`] must yield a report byte-identical
//! (as JSON) to batch-analyzing all N weeks at once — at any worker
//! count, with or without killing and resuming the analyzer from
//! checkpoints between weeks — and the per-week [`WeekDelta`]s must
//! compose back into the final report without losing or duplicating a
//! verdict change. Resume rebuilds the maps from the checkpointed log, so
//! the map-level invariant it rests on — appending week by week equals
//! building over the appended log — is pinned here too.

mod common;

use common::{week_slices, world_up_to_week, InputsBuilder};
use proptest::prelude::*;
use retrodns::core::checkpoint::{config_fingerprint, CheckpointStore, Fingerprint};
use retrodns::core::classify::{classify, Pattern};
use retrodns::core::incremental::{IncrementalAnalyzer, WeekDelta, INCREMENTAL_STAGE};
use retrodns::core::map::{DeploymentMap, MapBuilder};
use retrodns::core::pipeline::{quarantine, AnalystInputs, Pipeline, PipelineConfig, Report};
use retrodns::scan::DomainObservation;
use retrodns::sim::World;
use retrodns::store::{DictCodes, ObservationStore, RowsView, StoreBuilder};
use retrodns::types::Day;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Worker counts the byte-identity contract is pinned at.
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

fn config_for(world: &World, workers: usize) -> PipelineConfig {
    PipelineConfig {
        window: world.config.window.clone(),
        workers,
        ..PipelineConfig::default()
    }
}

fn report_json(report: &Report) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// Stream every week through one analyzer, returning the final report
/// and the per-week deltas.
fn stream_weeks(
    world: &World,
    observations: &[DomainObservation],
    workers: usize,
) -> (Report, Vec<WeekDelta>) {
    let view = RowsView(observations);
    let inputs = InputsBuilder::new(world, &view).build();
    let mut analyzer = IncrementalAnalyzer::new(config_for(world, workers));
    let deltas: Vec<WeekDelta> = week_slices(observations)
        .iter()
        .map(|week| analyzer.ingest_week(week, &inputs))
        .collect();
    (analyzer.report().clone(), deltas)
}

/// A map builder configured the way the analyzer configures its own.
fn builder_for(config: &PipelineConfig) -> MapBuilder {
    let mut builder = MapBuilder::new(config.window.clone());
    builder.link_gap_scans = config.link_gap_scans;
    builder
}

/// Replay `weeks` the way `IncrementalAnalyzer::ingest_week` does:
/// quarantine each batch, append the kept rows to the observation log
/// and merge them into the maps. Returns the log and the appended maps.
fn appended_log_and_maps(
    config: &PipelineConfig,
    weeks: &[Vec<DomainObservation>],
    inputs: &AnalystInputs,
) -> (ObservationStore, Vec<DeploymentMap>) {
    let builder = builder_for(config);
    let mut log = StoreBuilder::new().finish();
    let mut codes = DictCodes::default();
    let mut maps = Vec::new();
    for week in weeks {
        let (kept, _) = quarantine(week, &config.window, inputs.certs);
        log.append_with_codes(&kept, &mut codes)
            .expect("kept dates fit the log");
        builder.append_scan(&mut maps, &kept);
    }
    (log, maps)
}

#[test]
fn streaming_equals_batch_on_the_quick_fixture() {
    // 130 weeks of the golden seed: the first attack campaign (days
    // 300–900) has concluded, so the pipeline issues real verdicts and
    // the stream produces real verdict deltas.
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let batch = Pipeline::new(config_for(&world, 1)).run(&inputs);
    let (streamed, deltas) = stream_weeks(&world, &observations, 1);
    assert_eq!(
        report_json(&streamed),
        report_json(&batch),
        "one-week-at-a-time ingestion diverged from the batch report"
    );
    assert!(
        !batch.hijacked.is_empty() || !batch.targeted.is_empty(),
        "fixture too short to exercise verdicts — move the truncation point"
    );
    // The verdicts appeared *during* the stream, not only at the end:
    // some mid-stream delta carries the first upsert.
    let first_change = deltas.iter().find(|d| d.has_verdict_changes());
    assert!(
        first_change.is_some(),
        "verdicts in the final report but no delta ever carried a change"
    );
}

#[test]
fn streaming_matches_batch_at_every_worker_count() {
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let baseline = report_json(&Pipeline::new(config_for(&world, 1)).run(&inputs));
    for workers in [1usize, 2, 8] {
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        assert_eq!(
            report_json(&batch),
            baseline,
            "batch report changed at workers={workers}"
        );
        let (streamed, _) = stream_weeks(&world, &observations, workers);
        assert_eq!(
            report_json(&streamed),
            baseline,
            "streamed report diverged at workers={workers}"
        );
    }
}

#[test]
fn kill_and_resume_between_every_week_is_invisible() {
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let batch = report_json(&Pipeline::new(config_for(&world, 1)).run(&inputs));

    let dir = std::env::temp_dir().join(format!("retrodns-stream-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
    for (i, week) in week_slices(&observations).iter().enumerate() {
        // A brand-new analyzer every week: everything it knows about
        // weeks 0..i must come back from the checkpoint layer.
        let mut analyzer = IncrementalAnalyzer::resume(config_for(&world, 1), &store)
            .unwrap_or_else(|| IncrementalAnalyzer::new(config_for(&world, 1)));
        assert_eq!(analyzer.weeks(), i as u32, "resume lost ingested weeks");
        analyzer.ingest_week(week, &inputs);
        analyzer.checkpoint(&store).expect("checkpoint write");
    }
    let finished =
        IncrementalAnalyzer::resume(config_for(&world, 1), &store).expect("final state resumes");
    assert_eq!(
        report_json(finished.report()),
        batch,
        "kill-and-resume streaming diverged from the batch report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn week_deltas_compose_into_the_final_report() {
    let (world, observations) = world_up_to_week(101, 130);
    let (final_report, deltas) = stream_weeks(&world, &observations, 1);
    // Replay every delta over an empty (pre-week-0) report.
    let mut replayed = Report::default();
    for d in &deltas {
        d.apply(&mut replayed);
    }
    assert_eq!(
        report_json(&replayed),
        report_json(&final_report),
        "replaying the delta stream lost or duplicated a verdict change"
    );
}

/// The analyzer's checkpoint envelope as it was written before maps and
/// patterns were dropped from it: the same fields plus both vectors.
#[derive(Serialize)]
struct LegacyState {
    maps: Vec<DeploymentMap>,
    patterns: Vec<Pattern>,
    quarantined: BTreeMap<String, usize>,
    weeks: u32,
    last_date: Option<Day>,
    report: Report,
}

/// The fields the current envelope carries.
#[derive(Deserialize)]
struct Envelope {
    quarantined: BTreeMap<String, usize>,
    weeks: u32,
    last_date: Option<Day>,
    report: Report,
}

#[test]
fn checkpoints_in_the_old_layout_still_resume() {
    let (world, observations) = world_up_to_week(101, 130);
    let view = RowsView(&observations);
    let inputs = InputsBuilder::new(&world, &view).build();
    let config = config_for(&world, 2);
    let batch = report_json(&Pipeline::new(config.clone()).run(&inputs));
    let weeks = week_slices(&observations);
    let split = weeks.len() / 2;

    let dir = std::env::temp_dir().join(format!("retrodns-stream-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
    let mut analyzer = IncrementalAnalyzer::new(config.clone());
    for week in &weeks[..split] {
        analyzer.ingest_week(week, &inputs);
    }
    analyzer.checkpoint(&store).expect("checkpoint write");

    // Re-save the state stage in the old layout, under the fingerprint
    // the current code binds it to.
    let log = store.load_observations().expect("log loads");
    let fp = Fingerprint {
        config: config_fingerprint(&config),
        inputs: log.fingerprint(),
    };
    let payload = std::fs::read(store.payload_path(INCREMENTAL_STAGE)).expect("stage payload");
    let envelope: Envelope = serde_json::from_slice(&payload).expect("envelope parses");
    let (_, maps) = appended_log_and_maps(&config, &weeks[..split], &inputs);
    let patterns = maps.iter().map(|m| classify(m, &config.classify)).collect();
    let legacy = LegacyState {
        maps,
        patterns,
        quarantined: envelope.quarantined,
        weeks: envelope.weeks,
        last_date: envelope.last_date,
        report: envelope.report,
    };
    store
        .save(INCREMENTAL_STAGE, &fp, &legacy)
        .expect("legacy save");
    let payload = std::fs::read(store.payload_path(INCREMENTAL_STAGE)).expect("stage payload");
    assert!(
        String::from_utf8_lossy(&payload).contains("\"patterns\""),
        "the rewritten stage is not in the old layout"
    );

    let mut resumed = IncrementalAnalyzer::resume(config, &store).expect("old layout resumes");
    assert_eq!(resumed.weeks(), split as u32, "resume lost ingested weeks");
    for week in &weeks[split..] {
        resumed.ingest_week(week, &inputs);
    }
    assert_eq!(
        report_json(resumed.report()),
        batch,
        "a stream resumed from an old-layout checkpoint diverged from the batch report"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    // Each case builds a world and runs both paths — keep the case
    // count small; the matrix below still covers seeds × lengths ×
    // worker counts.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn streaming_equals_batch_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..12,
        worker_i in 0usize..3,
    ) {
        let workers = WORKER_COUNTS[worker_i];
        let (world, observations) = world_up_to_week(seed, weeks);
        let view = RowsView(&observations);
        let inputs = InputsBuilder::new(&world, &view).build();
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        let (streamed, _) = stream_weeks(&world, &observations, workers);
        prop_assert_eq!(
            report_json(&streamed),
            report_json(&batch),
            "streaming diverged for seed={} weeks={} workers={}",
            seed, weeks, workers
        );
    }

    #[test]
    fn deltas_compose_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..12,
    ) {
        let (world, observations) = world_up_to_week(seed, weeks);
        let (final_report, deltas) = stream_weeks(&world, &observations, 1);
        let mut replayed = Report::default();
        for d in &deltas {
            d.apply(&mut replayed);
        }
        prop_assert_eq!(
            report_json(&replayed),
            report_json(&final_report),
            "delta replay diverged for seed={} weeks={}",
            seed, weeks
        );
    }

    #[test]
    fn kill_and_resume_equals_batch_for_random_prefixes(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..10,
        worker_i in 0usize..3,
    ) {
        let workers = WORKER_COUNTS[worker_i];
        let (world, observations) = world_up_to_week(seed, weeks);
        let view = RowsView(&observations);
        let inputs = InputsBuilder::new(&world, &view).build();
        let batch = Pipeline::new(config_for(&world, workers)).run(&inputs);
        let dir = std::env::temp_dir().join(format!(
            "retrodns-stream-prop-{}-{seed}-{weeks}-{workers}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::open(&dir).expect("open checkpoint dir");
        for week in week_slices(&observations) {
            let mut analyzer = IncrementalAnalyzer::resume(config_for(&world, workers), &store)
                .unwrap_or_else(|| IncrementalAnalyzer::new(config_for(&world, workers)));
            analyzer.ingest_week(&week, &inputs);
            analyzer.checkpoint(&store).expect("checkpoint write");
        }
        let finished = IncrementalAnalyzer::resume(config_for(&world, workers), &store)
            .expect("final state resumes");
        prop_assert_eq!(
            report_json(finished.report()),
            report_json(&batch),
            "kill-and-resume diverged for seed={} weeks={} workers={}",
            seed, weeks, workers
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn appended_maps_equal_maps_built_from_the_log(
        seed in 0xAC0u64..0xAC5,
        weeks in 3usize..40,
    ) {
        let (world, observations) = world_up_to_week(seed, weeks);
        let view = RowsView(&observations);
        let inputs = InputsBuilder::new(&world, &view).build();
        let config = config_for(&world, 1);
        let (log, appended) =
            appended_log_and_maps(&config, &week_slices(&observations), &inputs);
        prop_assert!(!appended.is_empty(), "world produced no maps");
        let mut builder = builder_for(&config);
        for workers in WORKER_COUNTS {
            prop_assert!(
                builder.build_store(&log, workers) == appended,
                "maps rebuilt from the log diverged for seed={} weeks={} workers={}",
                seed, weeks, workers
            );
        }
        // Small worlds stay under the sharding threshold; force the
        // range-sharded build as well.
        builder.min_obs_per_worker = 0;
        for workers in WORKER_COUNTS {
            prop_assert!(
                builder.build_store(&log, workers) == appended,
                "sharded maps rebuilt from the log diverged for seed={} weeks={} workers={}",
                seed, weeks, workers
            );
        }
    }
}
