//! `serve-mixed`: a `retrodns-serve` child process holding one finished
//! job, while a second job streams weeks (writes, paced by
//! `week_delay_ms`) and a closed loop of `nproc` clients with no think
//! time reads: mostly `verdict/{domain}`, plus the funnel, the writing
//! job's status, `watch?since=` polls and some full `report` fetches.
//! Operators each wait for their reply, so the loop is closed. This
//! shows the serve layer and whether checkpoint-heavy writes leak into
//! read latency.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use retrodns::core::pipeline::{PipelineConfig, Report};
use retrodns::core::IncrementalAnalyzer;
use retrodns::serve::client;
use retrodns::serve::http::Request;
use retrodns::serve::{
    AnalysisService, JobState, JobStatus, ServeConfig, ServerHandle, SupervisorConfig,
};

use super::{prepare, set_overhead, setup, week_slices, Corpus, Workload};
use crate::stats::{median, quantile};
use crate::sys;
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

/// The read routes, with their share of client requests (cumulative
/// thresholds over a uniform draw) and span names. The shares are
/// assumed, not taken from real traffic: see "`serve-mixed` traffic is
/// assumed, not measured" in this directory's README.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Route {
    Verdict,
    Funnel,
    Status,
    Watch,
    Report,
}

impl Route {
    const MIX: [(Route, f64); 5] = [
        (Route::Verdict, 0.70),
        (Route::Funnel, 0.80),
        (Route::Status, 0.90),
        (Route::Watch, 0.95),
        (Route::Report, 1.00),
    ];

    fn pick(u: f64) -> Route {
        Route::MIX
            .iter()
            .find(|(_, cum)| u < *cum)
            .map_or(Route::Report, |(r, _)| *r)
    }

    fn span(self) -> &'static str {
        match self {
            Route::Verdict => "serve.verdict",
            Route::Funnel => "serve.funnel",
            Route::Status => "serve.status",
            Route::Watch => "serve.watch",
            Route::Report => "serve.report",
        }
    }
}

/// The finished job and the writing job.
const DONE_JOB: &str = "a";
const WRITE_JOB: &str = "b";

/// A `retrodns-serve` child process, killed if dropped while running.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Start a server over checkpoint root `root`, recovering the jobs
    /// it holds.
    fn start(ctx: &Ctx, root: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
        let port_file = root.join("port.txt");
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(ctx.bin("retrodns-serve"))
            .arg("--checkpoint-root")
            .arg(root)
            .arg("--port-file")
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn retrodns-serve: {e}"))?;
        let mut server = Server {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.addr.is_empty() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("retrodns-serve exited early: {status}"));
            }
            if Instant::now() > deadline {
                return Err("retrodns-serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_millis(10));
            server.addr = std::fs::read_to_string(&port_file).unwrap_or_default();
        }
        Ok(server)
    }

    fn submit(&self, spec: &str) -> Result<(), String> {
        let r = client::post(&self.addr, "/jobs", spec)?;
        if r.status == 202 {
            Ok(())
        } else {
            Err(format!("submit {spec}: {} {}", r.status, r.text()))
        }
    }

    fn status(&self, id: &str) -> Result<JobStatus, String> {
        client::get(&self.addr, &format!("/jobs/{id}"))?.json()
    }

    fn wait_done(&self, id: &str) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(150);
        loop {
            let s = self.status(id)?;
            match s.state {
                JobState::Done | JobState::Degraded => return Ok(()),
                JobState::Failed | JobState::Cancelled => {
                    return Err(format!("job {id} ended {:?}: {}", s.state, s.error))
                }
                _ if Instant::now() > deadline => return Err(format!("job {id} did not finish")),
                _ => std::thread::sleep(Duration::from_millis(20)),
            }
        }
    }

    /// Wait until job `id` has ingested a week; returns its week count.
    fn wait_streaming(&self, id: &str) -> Result<u32, String> {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let s = self.status(id)?;
            if s.weeks_done > 0 {
                return Ok(s.weeks_done);
            }
            if s.state.terminal() || Instant::now() > deadline {
                return Err(format!("job {id} did not start streaming ({:?})", s.state));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Graceful stop; a server that does not drain in time is killed.
    fn stop(mut self) -> Result<(), String> {
        let _ = client::post(&self.addr, "/shutdown", "");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(20))
                }
                _ => return Err("retrodns-serve did not drain; killed".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// What the clients expect from the finished job.
struct Expected {
    report: String,
    funnel: String,
    verdicts: BTreeMap<String, &'static str>,
    domains: Vec<String>,
}

impl Expected {
    fn of(report: &Report, domains: Vec<String>, ctx: &Ctx) -> Expected {
        let mut verdicts = BTreeMap::new();
        for d in &report.degraded {
            verdicts.insert(d.domain.to_string(), "degraded");
        }
        for t in &report.targeted {
            verdicts.insert(t.domain.to_string(), "targeted");
        }
        for h in &report.hijacked {
            verdicts.insert(h.domain.to_string(), "hijacked");
        }
        Expected {
            report: ctx.reference(serde_json::to_string_pretty(report).expect("report serializes")),
            funnel: serde_json::to_string(&report.funnel).expect("funnel serializes"),
            verdicts,
            domains,
        }
    }

    fn path(&self, route: Route, rng: &mut u64, cursor: Option<(u64, u64)>) -> String {
        match route {
            Route::Verdict => {
                let d = &self.domains[(next(rng) * self.domains.len() as f64) as usize];
                format!("/jobs/{DONE_JOB}/verdict/{d}")
            }
            Route::Funnel => format!("/jobs/{DONE_JOB}/funnel"),
            Route::Status => format!("/jobs/{WRITE_JOB}"),
            Route::Watch => match cursor {
                Some((since, epoch)) => format!("/watch?since={since}&epoch={epoch}"),
                None => "/watch?since=0".to_string(),
            },
            Route::Report => format!("/jobs/{DONE_JOB}/report"),
        }
    }

    /// Check one response; a watch reply advances the client's cursor.
    fn check(
        &self,
        route: Route,
        path: &str,
        r: &client::HttpResponse,
        cursor: &mut Option<(u64, u64)>,
    ) -> bool {
        if r.status != 200 {
            eprintln!(
                "serve-mixed: GET {path} answered {}: {}",
                r.status,
                r.text()
            );
            return false;
        }
        match route {
            Route::Verdict => {
                let domain = path.rsplit('/').next().unwrap_or_default();
                let want = self.verdicts.get(domain).copied().unwrap_or("clean");
                r.json::<VerdictReply>().is_ok_and(|v| v.verdict == want)
            }
            Route::Funnel => r.body == self.funnel.as_bytes(),
            Route::Report => r.body == self.report.as_bytes(),
            Route::Status => r.json::<JobStatus>().is_ok_and(|s| s.id == WRITE_JOB),
            Route::Watch => match r.json::<WatchReply>() {
                Ok(w) => {
                    *cursor = Some((w.latest, w.epoch));
                    true
                }
                Err(_) => false,
            },
        }
    }
}

/// The part of a `verdict/{domain}` reply the check reads.
#[derive(serde::Deserialize)]
struct VerdictReply {
    verdict: String,
}

/// The part of a `watch` reply the check reads: the next cursor.
#[derive(serde::Deserialize)]
struct WatchReply {
    latest: u64,
    epoch: u64,
}

/// A uniform draw in `[0, 1)` (splitmix64).
fn next(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (z ^ (z >> 31)) as f64 / (u64::MAX as f64 + 1.0)
}

/// One request as a client saw it.
struct Sample {
    route: Route,
    ms: f64,
    traced: bool,
    /// Completion time, seconds into the window.
    done_s: f64,
}

/// Run the workload.
pub fn run(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let domains = ctx.sizes.serve_domains;
    let root = ctx.work.join("serve");
    let inputs = prepare(ctx, Workload::ServeMixed, domains)?;
    let data_dir = std::fs::canonicalize(&inputs.dir).map_err(|e| e.to_string())?;
    let mut rep = 0;
    let server = setup(ctx, out, || {
        rep += 1;
        let job_root = root.join(format!("rep{rep}"));
        let _ = std::fs::remove_dir_all(&job_root);
        let first = Server::start(ctx, &job_root)?;
        first.submit(&job_spec(
            DONE_JOB,
            &data_dir,
            ctx.nproc,
            ctx.sizes.serve_weeks,
            0,
        ))?;
        first.wait_done(DONE_JOB)?;
        first.stop()?;
        // The measured server is a restart that recovers the finished
        // job from disk, so its memory holds the served report but not
        // the finished job's load and stream, whose freed memory the
        // allocator may or may not have returned to the kernel.
        Server::start(ctx, &job_root)
    })?;
    let expected = Arc::new(reference(ctx, &data_dir)?);

    // The finished job's report must be served byte-for-byte.
    let served = client::get(&server.addr, &format!("/jobs/{DONE_JOB}/report"))?;
    out.check(
        "serve-mixed: report route byte-identical to the in-process report",
        served.status == 200 && served.body == expected.report.as_bytes(),
    );

    // The window opens once the writing job streams; the server's peak
    // RSS covers its whole life: recovery, the writing job's load, and
    // the mixed window.
    server.submit(&job_spec(
        WRITE_JOB,
        &data_dir,
        1,
        0,
        ctx.sizes.serve_week_delay_ms,
    ))?;
    let weeks0 = server.wait_streaming(WRITE_JOB)?;
    let pid = server.child.id();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let trace = ctx.trace;
    let results: Vec<(Vec<Sample>, u64, u64, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|c| {
                let addr = server.addr.clone();
                let expected = Arc::clone(&expected);
                let seed = ctx.seed ^ ((c as u64 + 1) << 32);
                scope.spawn(move || client_loop(&addr, &expected, seed, deadline, trace, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let window_s = start.elapsed().as_secs_f64();
    let weeks1 = server.status(WRITE_JOB)?.weeks_done;
    let peak = sys::peak_rss_mb(Some(pid));
    server.stop()?;
    out.check(
        "serve-mixed: the writing job streamed weeks during the window",
        weeks1 > weeks0,
    );

    let mut tracer = Tracer::new(start);
    let mut all_ms = Vec::new();
    let n_slices = (window_s as usize).max(1);
    let width_s = window_s / n_slices as f64;
    let mut slices = vec![0usize; n_slices];
    let mut untraced_ms = Vec::new();
    let mut verdict_ms = Vec::new();
    for (samples, attempted, failed, client_tracer) in results {
        for i in 0..attempted {
            out.op(i >= failed);
        }
        for s in samples {
            all_ms.push(s.ms);
            slices[((s.done_s / width_s) as usize).min(n_slices - 1)] += 1;
            if !s.traced {
                untraced_ms.push(s.ms);
                if s.route == Route::Verdict {
                    verdict_ms.push(s.ms);
                }
            }
        }
        tracer.absorb(client_tracer);
    }
    if !ctx.trace {
        // The rate is a median over equal slices of about a second, so a
        // burst of interference on the shared machine moves one slice,
        // not the run's figure.
        let rate: Vec<f64> = slices.iter().map(|&n| n as f64 / width_s).collect();
        out.set("op_p50_ms", median(&all_ms));
        out.set("ops_per_s", median(&rate));
        out.set("peak_rss_mb", peak);
        return Ok(());
    }
    out.set_trace(&tracer);
    set_overhead(out, &untraced_ms);
    out.set("samples", all_ms.len() as f64);
    out.set("serve.query_p99_ms", quantile(&all_ms, 0.99));
    if weeks1 > weeks0 {
        let per_week = window_s * 1e3 / (weeks1 - weeks0) as f64;
        out.set(
            "serve.job_week_ms",
            per_week - ctx.sizes.serve_week_delay_ms as f64,
        );
    }
    let handle_us = handle_probe(ctx, &data_dir, &expected, out)?;
    for (route, us) in &handle_us {
        let name = format!("serve.handle_us.{}", &route.span()["serve.".len()..]);
        out.set(&name, *us);
    }
    out.set(
        "serve.wire_us",
        median(&verdict_ms) * 1e3 - handle_us[&Route::Verdict],
    );
    tracer
        .write_jsonl(
            &ctx.work
                .join("traces")
                .join(format!("serve-mixed-seed{}.jsonl", ctx.seed)),
        )
        .map_err(|e| format!("writing trace: {e}"))
}

fn job_spec(id: &str, data_dir: &Path, workers: usize, max_weeks: u32, delay_ms: u64) -> String {
    format!(
        "{{\"id\":\"{id}\",\"data_dir\":{},\"workers\":{workers},\"max_weeks\":{max_weeks},\"week_delay_ms\":{delay_ms}}}",
        serde_json::to_string(&data_dir.to_string_lossy().into_owned()).expect("path serializes")
    )
}

/// The finished job's report, computed in-process the way a job streams
/// it (same weeks, same configuration).
fn reference(ctx: &Ctx, data_dir: &Path) -> Result<Expected, String> {
    let corpus = Corpus::load(data_dir)?;
    let mut analyzer = IncrementalAnalyzer::new(PipelineConfig {
        workers: ctx.nproc,
        ..PipelineConfig::default()
    });
    let ai = corpus.inputs();
    for week in week_slices(&corpus.observations, ctx.sizes.serve_weeks as usize) {
        analyzer.ingest_week(&week, &ai);
    }
    let domains: BTreeSet<String> = corpus
        .observations
        .iter()
        .map(|o| o.domain.to_string())
        .collect();
    Ok(Expected::of(
        analyzer.report(),
        domains.into_iter().collect(),
        ctx,
    ))
}

/// One closed-loop client: request, check, repeat until `deadline`. In
/// a traced run every other request is traced (a `bench` root holding
/// the route's span), so traced and untraced requests share conditions.
/// Returns the samples, attempted and failed counts (failures counted
/// from the front) and the client's spans.
fn client_loop(
    addr: &str,
    expected: &Expected,
    seed: u64,
    deadline: Instant,
    trace: bool,
    origin: Instant,
) -> (Vec<Sample>, u64, u64, Tracer) {
    let mut rng = seed;
    let mut tracer = Tracer::new(origin);
    let mut cursor = None;
    let mut samples = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    while Instant::now() < deadline {
        let route = Route::pick(next(&mut rng));
        let path = expected.path(route, &mut rng, cursor);
        let traced = trace && attempted % 2 == 1;
        if traced {
            tracer.next_run();
        }
        let root = traced.then(|| tracer.open("bench"));
        let t = Instant::now();
        let span = traced.then(|| tracer.open(route.span()));
        let response = client::get(addr, &path);
        if let Some(id) = span {
            tracer.close(id);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let ok = match response {
            Ok(r) => expected.check(route, &path, &r, &mut cursor),
            Err(e) => {
                eprintln!("serve-mixed: GET {path}: {e}");
                false
            }
        };
        if let Some(id) = root {
            tracer.close(id);
        }
        attempted += 1;
        if !ok {
            failed += 1;
        }
        samples.push(Sample {
            route,
            ms,
            traced,
            done_s: origin.elapsed().as_secs_f64(),
        });
    }
    (samples, attempted, failed, tracer)
}

/// `AnalysisService::handle` on built requests, in-process, against a
/// service holding the same finished job: median µs per route.
fn handle_probe(
    ctx: &Ctx,
    data_dir: &Path,
    expected: &Expected,
    out: &mut Outcome,
) -> Result<BTreeMap<Route, f64>, String> {
    let root: PathBuf = ctx.work.join("serve").join("inproc");
    let _ = std::fs::remove_dir_all(&root);
    let handle = ServerHandle::start(ServeConfig {
        supervisor: SupervisorConfig {
            checkpoint_root: root,
            ..SupervisorConfig::default()
        },
        ..ServeConfig::default()
    })?;
    let service: Arc<AnalysisService> = Arc::clone(handle.service());
    let spec = job_spec(DONE_JOB, data_dir, ctx.nproc, ctx.sizes.serve_weeks, 0);
    let submitted = service.handle(&request("POST", "/jobs", spec.into_bytes()));
    if submitted.status != 202 {
        handle.shutdown();
        return Err(format!("in-process submit: {}", submitted.status));
    }
    let deadline = Instant::now() + Duration::from_secs(150);
    while !service
        .supervisor
        .status(DONE_JOB)
        .is_some_and(|s| matches!(s.state, JobState::Done | JobState::Degraded))
    {
        if Instant::now() > deadline {
            handle.shutdown();
            return Err("in-process job did not finish".into());
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let mut rng = ctx.seed;
    let mut result = BTreeMap::new();
    for (route, _) in Route::MIX {
        let mut us = Vec::new();
        let start = Instant::now();
        while us.len() < 20 || (start.elapsed() < Duration::from_millis(300) && us.len() < 2000) {
            let path = expected.path(route, &mut rng, None);
            let req = request("GET", &path, Vec::new());
            let t = Instant::now();
            let response = service.handle(&req);
            us.push(t.elapsed().as_secs_f64() * 1e6);
            if route == Route::Report {
                out.check(
                    "serve-mixed: in-process report byte-identical to the reference",
                    response.status == 200 && response.body == expected.report.as_bytes(),
                );
            }
        }
        result.insert(route, median(&us));
    }
    handle.shutdown();
    Ok(result)
}

/// A request as the HTTP layer would hand it to the service.
fn request(method: &str, target: &str, body: Vec<u8>) -> Request {
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect(),
        headers: BTreeMap::new(),
        body,
    }
}
