//! `retrobench`: the repository benchmark.
//!
//! Drives the shipped binaries (`retrodns analyze`, `retrodns-serve`)
//! and the public functions of each module from outside the program,
//! over inputs generated from the workload seed. See `README.md` in
//! this directory for the workloads, the metrics and what each layer
//! metric should move.

pub mod calib;
pub mod catalogue;
pub mod inputs;
pub mod outcome;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;

use std::path::{Path, PathBuf};

pub use outcome::Outcome;
pub use workloads::Workload;

/// Input sizes and repetition counts of the workloads.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Domains in the `analyze-cold` and `resweep` corpus.
    pub batch_domains: usize,
    /// Domains in the `stream-durable` corpus.
    pub stream_domains: usize,
    /// Weeks streamed per `stream-durable` pass.
    pub stream_weeks: usize,
    /// Domains in the `serve-mixed` corpus.
    pub serve_domains: usize,
    /// Weeks of the finished `serve-mixed` job.
    pub serve_weeks: u32,
    /// Pacing of the `serve-mixed` writing job, per week (an assumption,
    /// like the route mix; see the README).
    pub serve_week_delay_ms: u64,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Sizes {
    /// The sizes the benchmark runs at.
    pub fn full() -> Sizes {
        Sizes {
            batch_domains: 2000,
            stream_domains: 600,
            stream_weeks: 104,
            serve_domains: 300,
            serve_weeks: 104,
            serve_week_delay_ms: 70,
            setup_reps: 3,
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Sizes {
        Sizes {
            batch_domains: 120,
            stream_domains: 120,
            stream_weeks: 30,
            serve_domains: 120,
            serve_weeks: 30,
            serve_week_delay_ms: 5,
            setup_reps: 2,
        }
    }
}

/// Generates a data directory: `(out, seed, domains)`.
pub type Generator = Box<dyn Fn(&Path, u64, usize) -> Result<(), String>>;

/// Everything one run needs.
pub struct Ctx {
    /// Workload seed: the only source of input variation.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Traced run (per-layer metrics) or untraced (end-to-end).
    pub trace: bool,
    /// Directory holding the `retrodns` and `retrodns-serve` binaries.
    pub bin_dir: PathBuf,
    /// Scratch directory: input cache, checkpoints, traces.
    pub work: PathBuf,
    /// Input sizes.
    pub sizes: Sizes,
    /// Worker count for the parallel layers (`wn`).
    pub nproc: usize,
    /// Makes the data directories.
    pub generator: Generator,
    /// Corrupt every reference before it is compared (tests only: shows
    /// that a mismatch raises `error_frac`).
    pub force_mismatch: bool,
}

impl Ctx {
    /// The cached data directory of `domains` domains for this seed.
    pub fn inputs(&self, domains: usize) -> Result<inputs::Inputs, String> {
        let generate = |out: &Path| (self.generator)(out, self.seed, domains);
        inputs::ensure(&self.work.join("inputs"), self.seed, domains, &generate)
    }

    /// A program binary from [`Ctx::bin_dir`].
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// A reference as the checks see it (see [`Ctx::force_mismatch`]).
    pub fn reference(&self, text: String) -> String {
        if self.force_mismatch {
            text + "\u{0}"
        } else {
            text
        }
    }
}

/// Run one workload and return what it measured, with its end-to-end
/// times read at the reference machine speed (see [`calib`]).
pub fn run(workload: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let mut calibration = calib::Calibration::default();
    calibration.take();
    let mut out = Outcome::default();
    out.set("nproc", ctx.nproc as f64);
    match workload {
        Workload::AnalyzeCold => workloads::analyze_cold::run(ctx, &mut out)?,
        Workload::Resweep => workloads::resweep::run(ctx, &mut out)?,
        Workload::StreamDurable => workloads::stream::run(ctx, &mut out)?,
        Workload::ServeMixed => workloads::serve::run(ctx, &mut out)?,
    }
    calibration.take();
    out.calibrate(&calibration);
    Ok(out)
}
