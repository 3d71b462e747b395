//! Benchmark entry point.
//!
//! ```text
//! retrobench --workload NAME --seed N --seconds S --trace 0|1 --bin-dir DIR --work-dir DIR
//! retrobench gen --out DIR --seed N --domains N
//! ```
//!
//! The first form runs one workload and prints, as its last stdout line,
//! `{"correct", "attempted", "failed", "metrics"}`; it exits 1 when an
//! output check failed and 2 (printing no result) when the run could not
//! complete. The second form writes one data directory; runs call it as
//! a child process so world generation never shares memory with the
//! measured process. `run.sh` builds everything and supplies the
//! directories.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use retrobench::{inputs, sys, Ctx, Sizes, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("gen") {
        gen(&args[1..])
    } else {
        bench(&args)
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("retrobench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs into a lookup.
fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == name {
            return it
                .next()
                .map(String::as_str)
                .ok_or(format!("{name} needs a value"));
        }
    }
    Err(format!("missing {name}"))
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str) -> Result<T, String> {
    let v = flag(args, name)?;
    v.parse().map_err(|_| format!("{name}: bad value {v:?}"))
}

fn gen(args: &[String]) -> Result<ExitCode, String> {
    let out = PathBuf::from(flag(args, "--out")?);
    inputs::generate(&out, parse(args, "--seed")?, parse(args, "--domains")?)?;
    Ok(ExitCode::SUCCESS)
}

fn bench(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name:?}"))?;
    let seconds: f64 = parse(args, "--seconds")?;
    let trace = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
    };
    let bin_dir = PathBuf::from(flag(args, "--bin-dir")?);
    for bin in ["retrodns", "retrodns-serve"] {
        if !bin_dir.join(bin).is_file() {
            return Err(format!(
                "{} not found; build with run.sh",
                bin_dir.join(bin).display()
            ));
        }
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let ctx = Ctx {
        seed: parse(args, "--seed")?,
        seconds,
        trace,
        bin_dir,
        work: PathBuf::from(flag(args, "--work-dir")?),
        sizes: Sizes::full(),
        nproc: sys::nproc(),
        generator: Box::new(move |out: &Path, seed: u64, domains: usize| {
            let status = Command::new(&exe)
                .args(["gen", "--out"])
                .arg(out)
                .args([
                    "--seed",
                    &seed.to_string(),
                    "--domains",
                    &domains.to_string(),
                ])
                .status()
                .map_err(|e| format!("spawn generator: {e}"))?;
            if status.success() {
                Ok(())
            } else {
                Err(format!("generator exited with {status}"))
            }
        }),
        force_mismatch: false,
    };
    let outcome = retrobench::run(workload, &ctx)?;
    println!("{}", outcome.result_line(trace)?);
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
