//! Process-level probes: peak resident memory, directory sizes, core count.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Cores available to this process (`nproc`).
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `kB` field of `/proc/<pid>/status` (`pid = None` means this process).
pub fn status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// Peak resident set size in MB (`VmHWM`), or 0 when unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    status_kb(pid, "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Reset a process's peak-RSS watermark to its current RSS, so a later
/// [`peak_rss_mb`] covers only what happens after this call (Linux
/// `clear_refs` command 5). Best effort: ignored where unsupported.
pub fn reset_peak_rss(pid: Option<u32>) {
    let path = match pid {
        Some(p) => format!("/proc/{p}/clear_refs"),
        None => "/proc/self/clear_refs".to_string(),
    };
    let _ = std::fs::write(path, "5");
}

/// Total bytes of the regular files under `dir` (0 if it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// What a child process left behind.
pub struct ChildRun {
    /// Exit status.
    pub status: ExitStatus,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
    /// Wall time from spawn to exit.
    pub wall: Duration,
    /// Highest `VmHWM` seen while it ran, in MB.
    pub peak_rss_mb: f64,
}

/// Run `cmd` to completion with stdout captured and stderr discarded,
/// sampling the child's peak RSS every few milliseconds until it exits
/// (the watermark is monotone, so the last sample before exit is the
/// peak of all but the final few milliseconds).
pub fn run_child(cmd: &mut Command) -> Result<ChildRun, String> {
    let start = Instant::now();
    let mut child: Child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn {cmd:?}: {e}"))?;
    let pid = child.id();
    let mut out = child.stdout.take().expect("stdout is piped");
    let reader = thread::spawn(move || {
        let mut buf = Vec::new();
        out.read_to_end(&mut buf).map(|_| buf)
    });
    let mut peak = 0.0f64;
    let status = loop {
        peak = peak.max(peak_rss_mb(Some(pid)));
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => thread::sleep(Duration::from_millis(5)),
            Err(e) => return Err(format!("wait {cmd:?}: {e}")),
        }
    };
    let wall = start.elapsed();
    let stdout = reader
        .join()
        .expect("stdout reader thread panicked")
        .map_err(|e| format!("read stdout of {cmd:?}: {e}"))?;
    Ok(ChildRun {
        status,
        stdout,
        wall,
        peak_rss_mb: peak,
    })
}
