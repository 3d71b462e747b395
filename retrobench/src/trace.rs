//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans stay in memory while a run measures and are written out once
//! at the end. Each span carries its name, start and end (µs since the
//! tracer's origin), its parent span and a run id shared by the spans
//! of one traced pass (or one client's requests). A layer's self time
//! is its span's duration minus the time its child spans cover.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::mean;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (one of [`crate::catalogue::SPANS`]).
    pub name: &'static str,
    /// Start, µs since the tracer origin.
    pub start_us: f64,
    /// End, µs since the tracer origin.
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Pass this span belongs to.
    pub run: u32,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// A tracer timing from `origin`; tracers that will be merged share one.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
            run: 0,
        }
    }

    /// Start a new pass: later spans get a fresh run id.
    pub fn next_run(&mut self) {
        assert!(self.stack.is_empty(), "a pass ends with every span closed");
        self.run += 1;
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.origin.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost-first");
        self.spans[id].end_us = self.origin.elapsed().as_secs_f64() * 1e6;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Append another tracer's closed spans, keeping their runs distinct
    /// from this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.stack.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len();
        let run_base = self.run + 1;
        for mut s in other.spans {
            s.parent = s.parent.map(|p| p + base);
            s.run += run_base;
            self.run = self.run.max(s.run);
            self.spans.push(s);
        }
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: its self time per pass, in ms (the total over
    /// every pass divided by the number of passes; a pass without the
    /// span adds 0). When each pass is one root span, the self times of
    /// all names add up to [`Tracer::mean_root_ms`] of that root.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let runs: BTreeSet<u32> = self.spans.iter().map(|s| s.run).collect();
        let mut total: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *total.entry(s.name).or_insert(0.0) += s.ms() - child_ms[i];
        }
        let passes = runs.len().max(1) as f64;
        total.into_iter().map(|(n, ms)| (n, ms / passes)).collect()
    }

    /// Mean duration (ms) of the top-level spans named `name`.
    pub fn mean_root_ms(&self, name: &str) -> f64 {
        mean(&self.root_ms(name))
    }

    /// Durations (ms) of the top-level spans named `name`.
    pub fn root_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_us, s.end_us, s.run
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_absorb_keeps_runs_apart() {
        let origin = Instant::now();
        let mut t = Tracer::new(origin);
        let root = t.open("bench");
        t.time("data.load", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        t.close(root);
        let self_ms = t.self_ms();
        assert!(self_ms["data.load"] >= 19.0);
        assert!(self_ms["bench"] < self_ms["data.load"]);
        let total: f64 = self_ms.values().sum();
        assert!((total - t.root_ms("bench")[0]).abs() < 1e-6);

        let mut other = Tracer::new(origin);
        other.time("serve.verdict", || ());
        t.absorb(other);
        let runs: Vec<u32> = t.spans().iter().map(|s| s.run).collect();
        assert_eq!(runs[0], runs[1]);
        assert_ne!(runs[0], runs[2]);
        assert_eq!(t.spans()[2].parent, None);
    }

    #[test]
    fn self_times_of_passes_with_different_layers_add_up_to_the_mean_root() {
        let mut t = Tracer::new(Instant::now());
        let sleep = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        for (name, ms) in [
            ("serve.verdict", 2),
            ("serve.report", 12),
            ("serve.verdict", 4),
        ] {
            t.next_run();
            let root = t.open("bench");
            t.time(name, || sleep(ms));
            t.close(root);
        }
        let self_ms = t.self_ms();
        let total: f64 = self_ms.values().sum();
        assert!((total - t.mean_root_ms("bench")).abs() < 1e-6);
        assert!(self_ms["serve.report"] >= 4.0 && self_ms["serve.verdict"] >= 2.0);
    }
}
