//! Spans recorded from the benchmark's side of each call into a layer: kept
//! in memory while the pass runs, written out as JSON lines when it ends.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_s: f64,
    end_s: f64,
}

/// All spans of one traced pass; the workload is the parent of each.
pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Tracer {
        Tracer { workload, origin: Instant::now(), spans: Vec::new() }
    }

    /// Run `f` inside a span called `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_s = self.origin.elapsed().as_secs_f64();
        let out = f();
        self.spans.push(Span { name, start_s, end_s: self.origin.elapsed().as_secs_f64() });
        out
    }

    /// Total duration of the spans called `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum()
    }

    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                r#"{{"name": "{}", "start_s": {}, "end_s": {}, "parent": "{}"}}"#,
                s.name, s.start_s, s.end_s, self.workload
            )?;
        }
        w.flush()
    }
}
