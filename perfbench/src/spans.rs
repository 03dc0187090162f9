//! In-memory spans for the traced run: name, start, end, the span that
//! caused it, and the iteration (request) it belongs to. Spans are kept
//! in memory and written out once, when the run ends.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    iteration: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans around calls into the measured layers.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: Cell<Option<usize>>,
    iteration: Cell<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: Cell::new(None),
            iteration: Cell::new(0),
        }
    }

    /// Tags the spans recorded from now on with `iteration`.
    pub fn set_iteration(&self, iteration: usize) {
        self.iteration.set(iteration);
    }

    /// Runs `f` inside a span called `name`, a child of the span open
    /// around this call (if any).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                iteration: self.iteration.get(),
                parent: self.open.get(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let parent = self.open.replace(Some(id));
        let out = f();
        self.open.set(parent);
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn seconds(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The median duration in seconds of the spans called `name`.
    pub fn median_s(&self, name: &str) -> f64 {
        crate::median(&self.seconds(name))
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"iteration\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.iteration, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    /// Writes the spans to `.perfbench/<workload>-seed<seed>.spans.jsonl`
    /// under the working directory. Failure to write loses only the
    /// span log, not the result, so it is reported and ignored.
    pub fn save(&self, workload: &str, seed: u64) {
        let path =
            std::path::Path::new(".perfbench").join(format!("{workload}-seed{seed}.spans.jsonl"));
        let written = std::fs::create_dir_all(".perfbench")
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                self.write_jsonl(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent() {
        let tracer = Tracer::new();
        tracer.set_iteration(4);
        let v = tracer.span("outer", || tracer.span("inner", || 7));
        assert_eq!(v, 7);
        assert_eq!(tracer.seconds("inner").len(), 1);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].contains("\"name\": \"outer\", \"iteration\": 4, \"parent\": null"));
        assert!(lines[1].contains("\"name\": \"inner\", \"iteration\": 4, \"parent\": 0"));
    }
}
