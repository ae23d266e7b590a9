//! Spans the benchmark records around its own calls into each layer
//! (traced legs only). They stay in memory and are written out as
//! JSONL when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call: `parent` is the span that caused it, and spans of
/// one request share `req`.
#[derive(Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span log with a common epoch.
#[derive(Debug)]
pub struct Spans {
    pub epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans { epoch, spans: Vec::new() }
    }

    /// Nanoseconds from the epoch to `t` (0 if `t` precedes it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        req: u64,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, req, name, start_ns, end_ns });
        id
    }

    /// Records a span from `start` to now.
    pub fn close(
        &mut self,
        req: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
    ) -> u64 {
        let (s, e) = (self.ns(start), self.ns(Instant::now()));
        self.push(req, parent, name, s, e)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
