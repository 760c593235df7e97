//! In-memory span recorder for the traced run.
//!
//! One span per call the benchmark makes into a layer's public API:
//! name, start, end, parent (the span open when it began) and a request
//! id shared by every span of one admission request. Spans stay in
//! memory until the run ends; [`Tracer::write_tsv`] then dumps them and
//! [`Tracer::layers`] derives busy and self time per span name.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

/// Busy and self time of one span name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_s: f64,
    /// Busy time minus the time covered by child spans.
    pub self_s: f64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, req: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Busy and self time per span name, in name order.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, &c) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let l = out.entry(s.name).or_default();
            l.calls += 1;
            l.busy_s += dur as f64 * 1e-9;
            l.self_s += dur.saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one tab-separated line:
    /// `id parent name req start_ns end_ns` (parent `-` for roots).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\tname\treq\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let root = t.begin("root", 0);
        let child = t.begin("child", 1);
        std::thread::sleep(std::time::Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let layers = t.layers();
        let (r, c) = (layers["root"], layers["child"]);
        assert!(c.busy_s >= 0.005);
        assert!((r.busy_s - r.self_s - c.busy_s).abs() < 1e-9);
        assert!((c.busy_s - c.self_s).abs() < 1e-12);
    }
}
