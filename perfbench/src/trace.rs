//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions. A disabled tracer records nothing, so the
//! untraced runs carry no spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to: the workspace crates, plus the
/// benchmark's own loop.
pub const LAYERS: [&str; 5] = ["bench", "stream", "graph", "core", "serve"];

const NO_PARENT: u32 = u32::MAX;

struct Span {
    layer: &'static str,
    name: &'static str,
    /// Shared by the spans of one batch or round.
    group: u64,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(u32);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, group: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { layer, name, group, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        Open(id)
    }

    pub fn end(&mut self, span: Open) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost first");
        self.spans[span.0 as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(layer, name, group);
        let r = f();
        self.end(open);
        r
    }

    /// Durations in ns of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Each layer's self time (span minus its children) as a share of
    /// the time covered by root spans.
    pub fn self_fractions(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
        let mut root_ns = 0u64;
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            *self_ns.entry(s.layer).or_default() += dur.saturating_sub(*children);
            if s.parent == NO_PARENT {
                root_ns += dur;
            }
        }
        self_ns.into_iter().map(|(l, ns)| (l, ns as f64 / root_ns.max(1) as f64)).collect()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tlayer\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT { "-".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.group, s.layer, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
