//! In-memory spans recorded from the benchmark's own files around each
//! call into a layer, and the self-time rule that turns them into
//! per-layer shares. Spans are only written out when the run ends.

use crate::json::Json;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one request share `trace`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `rbc.handle`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Request identifier (transaction or vertex index).
    pub trace: u64,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin.
    pub end_ns: u64,
    /// Work counted at this boundary (bytes framed, rounds advanced,
    /// messages emitted ...); 0 where the span counts nothing.
    pub count: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans against one monotonic origin.
pub struct Tracer {
    origin: Instant,
    /// Every span recorded so far; a span's id is its index.
    pub spans: Vec<Span>,
    /// Where the next attributed child of a parent starts: `(parent, ns)`.
    attributed_until: Option<(u32, u64)>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), attributed_until: None }
    }

    /// Nanoseconds since the origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trace: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span { name, parent, trace, start_ns, end_ns, count: 0 });
        (self.spans.len() - 1) as u32
    }

    /// Duration of a recorded span.
    pub fn duration_ns(&self, id: u32) -> u64 {
        self.spans[id as usize].duration_ns()
    }

    /// Sets the work count of a recorded span.
    pub fn set_count(&mut self, id: u32, count: u64) {
        self.spans[id as usize].count = count;
    }

    /// Opens a span whose end is set by [`Tracer::close`]; lets a root
    /// span exist before its children do.
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, trace: u64) -> u32 {
        let now = self.now_ns();
        self.record(name, parent, trace, now, now)
    }

    /// Ends a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span and returns its result and the span id.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        trace: u64,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now_ns();
        let result = f();
        let end = self.now_ns();
        (result, self.record(name, parent, trace, start, end))
    }

    /// Attributes `measured_ns` of work a layer does *inside* `parent`,
    /// where no call boundary is visible from outside, as a child span
    /// laid from the start of the parent's interval (consecutive
    /// attributions to one parent follow each other; all are clipped to
    /// it). The amount comes from repeating the hidden call on a shadow
    /// copy right after.
    pub fn attribute(&mut self, name: &'static str, parent: u32, measured_ns: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (trace, parent_end) = (p.trace, p.end_ns);
        let start = match self.attributed_until {
            Some((id, until)) if id == parent => until,
            _ => p.start_ns,
        };
        let end = (start + measured_ns).min(parent_end);
        self.attributed_until = Some((parent, end));
        self.record(name, Some(parent), trace, start, end)
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children are not subtracted
/// twice, and a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Mean duration of the spans called `name` (0 when there is none).
pub fn mean_duration_ns(spans: &[Span], name: &str) -> f64 {
    let (total, count) = spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0u64, 0u64), |(total, count), s| (total + s.duration_ns(), count + 1));
    total as f64 / (count as f64).max(1.0)
}

/// Sum of self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(name, _, _)| *name == span.name) {
            Some(entry) => {
                entry.1 += own;
                entry.2 += 1;
            }
            None => out.push((span.name, own, 1)),
        }
    }
    out
}

/// Writes the spans as one JSON document: a `names` table and one
/// `[id, parent, name, trace, start_ns, end_ns, count]` row per span
/// (parent is -1 for a root, name indexes `names`).
///
/// # Errors
///
/// Returns the I/O error message.
pub fn write_trace(path: &Path, meta: Json, spans: &[Span]) -> Result<(), String> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut rows = String::new();
    for (id, s) in spans.iter().enumerate() {
        let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
            names.push(s.name);
            names.len() - 1
        });
        let parent = s.parent.map_or(-1, i64::from);
        let sep = if id == 0 { "" } else { ",\n" };
        rows.push_str(&format!(
            "{sep}[{id},{parent},{name},{},{},{},{}]",
            s.trace, s.start_ns, s.end_ns, s.count
        ));
    }
    let names = Json::Arr(names.iter().map(|n| Json::str(n)).collect());
    let text = format!(
        "{{\"meta\": {},\n\"columns\": [\"id\",\"parent\",\"name\",\"trace\",\"start_ns\",\"end_ns\",\"count\"],\n\
         \"names\": {},\n\"spans\": [\n{rows}\n]}}\n",
        meta.compact(),
        names.compact(),
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, parent, trace: 0, start_ns, end_ns, count: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),       // sibling 1
            span("b", Some(0), 50, 70),       // sibling 2
            span("a.inner", Some(1), 15, 25), // nested under a
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("root", None, 100, 200),
            span("x", Some(0), 120, 160),
            span("y", Some(0), 150, 180), // overlaps x by 10
            span("z", Some(0), 190, 250), // hangs over the parent's end
            span("w", Some(0), 0, 50),    // entirely outside
        ];
        // Covered: [120,180) = 60, [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn attributed_children_are_clipped_to_the_parent() {
        let mut t = Tracer::new();
        let parent = t.record("rbc.handle", None, 7, 1_000, 1_500);
        t.attribute("dag.try_insert", parent, 200);
        t.attribute("crypto.sha256", parent, 100);
        assert_eq!((t.spans[1].start_ns, t.spans[1].end_ns), (1_000, 1_200));
        assert_eq!((t.spans[2].start_ns, t.spans[2].end_ns), (1_200, 1_300));
        assert_eq!(t.spans[1].trace, 7);
        assert_eq!(self_times(&t.spans)[0], 200);
        t.attribute("crypto.crc32", parent, 9_000);
        assert_eq!(t.spans[3].end_ns, 1_500);
        assert_eq!(self_times(&t.spans)[0], 0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = vec![
            span("root", None, 0, 10),
            span("leaf", Some(0), 0, 4),
            span("root", None, 10, 30),
            span("leaf", Some(2), 12, 18),
        ];
        assert_eq!(self_time_by_name(&spans), vec![("root", 20, 2), ("leaf", 10, 2)]);
        assert_eq!(mean_duration_ns(&spans, "root"), 15.0);
        assert_eq!(mean_duration_ns(&spans, "absent"), 0.0);
    }
}
