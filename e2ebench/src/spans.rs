//! In-memory span recorder for the traced run.
//!
//! Spans are placed from the benchmark's own code around each call into a
//! layer's public functions; nothing inside the simulator is
//! instrumented. Each span records its name, start, end, parent and the
//! run id. The spans are kept in memory and written out once at exit, and
//! a layer's self time is its duration minus the part of that interval
//! its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Handle of an open or closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call name, e.g. `core.run_block.m3`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch (equal to `start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Run id shared by every span of one traced round.
    pub run: u64,
}

/// Thread-safe span sink.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    run: u64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose spans carry `run` as their run id.
    pub fn new(run: u64) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            run,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A panic while holding the lock leaves a valid vector: every
        // update is a single push or a single field store.
        self.spans.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Open a span named `name` under `parent`.
    pub fn start(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let t = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent: parent.map(|p| p.0),
            run: self.run,
        });
        SpanId(spans.len() - 1)
    }

    /// Close `id`.
    pub fn end(&self, id: SpanId) {
        let t = self.now_ns();
        if let Some(s) = self.lock().get_mut(id.0) {
            s.end_ns = t;
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = self.start(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it. Children may overlap when they
/// ran on different threads; the union counts shared time once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (ps, pe) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.max(ps), s.end_ns.min(pe));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.end_ns - s.start_ns;
        e.2 += own;
    }
    out
}

/// Durations in ns of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.end_ns - s.start_ns)
        .collect()
}

/// Write `spans` as JSON lines with their self times.
pub fn write_jsonl(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"run\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{own}}}",
            s.run, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            run: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            // Overlaps `a` (another thread): shared time counts once.
            span("b", 20, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            // Grandchild: covers part of `c`, not of `root`.
            span("d", 72, 75, Some(3)),
            // Sticks out past its parent: only the inside part counts.
            span("e", 90, 130, Some(0)),
        ];
        let own = self_times(&spans);
        // root: 100 - ([10,50] + [70,80] + [90,100]) = 100 - 60.
        assert_eq!(own, vec![40, 20, 30, 7, 3, 40]);
        let totals = by_name(&spans);
        assert_eq!(totals["root"], (1, 100, 40));
        assert_eq!(durations(&spans, "c"), vec![10]);
    }

    #[test]
    fn touching_children_and_open_spans() {
        let spans = vec![
            span("p", 0, 10, None),
            span("x", 0, 5, Some(0)),
            span("y", 5, 10, Some(0)),
            span("open", 4, 4, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![0, 5, 5, 0]);
    }

    #[test]
    fn recorder_nests_and_closes() {
        let rec = Recorder::new(9);
        let v = rec.span("outer", None, |o| rec.span("inner", Some(o), |_| 5));
        assert_eq!(v, 5);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 9 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
