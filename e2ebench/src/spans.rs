//! Benchmark-side spans: the traced run wraps each public layer call in a
//! span recorded here. Nothing inside the program is instrumented.
//!
//! Spans are kept in memory and written out once, when the run ends. Each
//! records its name, start, end, parent span and the repetition (`group`)
//! it belongs to. Spans opened on the benchmark's own thread nest through
//! [`Recorder::enter`]; calls the program makes on its worker threads (an
//! endpoint scan inside a federated dispatch) are recorded with
//! [`Recorder::leaf`] under whichever span the benchmark thread has open.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id (≥ 1).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `linking.paris`.
    pub name: &'static str,
    /// The repetition (setup pass or timed unit) this span belongs to.
    pub group: u64,
    /// Start, ns since epoch.
    pub start_ns: u64,
    /// End, ns since epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An open span handle returned by [`Recorder::enter`].
#[must_use = "close the span with Recorder::exit"]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

/// In-memory span sink shared by the benchmark's wrappers.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    /// Innermost span open on the benchmark thread (0 = none). Worker-thread
    /// leaves read it to find their parent; they only run while the
    /// benchmark thread blocks inside that span, so no finer ordering than
    /// the dispatch's own synchronisation is needed.
    current: AtomicU64,
    group: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            current: AtomicU64::new(0),
            group: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Start a new repetition; spans recorded from now on carry `group`.
    pub fn set_group(&self, group: u64) {
        self.group.store(group, Ordering::Relaxed);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span on the benchmark thread, nested under the current one.
    pub fn enter(&self, name: &'static str) -> Open {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.swap(id, Ordering::SeqCst);
        Open {
            id,
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Close a span opened with [`Recorder::enter`].
    pub fn exit(&self, open: Open) {
        let end = Instant::now();
        self.current.store(open.parent, Ordering::SeqCst);
        self.push(Span {
            id: open.id,
            parent: (open.parent != 0).then_some(open.parent),
            name: open.name,
            group: self.group.load(Ordering::Relaxed),
            start_ns: self.ns(open.start),
            end_ns: self.ns(end),
        });
    }

    /// Record a finished call made on any thread, as a child of the span
    /// the benchmark thread has open.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = self.current.load(Ordering::SeqCst);
        self.push(Span {
            id,
            parent: (parent != 0).then_some(parent),
            name,
            group: self.group.load(Ordering::Relaxed),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking wrapper")
            .push(span);
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span sink poisoned by a panicking wrapper")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers (children may overlap when they
/// ran on parallel workers). Returned in span order, in nanoseconds.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
                .unwrap_or(0);
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        run = match run {
            Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
            Some((ra, rb)) => {
                total += rb - ra;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ra, rb)) = run {
        total += rb - ra;
    }
    total
}

/// Per-group self time of spans named `name`, in seconds: one value per
/// group in which the name occurs.
pub fn self_seconds_by_group(spans: &[Span], self_ns: &[u64], name: &str) -> Vec<f64> {
    let mut by_group: BTreeMap<u64, u64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(self_ns) {
        if s.name == name {
            *by_group.entry(s.group).or_default() += ns;
        }
    }
    by_group.values().map(|&ns| ns as f64 / 1e9).collect()
}

/// Render spans as JSON lines. Consecutive spans with the same name,
/// parent and group — the many per-item calls of a feedback loop — are
/// written as one record with their `count` and summed `busy_ns`, from the
/// first one's start to the last one's end; a lone span has `count` 1.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < spans.len() {
        let first = &spans[i];
        let mut j = i;
        let mut busy = 0;
        while j < spans.len()
            && spans[j].name == first.name
            && spans[j].parent == first.parent
            && spans[j].group == first.group
        {
            busy += spans[j].duration_ns();
            j += 1;
        }
        let parent = first
            .parent
            .map(|p| p.to_string())
            .unwrap_or_else(|| "null".into());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"group\":{},\"start_ns\":{},\"end_ns\":{},\"count\":{},\"busy_ns\":{}}}\n",
            first.id,
            parent,
            first.name,
            first.group,
            first.start_ns,
            spans[j - 1].end_ns,
            j - i,
            busy
        ));
        i = j;
    }
    out
}
