//! Timing wrappers around the program's public trait objects.
//!
//! The traced run swaps each `Box<dyn Endpoint>`, the `FeedbackSource` and
//! the `Store` for one of these. The untraced run wraps no store and keeps
//! the clock off except where an end-to-end metric needs it, the
//! interactive source's answer waits; there the wrappers only count
//! (endpoint calls, feedback steps). Every wrapper forwards
//! each trait method to the wrapped object unchanged — including the
//! methods with default bodies — so the program's outputs stay
//! byte-identical (checked by the self-tests); a wrapper only counts calls
//! and reads the clock around them.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alex::core::candidates::CandidateSet;
use alex::core::{Feedback, FeedbackItem, FeedbackSource, LinkSpace, PairId};
use alex::sparql::{Deadline, Endpoint, EndpointError, Value};
use alex::store::{Store, StoreError};

use crate::spans::Recorder;

fn ns_between(start: Instant, end: Instant) -> u64 {
    end.saturating_duration_since(start).as_nanos() as u64
}

/// What the endpoint wrappers of one engine observed, shared across the
/// federation pool's worker threads.
#[derive(Default)]
pub struct EndpointProbe {
    timed: bool,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    call_ns: Mutex<Vec<u64>>,
}

impl EndpointProbe {
    /// A probe that only counts calls.
    pub fn counting() -> Self {
        EndpointProbe::default()
    }

    /// A probe that counts and times calls.
    pub fn timing() -> Self {
        EndpointProbe {
            timed: true,
            ..EndpointProbe::default()
        }
    }

    /// Endpoint calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::SeqCst)
    }

    /// Summed endpoint call time so far, ns.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::SeqCst)
    }

    /// Every call's duration, ns.
    pub fn call_ns(&self) -> Vec<u64> {
        self.call_ns
            .lock()
            .expect("endpoint probe poisoned by a panicking call")
            .clone()
    }

    fn note(&self, start: Instant, end: Instant) {
        let ns = ns_between(start, end);
        self.busy_ns.fetch_add(ns, Ordering::SeqCst);
        self.call_ns
            .lock()
            .expect("endpoint probe poisoned by a panicking call")
            .push(ns);
    }
}

/// Counts, and with a timing probe times, every call into a wrapped
/// endpoint.
pub struct TimedEndpoint {
    inner: Box<dyn Endpoint>,
    probe: Arc<EndpointProbe>,
    recorder: Option<Arc<Recorder>>,
}

impl TimedEndpoint {
    /// Wrap `inner`, reporting into `probe` and, when given, `recorder`.
    pub fn new(
        inner: Box<dyn Endpoint>,
        probe: Arc<EndpointProbe>,
        recorder: Option<Arc<Recorder>>,
    ) -> Self {
        TimedEndpoint {
            inner,
            probe,
            recorder,
        }
    }

    fn timed<R>(&self, call: impl FnOnce() -> R) -> R {
        self.probe.calls.fetch_add(1, Ordering::SeqCst);
        if !self.probe.timed {
            return call();
        }
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.probe.note(start, end);
        if let Some(rec) = &self.recorder {
            rec.leaf("sparql.endpoint", start, end);
        }
        out
    }
}

impl Endpoint for TimedEndpoint {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn matching(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<Vec<[Value; 3]>, EndpointError> {
        self.timed(|| self.inner.matching(s, p, o, deadline))
    }

    fn has_matches(
        &self,
        s: Option<&Value>,
        p: Option<&Value>,
        o: Option<&Value>,
        deadline: &Deadline,
    ) -> Result<bool, EndpointError> {
        self.timed(|| self.inner.has_matches(s, p, o, deadline))
    }
}

/// What a [`TimedSource`] observed.
#[derive(Debug, Default, Clone)]
pub struct SourceProbe {
    /// Duration of the `next_item` calls during which an endpoint was
    /// called: the wait for the next judgeable answer, ns.
    pub answer_ns: Vec<u64>,
    /// Agent time between consecutive `next_item` calls of one episode
    /// (from one call's return to the next call's start), ns.
    pub step_gap_ns: Vec<u64>,
    /// Items delivered.
    pub items: u64,
}

/// Counts the items of a wrapped feedback source and, when timing, times
/// every `next_item` call and the agent work between consecutive calls.
pub struct TimedSource<'a> {
    inner: &'a mut dyn FeedbackSource,
    timed: bool,
    endpoints: Option<Arc<EndpointProbe>>,
    recorder: Option<Arc<Recorder>>,
    last_return: Option<Instant>,
    /// What was observed.
    pub probe: SourceProbe,
}

impl<'a> TimedSource<'a> {
    /// Wrap `inner`, timing calls when `timed`. `endpoints` (the probe of
    /// the engine the source queries, if any) tells answer waits apart
    /// from locally served items.
    pub fn new(
        inner: &'a mut dyn FeedbackSource,
        timed: bool,
        endpoints: Option<Arc<EndpointProbe>>,
        recorder: Option<Arc<Recorder>>,
    ) -> Self {
        TimedSource {
            inner,
            timed,
            endpoints,
            recorder,
            last_return: None,
            probe: SourceProbe::default(),
        }
    }
}

impl FeedbackSource for TimedSource<'_> {
    fn next(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<(PairId, Feedback)> {
        self.next_item(candidates, space)
            .map(|item| (item.state, item.feedback))
    }

    fn next_item(&mut self, candidates: &CandidateSet, space: &LinkSpace) -> Option<FeedbackItem> {
        if !self.timed {
            let item = self.inner.next_item(candidates, space);
            self.probe.items += u64::from(item.is_some());
            return item;
        }
        let calls_before = self.endpoints.as_ref().map(|e| e.calls());
        let open = self
            .recorder
            .as_ref()
            .map(|r| r.enter("feedback.next_item"));
        let start = Instant::now();
        let item = self.inner.next_item(candidates, space);
        let end = Instant::now();
        if let (Some(rec), Some(open)) = (&self.recorder, open) {
            rec.exit(open);
        }
        if let Some(prev) = self.last_return {
            self.probe.step_gap_ns.push(ns_between(prev, start));
        }
        if let (Some(e), Some(before)) = (&self.endpoints, calls_before) {
            if e.calls() > before {
                self.probe.answer_ns.push(ns_between(start, end));
            }
        }
        if item.is_some() {
            self.probe.items += 1;
        }
        self.last_return = Some(Instant::now());
        item
    }

    fn take_degraded(&mut self) -> usize {
        // The agent calls this once at the end of every episode: the next
        // gap spans policy improvement and the driver's bookkeeping, not a
        // feedback step, so it is not measured.
        self.last_return = None;
        self.inner.take_degraded()
    }

    fn durable_state(&self) -> Option<Vec<u8>> {
        self.inner.durable_state()
    }

    fn restore_durable_state(&mut self, state: &[u8]) -> Result<(), String> {
        self.inner.restore_durable_state(state)
    }
}

/// What a [`TimedStore`] observed.
#[derive(Debug, Default, Clone)]
pub struct StoreProbe {
    /// Duration of every journal append, ns.
    pub append_ns: Vec<u64>,
    /// Duration of every snapshot write, ns.
    pub snapshot_ns: Vec<u64>,
    /// Payload bytes handed to the store.
    pub bytes: u64,
}

/// Times every call into a wrapped store and counts the bytes handed to it.
pub struct TimedStore<S: Store> {
    inner: S,
    recorder: Arc<Recorder>,
    /// What was observed.
    pub probe: StoreProbe,
}

impl<S: Store> TimedStore<S> {
    /// Wrap `inner`, recording a span per call into `recorder`.
    pub fn new(inner: S, recorder: Arc<Recorder>) -> Self {
        TimedStore {
            inner,
            recorder,
            probe: StoreProbe::default(),
        }
    }

    fn timed<R>(&mut self, name: &'static str, call: impl FnOnce(&mut S) -> R) -> (R, u64) {
        let open = self.recorder.enter(name);
        let start = Instant::now();
        let out = call(&mut self.inner);
        let ns = ns_between(start, Instant::now());
        self.recorder.exit(open);
        (out, ns)
    }
}

impl<S: Store> Store for TimedStore<S> {
    fn append_episode(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let (out, ns) = self.timed("store.append", |s| s.append_episode(seq, payload));
        self.probe.append_ns.push(ns);
        self.probe.bytes += payload.len() as u64;
        out
    }

    fn write_snapshot(&mut self, seq: u64, payload: &[u8]) -> Result<(), StoreError> {
        let (out, ns) = self.timed("store.snapshot", |s| s.write_snapshot(seq, payload));
        self.probe.snapshot_ns.push(ns);
        self.probe.bytes += payload.len() as u64;
        out
    }

    fn dir(&self) -> &Path {
        self.inner.dir()
    }
}
