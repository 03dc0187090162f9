//! The streaming seam of the offline pipeline: [`EventSource`].
//!
//! Every consumer below the trace layer — detectors, the RAPID-style
//! offline runner, the CLI — drives an `EventSource` rather than a
//! materialized [`Trace`]. A source yields events one at a time
//! (fallibly: parse errors, I/O errors, discipline violations surface
//! mid-stream) and exposes the entity metadata a consumer needs to
//! pre-size state and render reports: declared/observed thread counts
//! and the lock/variable name tables *as interned so far*.
//!
//! Implementations in this crate:
//!
//! * [`TraceSource`] — a cursor over a materialized [`Trace`]
//!   (infallible; metadata complete from the start).
//! * [`EventReader`](crate::EventReader) — the streaming text parser.
//! * [`BinaryEventReader`](crate::BinaryEventReader) — the streaming
//!   binary (`.ftb`) decoder.
//! * [`Validated`] — a wrapper enforcing the locking discipline on the
//!   fly, in `O(L)` memory.
//!
//! [`Trace::from_source`] materializes any source back into a `Trace`,
//! and is the one place the identity guarantees of the text and binary
//! formats are anchored: `from_source(reader(write(t))) == t`.

use std::borrow::Borrow;
use std::collections::HashMap;

use crate::trace::DisciplineChecker;
use crate::{Event, EventId, ParseTraceError, Trace, ValidateTraceError};

/// A fallible stream of trace events plus the entity metadata known so
/// far.
///
/// The metadata methods report the state *after* the events yielded so
/// far: streaming readers intern names and observe threads as the input
/// is consumed, so `lock_count()`/`var_count()`/`observed_threads()`
/// grow over the life of the stream and are complete once
/// [`next_event`](EventSource::next_event) has returned `Ok(None)`.
/// Materialized sources ([`TraceSource`]) expose complete metadata from
/// the start.
///
/// The trait is object-safe: detectors accept `&mut dyn EventSource`,
/// which is how [`Trace`], readers, and workload generators all feed the
/// same analysis loop.
pub trait EventSource {
    /// Pulls the next event; `Ok(None)` marks the end of the stream.
    ///
    /// # Errors
    ///
    /// Returns the first malformed input (parse error, truncated binary
    /// record, I/O failure, or — for [`Validated`] — a locking
    /// discipline violation). After an error the stream is poisoned;
    /// further calls may return `Ok(None)`.
    fn next_event(&mut self) -> Result<Option<Event>, SourceError>;

    /// The thread count declared by headers (`#!` lines / binary thread
    /// records) seen so far; 0 when the input carries no declaration.
    fn declared_threads(&self) -> u32;

    /// One past the highest thread id observed so far (event threads
    /// and fork/join children both count, matching
    /// [`TraceBuilder`](crate::TraceBuilder)).
    fn observed_threads(&self) -> u32;

    /// Number of distinct locks interned so far (including fork/join
    /// token locks).
    fn lock_count(&self) -> usize;

    /// Number of distinct variables interned so far.
    fn var_count(&self) -> usize;

    /// The display name of a lock already interned.
    ///
    /// # Panics
    ///
    /// May panic if `index >= self.lock_count()`.
    fn lock_name(&self, index: usize) -> &str;

    /// The display name of a variable already interned.
    ///
    /// # Panics
    ///
    /// May panic if `index >= self.var_count()`.
    fn var_name(&self, index: usize) -> &str;

    /// The effective thread count: declared or observed, whichever is
    /// larger — the same rule [`TraceBuilder`](crate::TraceBuilder)
    /// applies.
    fn threads(&self) -> u32 {
        self.declared_threads().max(self.observed_threads())
    }

    /// Remaining events, when the source knows (materialized traces
    /// do; streaming readers return `None`). Used to pre-size buffers.
    fn remaining_hint(&self) -> Option<usize> {
        None
    }
}

/// Forwarding impls so `Box<dyn EventSource>` (and `&mut S`) are
/// themselves sources — consumers that pick an input representation at
/// runtime (the CLI's text/binary/stdin auto-detection) can return a
/// boxed source instead of hand-writing a delegating enum.
impl<S: EventSource + ?Sized> EventSource for Box<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        (**self).next_event()
    }

    fn declared_threads(&self) -> u32 {
        (**self).declared_threads()
    }

    fn observed_threads(&self) -> u32 {
        (**self).observed_threads()
    }

    fn lock_count(&self) -> usize {
        (**self).lock_count()
    }

    fn var_count(&self) -> usize {
        (**self).var_count()
    }

    fn lock_name(&self, index: usize) -> &str {
        (**self).lock_name(index)
    }

    fn var_name(&self, index: usize) -> &str {
        (**self).var_name(index)
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

impl<S: EventSource + ?Sized> EventSource for &mut S {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        (**self).next_event()
    }

    fn declared_threads(&self) -> u32 {
        (**self).declared_threads()
    }

    fn observed_threads(&self) -> u32 {
        (**self).observed_threads()
    }

    fn lock_count(&self) -> usize {
        (**self).lock_count()
    }

    fn var_count(&self) -> usize {
        (**self).var_count()
    }

    fn lock_name(&self, index: usize) -> &str {
        (**self).lock_name(index)
    }

    fn var_name(&self, index: usize) -> &str {
        (**self).var_name(index)
    }

    fn remaining_hint(&self) -> Option<usize> {
        (**self).remaining_hint()
    }
}

/// An error surfaced while pulling events from an [`EventSource`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SourceError {
    /// A malformed line in the text format (or an I/O failure, which
    /// the text reader reports at its line).
    Parse(ParseTraceError),
    /// A malformed record in the binary format (or an I/O failure at
    /// its byte offset).
    Binary(crate::BinaryTraceError),
    /// A locking-discipline violation found by [`Validated`].
    Discipline(ValidateTraceError),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Parse(e) => write!(f, "{e}"),
            SourceError::Binary(e) => write!(f, "{e}"),
            SourceError::Discipline(e) => write!(f, "invalid trace: {e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<ParseTraceError> for SourceError {
    fn from(e: ParseTraceError) -> Self {
        SourceError::Parse(e)
    }
}

impl From<crate::BinaryTraceError> for SourceError {
    fn from(e: crate::BinaryTraceError) -> Self {
        SourceError::Binary(e)
    }
}

impl From<ValidateTraceError> for SourceError {
    fn from(e: ValidateTraceError) -> Self {
        SourceError::Discipline(e)
    }
}

/// A cursor over a materialized [`Trace`] — the `EventSource` view every
/// in-memory trace provides.
///
/// Metadata is complete from the start (the trace's own tables), and
/// iteration is infallible: [`next_event`](EventSource::next_event)
/// never returns `Err`.
#[derive(Clone, Debug)]
pub struct TraceSource<T: Borrow<Trace>> {
    trace: T,
    pos: usize,
}

impl<T: Borrow<Trace>> TraceSource<T> {
    fn trace(&self) -> &Trace {
        self.trace.borrow()
    }
}

impl Trace {
    /// A borrowing [`EventSource`] over this trace.
    pub fn source(&self) -> TraceSource<&Trace> {
        TraceSource {
            trace: self,
            pos: 0,
        }
    }

    /// An owning [`EventSource`], for handing a generated trace to a
    /// streaming consumer.
    pub fn into_source(self) -> TraceSource<Trace> {
        TraceSource {
            trace: self,
            pos: 0,
        }
    }

    /// Materializes any [`EventSource`] into a `Trace`, draining it to
    /// the end.
    ///
    /// The resulting trace carries the source's final name tables and
    /// thread count (declared or observed, whichever is larger) — the
    /// same rule [`TraceBuilder`](crate::TraceBuilder) applies — which
    /// is what makes `from_source(reader(write(t))) == t` an identity
    /// for both trace formats.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports.
    pub fn from_source<S: EventSource + ?Sized>(source: &mut S) -> Result<Trace, SourceError> {
        match Trace::from_source_limited(source, usize::MAX)? {
            Some(trace) => Ok(trace),
            None => unreachable!("no trace exceeds usize::MAX events"),
        }
    }

    /// Materializes a source like [`Trace::from_source`], but gives up
    /// with `Ok(None)` as soon as the stream exceeds `limit` events —
    /// **before** buffering more than `limit + 1` of them.
    ///
    /// This is the bounded-memory guard for consumers with superlinear
    /// cost in the trace length (the CLI's O(N²)-memory `oracle`): a cap
    /// checked after materialization would OOM on the oversized input it
    /// exists to reject.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source reports (checked before
    /// the limit: a malformed oversized input is malformed, not merely
    /// oversized).
    pub fn from_source_limited<S: EventSource + ?Sized>(
        source: &mut S,
        limit: usize,
    ) -> Result<Option<Trace>, SourceError> {
        let hint = source.remaining_hint().unwrap_or(0);
        let mut events = Vec::with_capacity(hint.min(limit.saturating_add(1)));
        while let Some(event) = source.next_event()? {
            if events.len() >= limit {
                return Ok(None);
            }
            events.push(event);
        }
        Ok(Some(Trace {
            events,
            n_threads: source.threads(),
            lock_names: (0..source.lock_count())
                .map(|l| source.lock_name(l).to_owned())
                .collect(),
            var_names: (0..source.var_count())
                .map(|v| source.var_name(v).to_owned())
                .collect(),
        }))
    }
}

impl<T: Borrow<Trace>> EventSource for TraceSource<T> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        let event = self.trace().events().get(self.pos).copied();
        if event.is_some() {
            self.pos += 1;
        }
        Ok(event)
    }

    fn declared_threads(&self) -> u32 {
        self.trace().thread_count() as u32
    }

    fn observed_threads(&self) -> u32 {
        self.trace().thread_count() as u32
    }

    fn lock_count(&self) -> usize {
        self.trace().lock_count()
    }

    fn var_count(&self) -> usize {
        self.trace().var_count()
    }

    fn lock_name(&self, index: usize) -> &str {
        self.trace().lock_name(index)
    }

    fn var_name(&self, index: usize) -> &str {
        self.trace().var_name(index)
    }

    fn remaining_hint(&self) -> Option<usize> {
        Some(self.trace().len() - self.pos)
    }
}

/// An [`EventSource`] adapter that checks the locking discipline of
/// Section 2 on the fly, in `O(L)` memory — the streaming equivalent of
/// [`Trace::validate`].
///
/// The first violation is reported as [`SourceError::Discipline`],
/// identifying the offending event by its stream position.
#[derive(Debug)]
pub struct Validated<S> {
    inner: S,
    checker: DisciplineChecker,
    next_id: u64,
}

impl<S: EventSource> Validated<S> {
    /// Wraps a source.
    pub fn new(inner: S) -> Self {
        Validated {
            inner,
            checker: DisciplineChecker::new(),
            next_id: 0,
        }
    }

    /// The wrapped source.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSource> EventSource for Validated<S> {
    fn next_event(&mut self) -> Result<Option<Event>, SourceError> {
        let Some(event) = self.inner.next_event()? else {
            return Ok(None);
        };
        let id = EventId::new(self.next_id);
        self.next_id += 1;
        self.checker.check(id, event)?;
        Ok(Some(event))
    }

    fn declared_threads(&self) -> u32 {
        self.inner.declared_threads()
    }

    fn observed_threads(&self) -> u32 {
        self.inner.observed_threads()
    }

    fn lock_count(&self) -> usize {
        self.inner.lock_count()
    }

    fn var_count(&self) -> usize {
        self.inner.var_count()
    }

    fn lock_name(&self, index: usize) -> &str {
        self.inner.lock_name(index)
    }

    fn var_name(&self, index: usize) -> &str {
        self.inner.var_name(index)
    }

    fn remaining_hint(&self) -> Option<usize> {
        self.inner.remaining_hint()
    }
}

/// A dense name interner shared by the streaming readers: id order is
/// first-appearance order, exactly like
/// [`TraceBuilder`](crate::TraceBuilder)'s tables.
///
/// An interner may start at a *base* id ([`Interner::with_base`]): ids
/// below it are defined elsewhere (an earlier segment of a v2 file) and
/// resolve as operands, but have no name here.
#[derive(Clone, Debug, Default)]
pub(crate) struct Interner {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    base: usize,
}

impl Interner {
    /// Interns a name, returning its dense id (idempotent).
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        self.push(name.to_owned())
    }

    /// An interner whose first own name gets id `base`, for decoding one
    /// v2 segment in isolation: operand ids below `base` resolve (their
    /// names live in earlier segments) at O(1) cost, and duplicate
    /// detection sees only the segment's own names — cross-segment
    /// duplicates are the caller's to check.
    pub(crate) fn with_base(base: usize) -> Interner {
        Interner {
            base,
            ..Interner::default()
        }
    }

    /// Appends a name with the next dense id without a lookup (binary
    /// definition records arrive in id order by construction).
    pub(crate) fn push(&mut self, name: String) -> u32 {
        let id = self.len() as u32;
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        id
    }

    /// One past the highest id, base included.
    pub(crate) fn len(&self) -> usize {
        self.base + self.names.len()
    }

    /// Whether a name is already interned.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.ids.contains_key(name)
    }

    /// The name of an id at or above the base.
    pub(crate) fn name(&self, index: usize) -> &str {
        &self.names[index - self.base]
    }

    /// The names of the ids at or above the base, in id order.
    pub(crate) fn into_names(self) -> Vec<String> {
        self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventKind, TraceBuilder};

    fn sample_trace() -> Trace {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        let l = b.lock("l");
        b.acquire(0, l).write(0, x).release(0, l);
        b.read(1, x);
        b.declare_threads(5);
        b.build()
    }

    #[test]
    fn trace_source_round_trips_through_from_source() {
        let trace = sample_trace();
        let again = Trace::from_source(&mut trace.source()).unwrap();
        assert_eq!(trace.events(), again.events());
        assert_eq!(trace.thread_count(), again.thread_count());
        assert_eq!(trace.lock_names, again.lock_names);
        assert_eq!(trace.var_names, again.var_names);
    }

    #[test]
    fn trace_source_metadata_is_complete_upfront() {
        let trace = sample_trace();
        let mut source = trace.source();
        assert_eq!(source.threads(), 5);
        assert_eq!(source.lock_count(), 1);
        assert_eq!(source.var_count(), 1);
        assert_eq!(source.var_name(0), "x");
        assert_eq!(source.remaining_hint(), Some(4));
        source.next_event().unwrap();
        assert_eq!(source.remaining_hint(), Some(3));
    }

    #[test]
    fn owned_source_streams_the_same_events() {
        let trace = sample_trace();
        let events = trace.events().to_vec();
        let mut source = trace.into_source();
        let mut streamed = Vec::new();
        while let Some(e) = source.next_event().unwrap() {
            streamed.push(e);
        }
        assert_eq!(events, streamed);
    }

    #[test]
    fn validated_passes_clean_traces() {
        let trace = sample_trace();
        let mut v = Validated::new(trace.source());
        let again = Trace::from_source(&mut v).unwrap();
        assert_eq!(again.len(), 4);
    }

    #[test]
    fn validated_rejects_discipline_violations_at_the_event() {
        let mut b = TraceBuilder::new();
        let l = b.lock("l");
        let x = b.var("x");
        b.write(0, x);
        b.acquire(0, l);
        b.acquire(1, l); // double acquire at stream position 2
        let trace = b.build();
        let mut v = Validated::new(trace.source());
        assert!(v.next_event().unwrap().is_some());
        assert!(v.next_event().unwrap().is_some());
        let err = v.next_event().unwrap_err();
        match err {
            SourceError::Discipline(e) => assert_eq!(e.event.index(), 2),
            other => panic!("expected a discipline error, got {other:?}"),
        }
        assert!(err.to_string().contains("already held"));
    }

    #[test]
    fn from_source_prefers_declared_thread_count() {
        let mut b = TraceBuilder::new();
        let x = b.var("x");
        b.write(0, x);
        b.declare_threads(9);
        let trace = b.build();
        let again = Trace::from_source(&mut trace.source()).unwrap();
        assert_eq!(again.thread_count(), 9);
        assert!(matches!(again[0].kind, EventKind::Write(_)));
    }

    #[test]
    fn interner_assigns_dense_ids_in_first_use_order() {
        let mut i = Interner::default();
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("a"), 0);
        assert_eq!(i.push("c".to_owned()), 2);
        assert_eq!(i.len(), 3);
        assert_eq!(i.name(2), "c");
    }

    #[test]
    fn based_interner_numbers_its_own_names_from_the_base() {
        let mut i = Interner::with_base(536);
        assert_eq!(i.len(), 536);
        assert_eq!(i.push("a".to_owned()), 536);
        assert_eq!(i.intern("b"), 537);
        assert_eq!(i.intern("a"), 536);
        assert_eq!(i.len(), 538);
        assert_eq!(i.name(537), "b");
        assert!(i.contains("a") && !i.contains("c"));
    }
}
