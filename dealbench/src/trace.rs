//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self time of each span.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::alloc_count::{self, Counts};

/// Identifies a span among those one [`Tracer`] recorded.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer, e.g. `"plan"` or `"execute.timelock"`.
    pub name: &'static str,
    /// The span whose call caused this one.
    pub parent: Option<SpanId>,
    /// Start, in nanoseconds since the process's trace epoch.
    pub start: u64,
    /// End, in nanoseconds since the process's trace epoch.
    pub end: u64,
    /// Heap traffic of the recording thread over the span.
    pub heap: Counts,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }
}

/// Nanoseconds since the process's trace epoch (its first call), so spans
/// recorded on any thread share one clock.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records nested spans on one thread.
#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Runs `f` inside a span named `name`; `f` gets the tracer back (for
    /// child spans) and the new span's id.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(&mut Tracer, SpanId) -> R,
    ) -> R {
        let id = self.spans.len();
        let heap = alloc_count::thread_counts();
        self.spans.push(Span {
            name,
            parent,
            start: now_ns(),
            end: 0,
            heap,
        });
        let out = f(self, id);
        let end = now_ns();
        let span = &mut self.spans[id];
        span.end = end;
        span.heap = heap.delta_to(&alloc_count::thread_counts());
        out
    }

    /// Adds spans recorded elsewhere (on worker threads) as children of
    /// `parent`.
    pub fn adopt(&mut self, parent: SpanId, spans: impl IntoIterator<Item = Span>) {
        self.spans.extend(spans.into_iter().map(|s| Span {
            parent: Some(parent),
            ..s
        }));
    }

    /// Takes the spans recorded so far, leaving the tracer empty (ids start
    /// again from 0).
    pub fn drain(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// Shards of a [`SpanSink`].
const SHARDS: usize = 16;

/// One shard, alone on its cache line.
#[repr(align(64))]
#[derive(Default)]
struct Shard(Mutex<Vec<Span>>);

/// A thread-safe collector for spans that worker threads record on their
/// own. Each thread pushes to the shard of its allocation-counter slot, so
/// workers running at the same time neither wait for one lock nor pass its
/// cache line back and forth (one shared lock cost the sweep about 6% of
/// its throughput).
#[derive(Clone, Default)]
pub struct SpanSink {
    shards: Arc<[Shard; SHARDS]>,
}

impl SpanSink {
    /// Runs `f` in a parentless span recorded on the calling thread.
    pub fn record<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let heap = alloc_count::thread_counts();
        let start = now_ns();
        let out = f();
        let span = Span {
            name,
            parent: None,
            start,
            end: now_ns(),
            heap: heap.delta_to(&alloc_count::thread_counts()),
        };
        self.shards[alloc_count::thread_slot() % SHARDS]
            .0
            .lock()
            .expect("span sink poisoned")
            .push(span);
        out
    }

    /// Takes the spans collected so far.
    pub fn drain(&self) -> Vec<Span> {
        self.shards
            .iter()
            .flat_map(|s| std::mem::take(&mut *s.0.lock().expect("span sink poisoned")))
            .collect()
    }
}

/// Each span's self time: its length minus the part of its interval that
/// the union of its children covers. Children may overlap one another (they
/// can run on several threads) and are clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let covered = children
                .get_mut(&id)
                .map_or(0, |kids| union_len(kids, s.start, s.end));
            s.len() - covered
        })
        .collect()
}

/// Total length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
            heap: Counts::default(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("sweep.run", None, 0, 100),
            // Two workers overlap on [20, 30]: the union is [10, 50] + [60, 70].
            span("execute.cbc", Some(0), 10, 30),
            span("execute.swap", Some(0), 20, 50),
            span("execute.cbc", Some(0), 60, 70),
            // A child running past its parent counts only inside the parent.
            span("other", None, 200, 300),
            span("late", Some(4), 250, 400),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10, 50, 150]);
    }

    #[test]
    fn nested_children_count_once_for_their_direct_parent() {
        let spans = vec![
            span("deal", None, 0, 100),
            span("plan", Some(0), 0, 10),
            span("execute.timelock", Some(0), 10, 90),
            span("inner", Some(2), 20, 40),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 60, 20]);
    }

    #[test]
    fn tracer_nests_and_adopts_worker_spans() {
        let mut tr = Tracer::default();
        let sink = SpanSink::default();
        tr.span("sweep.run", None, |tr, run| {
            tr.span("child", Some(run), |_, _| ());
            let handle = std::thread::spawn({
                let sink = sink.clone();
                move || sink.record("execute.cbc", || vec![0u8; 64].len())
            });
            assert_eq!(handle.join().expect("worker joins"), 64);
            tr.adopt(run, sink.drain());
        });
        let spans = tr.drain();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("sweep.run", None),
                ("child", Some(0)),
                ("execute.cbc", Some(0))
            ]
        );
        assert!(spans[2].heap.allocs >= 1);
        assert!(spans.iter().all(|s| s.start <= s.end));
        assert!(tr.drain().is_empty());
    }
}
