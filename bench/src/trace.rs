//! The span recorder behind the `--trace 1` pass.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! the product's public functions — the product itself is not
//! instrumented. Each span is `{name, start, end, parent, op}`: `op`
//! identifies the repetition, row or job the span belongs to. Spans stay
//! in memory and are written once, when the run ends. A disabled tracer
//! records nothing and never allocates, so the end-to-end pass runs the
//! same code without paying for it.

use djson::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.run.attack`.
    pub name: &'static str,
    /// Start of the interval.
    pub start_ns: u64,
    /// End of the interval.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The repetition, row or job this span belongs to.
    pub op: u64,
}

/// Handle to an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Totals for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus what their children cover.
    pub self_ns: u64,
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Option<Instant>,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer {
            epoch: None,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer. Tracers merged with [`Tracer::absorb`] must
    /// share the epoch so their timestamps line up.
    pub fn enabled(epoch: Instant) -> Tracer {
        Tracer {
            epoch: Some(epoch),
            ..Tracer::disabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.epoch.is_some()
    }

    /// Tags the spans opened from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn ns(&self, at: Instant) -> u64 {
        let epoch = self.epoch.expect("only called while enabled");
        at.saturating_duration_since(epoch).as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.is_enabled() {
            return SpanId(None);
        }
        let start_ns = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op: self.op,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        assert_eq!(self.open.pop(), Some(index), "spans close innermost first");
        self.spans[index].end_ns = self.ns(Instant::now());
    }

    /// Closes every open span now — after an operation failed part-way and
    /// left its spans open.
    pub fn close_open(&mut self) {
        while let Some(index) = self.open.last().copied() {
            self.exit(SpanId(Some(index)));
        }
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span — for boundaries only seen after the fact, such as the
    /// arrival of a frame.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.is_enabled() {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: self.op,
        });
    }

    /// Moves another thread's closed spans into this tracer; its root
    /// spans become children of the innermost span open here.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(
            other.open.is_empty(),
            "absorbed tracer still has open spans"
        );
        let base = self.spans.len();
        let adopt = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base).or(adopt);
            span
        }));
    }

    /// Every span recorded so far, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its children cover (overlapping children, as after
    /// [`Tracer::absorb`], are counted once).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let clipped = (
                    span.start_ns.max(parent.start_ns),
                    span.end_ns.min(parent.end_ns),
                );
                if clipped.0 < clipped.1 {
                    children[p].push(clipped);
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    if end > reach {
                        covered += end - start.max(reach);
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns) - covered
            })
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut totals: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let t = totals.entry(span.name).or_default();
            t.count += 1;
            t.total_ns += span.end_ns - span.start_ns;
            t.self_ns += self_ns;
        }
        totals
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// The trace document `bench/out/trace.<workload>.json` holds.
    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .zip(self.self_times())
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::Str(s.name.into())),
                    ("start_ns", Json::U64(s.start_ns)),
                    ("end_ns", Json::U64(s.end_ns)),
                    ("self_ns", Json::U64(self_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    ),
                    ("op", Json::U64(s.op)),
                ])
            });
        Json::obj([
            ("schema", Json::Str("ddosim.benchtrace/1".into())),
            ("workload", Json::Str(workload.into())),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        let mut t = Tracer::enabled(Instant::now());
        t.spans = vec![
            span("rep", 0, 100, None),
            span("build", 10, 30, Some(0)),
            // Two overlapping children (as merged from two threads) cover
            // 40..80 once, not 40..70 plus 50..80.
            span("row", 40, 70, Some(0)),
            span("row", 50, 80, Some(0)),
            span("inner", 12, 20, Some(1)),
            // A child reaching past its parent is clipped to it.
            span("late", 95, 120, Some(0)),
        ];
        assert_eq!(
            t.self_times(),
            vec![100 - 20 - 40 - 5, 20 - 8, 30, 30, 8, 25]
        );
        let totals = t.totals();
        assert_eq!(
            totals["row"],
            NameTotals {
                count: 2,
                total_ns: 60,
                self_ns: 60
            }
        );
        assert_eq!(
            totals["build"],
            NameTotals {
                count: 1,
                total_ns: 20,
                self_ns: 12
            }
        );
        assert_eq!(totals["rep"].self_ns, 35);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span_and_carry_the_op() {
        let mut t = Tracer::enabled(Instant::now());
        t.set_op(3);
        let rep = t.enter("rep");
        let build = t.enter("build");
        t.exit(build);
        let now = Instant::now();
        t.record("frame", now, now + Duration::from_micros(5));
        t.exit(rep);
        t.set_op(4);
        let next = t.enter("rep");
        t.exit(next);
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            vec![
                ("rep", None, 3),
                ("build", Some(0), 3),
                ("frame", Some(0), 3),
                ("rep", None, 4)
            ]
        );
        assert!(t.spans().iter().all(|s| s.start_ns <= s.end_ns));
        assert_eq!(t.durations("frame"), vec![5e-6]);
    }

    #[test]
    fn absorbed_spans_keep_their_tree_under_the_open_span() {
        let epoch = Instant::now();
        let mut main = Tracer::enabled(epoch);
        let run = main.enter("run");
        let mut client = Tracer::enabled(epoch);
        let job = client.enter("job");
        let inner = client.enter("first_frame");
        client.exit(inner);
        client.exit(job);
        main.absorb(client);
        main.exit(run);
        let parents: Vec<_> = main.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("run", None), ("job", Some(0)), ("first_frame", Some(1))]
        );
        let doc = main.to_json("w");
        assert_eq!(
            doc.get("spans").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn the_untraced_path_allocates_no_spans() {
        let mut t = Tracer::disabled();
        for _ in 0..1000 {
            let rep = t.enter("rep");
            let now = Instant::now();
            t.record("frame", now, now);
            t.exit(rep);
        }
        assert!(t.spans().is_empty());
        assert_eq!(t.spans.capacity(), 0);
        assert_eq!(t.open.capacity(), 0);
        assert!(t.totals().is_empty());
    }
}
