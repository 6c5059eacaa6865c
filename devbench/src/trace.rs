//! Spans recorded by the benchmark around its own calls into each layer's
//! public functions (nothing inside the program is instrumented).
//!
//! A span has a layer, a name, start and end, and the span that caused it
//! (its parent). Every span below one closed-loop operation shares that
//! operation's id. Spans stay in memory and are written out when the run
//! ends. A layer's self time is its spans' durations minus the part of
//! each interval its child spans cover; the root operation spans' self
//! time is the unattributed remainder (benchmark glue and whatever the
//! layer calls did not cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Layer name of the root span of one closed-loop operation.
pub const OP: &str = "op";

/// Layer name of the benchmark's own work inside an operation (reference
/// checks, input copies); it is not part of the operation's measured time.
pub const BENCH: &str = "bench";

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer the called function belongs to (`pm`, `ccm`, ...).
    pub layer: &'static str,
    /// The call (`run_batch_into`, `apply`, ...).
    pub name: &'static str,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
    /// Id of the closed-loop operation the span belongs to (0 outside
    /// any operation).
    pub op: u32,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::exit`].
#[must_use]
pub struct Guard(Option<usize>);

/// In-memory span recorder. Disabled tracers record nothing and cost one
/// branch per call.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off (open spans must be closed first).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> Guard {
        if !self.on {
            return Guard(None);
        }
        let idx = self.spans.len();
        // Spans outside any operation (probes) carry operation id 0.
        let op = if layer == OP || !self.stack.is_empty() {
            self.op
        } else {
            0
        };
        self.spans.push(Span {
            layer,
            name,
            parent: self.stack.last().copied(),
            op,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Guard(Some(idx))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, g: Guard) {
        if let Some(idx) = g.0 {
            let end = self.now_ns();
            self.spans[idx].end_ns = end;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close innermost first");
        }
    }

    /// Opens the root span of a new closed-loop operation.
    pub fn begin_op(&mut self, name: &'static str) -> Guard {
        if self.on {
            self.op += 1;
        }
        self.enter(OP, name)
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, layer: &'static str, name: &'static str, f: impl FnOnce() -> R) -> R {
        let g = self.enter(layer, name);
        let r = f();
        self.exit(g);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans as JSON lines (at most `limit`).
    pub fn to_jsonl(&self, limit: usize) -> String {
        let mut s = String::new();
        for (i, sp) in self.spans.iter().take(limit).enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                s,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                sp.op, sp.layer, sp.name, sp.start_ns, sp.end_ns
            );
        }
        s
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Per-span self time: the span's duration minus the part of its interval
/// covered by its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for sp in spans {
        if let Some(p) = sp.parent {
            children[p].push((sp.start_ns, sp.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(sp, kids)| {
            let dur = sp.end_ns.saturating_sub(sp.start_ns);
            dur - covered(sp.start_ns, sp.end_ns, kids).min(dur)
        })
        .collect()
}

/// Self time and span count per layer, ns, over the spans inside
/// operations (probe spans are left out).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut out: BTreeMap<&'static str, (u64, usize)> = BTreeMap::new();
    for (sp, t) in spans.iter().zip(self_times(spans)) {
        if sp.op == 0 {
            continue;
        }
        let e = out.entry(sp.layer).or_default();
        e.0 += t;
        e.1 += 1;
    }
    out
}

/// Share of the root operation spans' measured time (their duration less
/// the benchmark's own work inside them) that no layer span covers.
pub fn unattributed_share(spans: &[Span]) -> f64 {
    let selfs = self_times(spans);
    let (mut own, mut total) = (0u64, 0u64);
    for (sp, t) in spans.iter().zip(selfs) {
        let dur = sp.end_ns.saturating_sub(sp.start_ns);
        if sp.layer == OP && sp.parent.is_none() {
            own += t;
            total += dur;
        } else if sp.layer == BENCH {
            total = total.saturating_sub(dur);
        }
    }
    if total == 0 {
        0.0
    } else {
        own as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: &'static str, parent: Option<usize>, s: u64, e: u64) -> Span {
        Span {
            layer,
            name: "x",
            parent,
            op: 1,
            start_ns: s,
            end_ns: e,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children() {
        let spans = vec![
            sp(OP, None, 0, 100),
            sp("pm", Some(0), 10, 40),
            sp("cm", Some(0), 50, 60),
            // Grandchild: charged to `pm`'s children, not the root's.
            sp("fast", Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        let by_layer = layer_self_ns(&spans);
        assert_eq!(by_layer[OP], (60, 1));
        assert_eq!(by_layer["pm"], (20, 1));
        assert!((unattributed_share(&spans) - 0.6).abs() < 1e-12);

        // Benchmark work inside the operation is neither layer time nor
        // unattributed: 50 of the remaining 90 ns are.
        let mut checked = spans.clone();
        checked.push(sp(BENCH, Some(0), 60, 70));
        assert!((unattributed_share(&checked) - 50.0 / 90.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            sp(OP, None, 100, 200),
            sp("a", Some(0), 90, 130),  // clipped to [100, 130)
            sp("b", Some(0), 120, 150), // overlaps a: union [100, 150)
            sp("c", Some(0), 190, 260), // clipped to [190, 200)
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 10);
    }

    #[test]
    fn tracer_nests_and_disabled_records_nothing() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("burst");
        let v = t.span("pm", "run", || 7);
        t.exit(op);
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, spans[0].op);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.to_jsonl(10).lines().count(), 2);

        let g = t.enter("fast", "probe");
        t.exit(g);
        assert_eq!(t.spans()[2].op, 0, "a span outside operations");

        let mut off = Tracer::new(false);
        let g = off.begin_op("burst");
        off.exit(g);
        assert!(off.spans().is_empty());
    }
}
