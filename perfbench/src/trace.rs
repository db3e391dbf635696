//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! workspace crates (the program itself is not instrumented here): a
//! name, start and end relative to the trace epoch, the span that
//! caused it, and for serve requests the request id. Recording is off
//! in untraced runs, where every call is a cheap no-op. Spans stay in
//! memory until [`to_json`] renders them with per-name self time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the trace epoch.
#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Turns recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    TRACER.with(|t| t.borrow_mut().on = on);
}

/// Whether the calling thread records spans.
#[must_use]
pub fn enabled() -> bool {
    TRACER.with(|t| t.borrow().on)
}

fn offset_ns(epoch: Instant, at: Instant) -> u64 {
    u64::try_from(at.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(index) = self.0 {
            TRACER.with(|t| {
                let mut t = t.borrow_mut();
                let end = offset_ns(t.epoch, Instant::now());
                t.spans[index].end_ns = end;
                if let Some(pos) = t.open.iter().rposition(|&i| i == index) {
                    t.open.remove(pos);
                }
            });
        }
    }
}

/// Opens a span nested under the innermost open span.
#[must_use]
pub fn enter(name: &'static str) -> Guard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return Guard(None);
        }
        let start = offset_ns(t.epoch, Instant::now());
        let parent = t.open.last().copied();
        let index = t.spans.len();
        t.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            request: None,
        });
        t.open.push(index);
        Guard(Some(index))
    })
}

/// Times `f` under a span named `name`; returns its result and its
/// duration in seconds (measured whether or not tracing is on).
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _span = enter(name);
    let started = Instant::now();
    let result = std::hint::black_box(f());
    (result, started.elapsed().as_secs_f64())
}

/// Records a finished span over `[start, end]` under the innermost open
/// span — for intervals that overlap each other, such as the requests
/// of an open-loop generator.
pub fn record(name: &'static str, start: Instant, end: Instant, request: Option<u64>) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        if !t.on {
            return;
        }
        let span = Span {
            name,
            start_ns: offset_ns(t.epoch, start),
            end_ns: offset_ns(t.epoch, end),
            parent: t.open.last().copied(),
            request,
        };
        t.spans.push(span);
    });
}

/// Takes every recorded span out of the calling thread's tracer.
#[must_use]
pub fn take() -> Vec<Span> {
    TRACER.with(|t| std::mem::take(&mut t.borrow_mut().spans))
}

/// Total covered length of a set of intervals.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match current {
            Some((s, e)) if start <= e => current = Some((s, e.max(end))),
            Some((s, e)) => {
                covered += e - s;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    covered + current.map_or(0, |(s, e)| e - s)
}

/// Self time per span: its duration minus the part of it that its
/// children cover (children clipped to the parent's interval).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let (start, end) = (span.start_ns.max(p.start_ns), span.end_ns.min(p.end_ns));
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| (span.end_ns - span.start_ns).saturating_sub(union_ns(kids)))
        .collect()
}

/// Renders the spans and the per-name totals (count, total, self) as
/// one JSON document.
#[must_use]
pub fn to_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut totals: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(&self_ns) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.end_ns - span.start_ns;
        entry.2 += own;
    }
    let mut out = String::from("{\"by_name\":{");
    for (i, (name, (count, total, own))) in totals.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(
            out,
            "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out.push_str("},\"spans\":[");
    for (i, (span, own)) in spans.iter().zip(&self_ns).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
        let request = span.request.map_or("null".to_owned(), |r| r.to_string());
        let _ = write!(
            out,
            "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
             \"parent\":{parent},\"request\":{request}}}",
            span.name, span.start_ns, span.end_ns
        );
    }
    out.push_str("]}");
    out
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
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),  // overlaps a: union 10..60
            span("c", 90, 120, Some(0)), // clipped to 90..100
            span("a.inner", 15, 20, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 25, 30, 30, 5]);
    }

    #[test]
    fn recording_follows_the_enabled_flag() {
        set_enabled(false);
        drop(enter("off"));
        assert!(take().is_empty());
        set_enabled(true);
        {
            let _outer = enter("outer");
            drop(enter("inner"));
        }
        set_enabled(false);
        let spans = take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
