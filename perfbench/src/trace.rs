//! The span recorder for the traced replay: spans are kept in memory with
//! their parent and the request they serve, self times are computed at the
//! end, and the whole trace is written out once.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public entry points; nothing inside the program is instrumented. A
//! disabled recorder runs the same closures without reading the clock,
//! which is how the replay measures the recorder's own overhead.

use crate::stats::median;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `gnn.forward_batch`.
    pub name: &'static str,
    /// Start, in ns since the origin.
    pub start_ns: u64,
    /// End, in ns since the origin.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// The request (or job) this span serves.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    request: Option<u64>,
}

impl Recorder {
    /// A recorder; a disabled one records nothing and never reads the clock.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
        }
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// The trace as JSON: one object per span with its self time.
    pub fn to_json(&self) -> String {
        let self_ns = self_times_ns(&self.spans);
        let mut out = String::from("[\n");
        for (i, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = span.parent.map_or("null".into(), |p| p.to_string());
            let request = span.request.map_or("null".into(), |r| r.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request},\"self_ns\":{own}}}{sep}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out.push(']');
        out
    }
}

/// Untraced/traced replay pairs a traced run times for the overhead.
pub const OVERHEAD_ROUNDS: usize = 7;

/// The recorder's overhead in percent: the median traced replay's wall time
/// over the median untraced one's.
pub fn overhead_pct(untraced: &[Duration], traced: &[Duration]) -> f64 {
    let secs = |walls: &[Duration]| {
        let walls: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
        median(&walls).unwrap_or(f64::NAN)
    };
    100.0 * (secs(traced) - secs(untraced)) / secs(untraced)
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, so a
/// covered instant is only subtracted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| {
            let mut intervals = children.remove(&id).unwrap_or_default();
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: Some(7),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 28, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 4, 16, 40]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("z", 70, 75, Some(0)),
        ];
        // Children cover [10, 80): 70 ns.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_spans_and_stamps_requests() {
        let mut rec = Recorder::new(true);
        rec.set_request(Some(3));
        let out = rec.span("outer", |rec| rec.span("inner", |_| 5) + 1);
        assert_eq!(out, 6);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.request == Some(3)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let self_ns = self_times_ns(spans);
        assert_eq!(self_ns[0] + spans[1].duration_ns(), spans[0].duration_ns());
        assert!(rec.to_json().contains("\"name\":\"inner\""));
    }

    #[test]
    fn overhead_compares_median_walls() {
        let ms = Duration::from_millis;
        let overhead = overhead_pct(&[ms(100), ms(90), ms(400)], &[ms(99), ms(110), ms(500)]);
        assert!((overhead - 10.0).abs() < 1e-9, "{overhead}");
    }

    #[test]
    fn disabled_recorder_runs_the_work_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.span("outer", |rec| rec.span("inner", |_| 2)), 2);
        assert!(rec.spans.is_empty());
    }
}
