//! Deterministic observability: stage spans, counters and gauges.
//!
//! Every pipeline stage in the reproduction (signal conditioning, alignment
//! search, sub-channel ranking, combining, slicing, the tag's comparator,
//! the reader's retry loop, …) can report what it did through a [`Recorder`].
//! The design constraints, in order of importance:
//!
//! 1. **Determinism.** Spans are measured in *simulated* microseconds taken
//!    from the scene clock (packet timestamps, envelope sample indices),
//!    never wall-clock time, and counters count discrete work items. A run
//!    therefore produces byte-identical observability output on any machine
//!    and under any `--jobs` parallelism.
//! 2. **Zero cost when off.** The default [`NullRecorder`] is a unit struct
//!    whose methods are empty and `#[inline]`; instrumented code paths make
//!    exactly the same RNG draws and arithmetic whether or not a recorder is
//!    armed, so golden fixtures are unaffected.
//! 3. **No dependencies.** Reports serialize to JSON with a tiny hand-rolled
//!    writer (sorted maps, `{:?}` floats that round-trip `f64` exactly).
//!
//! Armed recording uses [`MemRecorder`], which accumulates into an
//! [`ObsReport`]: spans in emission order, counters and gauges in sorted
//! (`BTreeMap`) order, so [`ObsReport::to_json`] is deterministic. Names
//! are the `&'static str`s the instrumented code passes, stored as given:
//! an armed recorder allocates only to grow its span list and maps, never
//! to copy a name.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One completed stage timing, in simulated microseconds.
///
/// `items` counts the discrete work units the stage processed (packets,
/// envelope samples, candidate offsets, …) — a deterministic stand-in for
/// cycle counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Stage name, dotted-path style (`"uplink.align"`, `"tag.comparator"`).
    pub stage: &'static str,
    /// Simulated start time of the stage's input window, µs.
    pub start_us: u64,
    /// Simulated end time of the stage's input window, µs.
    pub end_us: u64,
    /// Number of work items processed (packets, samples, candidates, …).
    pub items: u64,
}

impl Span {
    /// Simulated duration of the span in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

/// Sink for deterministic observability events.
///
/// All methods have empty defaults, so a recorder only overrides what it
/// stores. Instrumented code receives `&mut dyn Recorder` and must behave
/// identically (same RNG draws, same results) whatever the recorder does.
pub trait Recorder {
    /// Whether events are being kept. Instrumented code may use this to
    /// skip *pure reporting* work (e.g. computing a weight entropy that is
    /// only ever recorded), never to change the simulation itself.
    fn armed(&self) -> bool {
        false
    }
    /// Record a completed stage span over simulated time `[start_us, end_us]`
    /// that processed `items` work units.
    fn span(&mut self, stage: &'static str, start_us: u64, end_us: u64, items: u64) {
        let _ = (stage, start_us, end_us, items);
    }
    /// Add `delta` to a named counter (created at zero on first use).
    fn add(&mut self, counter: &'static str, delta: u64) {
        let _ = (counter, delta);
    }
    /// Set a named gauge to `value` (last write wins).
    fn gauge(&mut self, gauge: &'static str, value: f64) {
        let _ = (gauge, value);
    }
}

/// The zero-cost default recorder: drops every event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {}

/// A recorder that accumulates events into an [`ObsReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemRecorder {
    report: ObsReport,
}

impl MemRecorder {
    /// A fresh, empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the recorder and return the accumulated report.
    pub fn into_report(self) -> ObsReport {
        self.report
    }

    /// Borrow the report accumulated so far.
    pub fn report(&self) -> &ObsReport {
        &self.report
    }
}

impl Recorder for MemRecorder {
    fn armed(&self) -> bool {
        true
    }

    fn span(&mut self, stage: &'static str, start_us: u64, end_us: u64, items: u64) {
        self.report.spans.push(Span {
            stage,
            start_us,
            end_us,
            items,
        });
    }

    fn add(&mut self, counter: &'static str, delta: u64) {
        *self.report.counters.entry(counter).or_insert(0) += delta;
    }

    fn gauge(&mut self, gauge: &'static str, value: f64) {
        self.report.gauges.insert(gauge, value);
    }
}

/// Everything one armed run observed: spans in emission order, counters and
/// gauges keyed by name in sorted order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Completed stage spans, in the order they were emitted.
    pub spans: Vec<Span>,
    /// Monotonic event counts by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Last-written gauge values by name.
    pub gauges: BTreeMap<&'static str, f64>,
}

impl ObsReport {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Value of a counter, zero if never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All spans recorded for one stage name.
    pub fn spans_for<'a>(&'a self, stage: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.stage == stage)
    }

    /// Number of distinct stage names across all spans.
    pub fn distinct_stages(&self) -> usize {
        let mut names: Vec<&str> = self.spans.iter().map(|s| s.stage).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }

    /// Fold another report into this one: spans append, counters add,
    /// gauges take the other report's value (last write wins).
    pub fn merge(&mut self, other: &ObsReport) {
        self.spans.extend_from_slice(&other.spans);
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        self.gauges.extend(&other.gauges);
    }

    /// Deterministic JSON rendering:
    /// `{"spans":[{"stage":…,"start_us":…,"end_us":…,"items":…},…],`
    /// `"counters":{…},"gauges":{…}}`.
    ///
    /// Spans appear in emission order; counters and gauges in sorted key
    /// order. Gauge floats use `{:?}`, which round-trips `f64` exactly.
    pub fn to_json(&self) -> String {
        // ~64 bytes per span plus map entries; one allocation up front.
        let mut out = String::with_capacity(
            64 * self.spans.len() + 32 * (self.counters.len() + self.gauges.len()) + 48,
        );
        out.push_str("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"stage\":{},\"start_us\":{},\"end_us\":{},\"items\":{}}}",
                json_str(s.stage),
                s.start_us,
                s.end_us,
                s.items
            );
        }
        out.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), v);
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{:?}", json_str(k), v);
        }
        out.push_str("}}");
        out
    }
}

/// Escapes `s` as a JSON string literal (quotes included). Names here are
/// dotted identifiers, but the escaping is correct for arbitrary content;
/// the bench harness's JSON writers use it too.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        let mut rec = MemRecorder::new();
        rec.span("uplink.align", 100, 900, 7);
        rec.span("uplink.slice", 900, 1500, 30);
        rec.add("uplink.packets-binned", 30);
        rec.add("uplink.packets-binned", 12);
        rec.add("uplink.erasures", 2);
        rec.gauge("uplink.mrc-weight-entropy", 1.5);
        rec.gauge("uplink.mrc-weight-entropy", 1.25);
        rec.into_report()
    }

    #[test]
    fn null_recorder_is_unarmed_and_silent() {
        let mut rec = NullRecorder;
        assert!(!rec.armed());
        rec.span("x", 0, 1, 1);
        rec.add("x", 1);
        rec.gauge("x", 1.0);
    }

    #[test]
    fn counters_accumulate_and_gauges_overwrite() {
        let r = sample();
        assert_eq!(r.counter("uplink.packets-binned"), 42);
        assert_eq!(r.counter("never-touched"), 0);
        assert_eq!(r.gauge("uplink.mrc-weight-entropy"), Some(1.25));
        assert_eq!(r.distinct_stages(), 2);
        assert_eq!(r.spans_for("uplink.align").count(), 1);
        assert_eq!(r.spans[0].duration_us(), 800);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"spans\":["));
        // counters render in sorted key order
        let erasures = a.find("uplink.erasures").unwrap();
        let binned = a.find("uplink.packets-binned").unwrap();
        assert!(erasures < binned);
        assert!(a.contains("\"uplink.mrc-weight-entropy\":1.25"));
    }

    #[test]
    fn merge_adds_counters_appends_spans() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.spans.len(), 4);
        assert_eq!(a.counter("uplink.packets-binned"), 84);
        assert_eq!(a.gauge("uplink.mrc-weight-entropy"), Some(1.25));
    }

    #[test]
    fn empty_report_renders_empty_json() {
        let r = ObsReport::new();
        assert!(r.is_empty());
        assert_eq!(r.to_json(), "{\"spans\":[],\"counters\":{},\"gauges\":{}}");
    }

    #[test]
    fn json_escapes_control_and_quote() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
