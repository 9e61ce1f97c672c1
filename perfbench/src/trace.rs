//! Wall-clock timing of calls into the layers, and the traced run's
//! span recorder.
//!
//! Every reading goes through `anubis_obs::wall::Stopwatch`, the
//! workspace's one sanctioned clock. [`Clock::time`] measures one call;
//! when recording is on it also keeps a span — layer, call name, start,
//! end and parent — in memory. Spans are written out once, when the run
//! ends, and summarised per layer as calls, total time and self time
//! (duration minus the time covered by child spans).

use anubis_obs::wall::Stopwatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Repository module the call enters (or `perfbench` for the
    /// benchmark's own phase spans).
    pub layer: &'static str,
    /// The public function called.
    pub name: &'static str,
    /// Seconds since the run started.
    pub start: f64,
    /// Seconds since the run started.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-layer totals of the recorded spans.
#[derive(Debug, Clone, Default)]
pub struct LayerRow {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus child spans), seconds.
    pub self_s: f64,
}

/// The run's clock: times calls, and records spans when tracing.
#[derive(Debug)]
pub struct Clock {
    origin: Stopwatch,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Clock {
    /// A clock that records spans only when `recording` is set.
    pub fn new(recording: bool) -> Self {
        Self {
            origin: Stopwatch::start(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded (the traced run).
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Turns span recording on or off for the calls that follow.
    pub fn set_recording(&mut self, recording: bool) {
        self.recording = recording;
    }

    /// Seconds since the run started.
    pub fn now(&self) -> f64 {
        self.origin.elapsed_secs()
    }

    /// Runs `f` and returns its result with its duration in seconds,
    /// recording a span when tracing.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now();
        let out = f();
        let end = self.now();
        if self.recording {
            self.spans.push(Span {
                layer,
                name,
                start,
                end,
                parent: self.open.last().copied(),
            });
        }
        (out, end - start)
    }

    /// Opens a span that encloses the calls timed until [`Clock::exit`].
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.recording {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            layer,
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost span opened by [`Clock::enter`].
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end = self.now();
        }
    }

    /// Calls, total and self time per layer over every recorded span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerRow> {
        let mut child_time = vec![0.0f64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_time) {
            let row = rows.entry(span.layer).or_default();
            let dur = span.end - span.start;
            row.calls += 1;
            row.total_s += dur;
            row.self_s += dur - children;
        }
        rows
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.layer, s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut clock = Clock::new(true);
        clock.enter("perfbench", "phase");
        let (v, _) = clock.time("fleetd", "step", || 7);
        clock.exit();
        assert_eq!(v, 7);
        let rows = clock.layers();
        assert_eq!(rows["fleetd"].calls, 1);
        let phase = &rows["perfbench"];
        assert!(phase.self_s <= phase.total_s);
        assert!(clock.to_jsonl().lines().count() == 2);
    }

    #[test]
    fn untraced_clock_records_nothing() {
        let mut clock = Clock::new(false);
        clock.enter("perfbench", "phase");
        let (_, dt) = clock.time("fleetd", "step", || ());
        clock.exit();
        assert!(dt >= 0.0);
        assert_eq!(clock.span_count(), 0);
    }
}
