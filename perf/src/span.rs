//! In-memory spans for the traced run, and the layer table built from
//! them.
//!
//! A span records a name, start and end (nanoseconds since the
//! recorder's epoch), the span that caused it and the cell it belongs to.
//! A layer's *self* time is its span's duration minus the part of that
//! interval its child spans cover, so the self times of every span add up
//! exactly to the duration of the top-level spans: the layer table's rows
//! plus the top-level spans' own self time (reported as unattributed)
//! reconcile with the traced total by construction.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// The cell (batch position) the span worked for.
    pub cell: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans around calls; spans nest by call structure.
#[derive(Debug)]
pub struct Recorder {
    /// A disabled recorder runs the timed closures and records nothing
    /// (the untraced pass the tracing overhead is measured against).
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: Option<u32>,
    last_ns: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: None,
            last_ns: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Recorder {
        Recorder {
            enabled: false,
            ..Recorder::new()
        }
    }

    /// Nanoseconds since the recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags spans opened from now on with `cell`.
    pub fn set_cell(&mut self, cell: Option<u32>) {
        self.cell = cell;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        let end = self.now_ns();
        self.spans[idx].end_ns = end;
        self.last_ns = end - self.spans[idx].start_ns;
        out
    }

    /// Duration of the span [`Recorder::time`] closed last.
    pub fn last_ns(&self) -> u64 {
        self.last_ns
    }

    /// Start of the innermost open span (`None` outside any span).
    pub fn open_start_ns(&self) -> Option<u64> {
        self.open.last().map(|&i| self.spans[i].start_ns)
    }

    /// Adds an already-measured interval as a child of the innermost open
    /// span (a layer that reports its own timings, such as the pass
    /// records the back-end returns). The interval is clipped to the open
    /// span's start and the present.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        let (true, Some(&parent)) = (self.enabled, self.open.last()) else {
            return;
        };
        let now = self.now_ns();
        let start = start_ns.clamp(self.spans[parent].start_ns, now);
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: start,
            end_ns: end_ns.clamp(start, now),
            parent: Some(parent),
            cell: self.cell,
        });
    }

    /// Records `durations` back to back from the innermost open span's
    /// start, each clipped to the present.
    pub fn lay_out(&mut self, durations: &[(&str, u64)]) {
        let Some(mut at) = self.open_start_ns() else {
            return;
        };
        for &(name, ns) in durations {
            let end = at.saturating_add(ns);
            self.record(name, at, end);
            at = end.min(self.now_ns());
        }
    }

    /// Takes the recorded spans, leaving the recorder empty.
    pub fn take(&mut self) -> Vec<Span> {
        std::mem::take(&mut self.spans)
    }
}

/// One row of the layer table: every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Row {
    /// Sum of the spans' durations.
    pub busy_ns: u64,
    /// Sum of the spans' self times.
    pub self_ns: u64,
    pub count: u64,
}

/// Per-name rows plus the traced total (the summed duration of the
/// top-level spans).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    pub rows: BTreeMap<String, Row>,
    pub total_ns: u64,
}

impl Table {
    /// Self time of the spans named `name` (0 when none ran).
    pub fn self_ns(&self, name: &str) -> u64 {
        self.rows.get(name).map_or(0, |r| r.self_ns)
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let s = s.max(reach);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Builds the layer table of `spans`.
pub fn table(spans: &[Span]) -> Table {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    let mut total_ns = 0;
    for s in spans {
        match s.parent {
            Some(p) if p < spans.len() => children[p].push((s.start_ns, s.end_ns)),
            _ => total_ns += s.dur_ns(),
        }
    }
    let mut rows: BTreeMap<String, Row> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let row = rows.entry(s.name.clone()).or_default();
        row.busy_ns += s.dur_ns();
        row.self_ns += s.dur_ns() - covered(kids, s.start_ns, s.end_ns);
        row.count += 1;
    }
    Table { rows, total_ns }
}

/// The spans as a JSON array of `{name, start_ns, end_ns, parent, cell}`.
pub fn to_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"cell\": {}}}",
                json::quote(&s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.cell.map_or("null".to_string(), |c| c.to_string()),
            )
        })
        .collect();
    format!("[{}]", items.join(",\n"))
}
