//! In-memory spans recorded around the harness's calls into each layer.
//!
//! The simulators are opaque from outside, so the harness records a span
//! at every layer boundary it *can* see — `profiler.profile`,
//! `core.curve_at`, `repl.simulate`, `workload.install`, ... — and keeps
//! them in memory until the run ends. A span's name is
//! `<layer>.<call>`; the layer is the module name before the first dot.
//!
//! *Shadow* spans replay a simulated cell's work through the lower
//! layers' public API (see `crate::shadow`). They are siblings of the
//! `repl.simulate` span they explain, recorded right after it (host speed
//! drifts over seconds, so neighbours compare best) and sharing its cell
//! id. They are **not** part of the traced pass: the time they take is
//! cut out of every span that encloses them, and they never count as
//! children when self time is computed.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::clock::Stopwatch;

/// Index of a span inside its [`Tracer`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified call, e.g. `repl.simulate`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Identifier shared by every span of one simulated cell / work item.
    pub cell: Option<u32>,
    /// Calls into the layer this span covers (1 unless it times a batch).
    pub calls: u64,
    /// True for shadow replays (outside the traced pass).
    pub shadow: bool,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first dot.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans when enabled; a disabled tracer reads no clock, so the
/// same pass code runs traced and untraced.
#[derive(Debug)]
pub struct Tracer {
    epoch: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    cell: Option<u32>,
}

impl Tracer {
    /// A tracer that records.
    pub fn enabled() -> Self {
        Tracer {
            epoch: Stopwatch::start(),
            enabled: true,
            spans: Vec::new(),
            stack: Vec::new(),
            cell: None,
        }
    }

    /// A tracer that ignores every call (untraced passes).
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::enabled()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the cell id stamped on spans opened from now on.
    pub fn set_cell(&mut self, cell: Option<u32>) {
        self.cell = cell;
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        self.open(name, 1, false)
    }

    /// Opens a span covering `calls` calls into the layer.
    pub fn enter_batch(&mut self, name: &'static str, calls: u64) -> SpanId {
        self.open(name, calls, false)
    }

    /// Opens a shadow span (see the module docs).
    pub fn enter_shadow(&mut self, name: &'static str, calls: u64) -> SpanId {
        self.open(name, calls, true)
    }

    fn open(&mut self, name: &'static str, calls: u64, shadow: bool) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent: self.stack.last().copied(),
            cell: self.cell,
            calls,
            shadow,
        });
        self.stack.push(id);
        // Read the clock last so the bookkeeping above is outside the span.
        self.spans[id].start = self.epoch.nanos();
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.epoch.nanos();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = now;
    }

    /// Adds a child of the closed span `parent` that stands for `calls`
    /// short calls made inside it, `total_ns` long in sum and laid
    /// `offset_ns` after the parent's start. For calls too short to give
    /// a span each (sampling one transaction takes 60 ns): the caller
    /// times them with a [`Stopwatch`], sums, and records the sum here —
    /// the child's position is nominal, its length and the self time it
    /// leaves its parent are exact.
    pub fn aggregate(
        &mut self,
        parent: SpanId,
        name: &'static str,
        calls: u64,
        offset_ns: u64,
        total_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let start = self.spans[parent].start + offset_ns;
        self.spans.push(Span {
            name,
            start,
            end: start + total_ns,
            parent: Some(parent),
            cell: self.spans[parent].cell,
            calls,
            shadow: false,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of every span with the shadow spans recorded inside it cut
/// out: a shadow replay is harness work, not part of the pass it
/// interrupts. A shadow span's own length is unchanged.
pub fn pass_times(spans: &[Span]) -> Vec<u64> {
    let mut lengths: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans.iter().filter(|s| s.shadow) {
        let mut ancestor = s.parent;
        while let Some(a) = ancestor {
            lengths[a] = lengths[a].saturating_sub(s.duration());
            ancestor = spans[a].parent;
        }
    }
    lengths
}

/// Self time of every span: its length (shadow time cut out, see
/// [`pass_times`]) minus the part of it its non-shadow children cover.
/// Overlapping children are counted once; children reaching outside the
/// parent are clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let lengths = pass_times(spans);
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    // What a child covers of its parent is its own pass time, laid from
    // its (clipped) start: a shadow replay inside the child is a hole in
    // the child, not something the child covers.
    for (i, s) in spans.iter().enumerate() {
        if s.shadow {
            continue;
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start.max(parent.start);
            let end = (start + lengths[i]).min(s.end).min(parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    lengths
        .iter()
        .zip(children.iter_mut())
        .map(|(length, kids)| length.saturating_sub(union_length(kids)))
        .collect()
}

/// Total length covered by `intervals` (sorted in place).
fn union_length(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// One row of the per-workload layer table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerRow {
    /// Layer (module) name.
    pub layer: String,
    /// Calls into the layer (sum of span call counts).
    pub calls: u64,
    /// Self time, seconds.
    pub self_s: f64,
    /// Self time as a share of the traced pass.
    pub share: f64,
}

/// Folds the non-shadow spans into one row per layer, largest self time
/// first. `pass_ns` is the traced pass's length (the root span).
pub fn layer_table(spans: &[Span], pass_ns: u64) -> Vec<LayerRow> {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(&selfs) {
        if s.shadow {
            continue;
        }
        let row = by_layer.entry(s.layer()).or_default();
        row.0 += s.calls;
        row.1 += own;
    }
    let mut rows: Vec<LayerRow> = by_layer
        .into_iter()
        .map(|(layer, (calls, own))| LayerRow {
            layer: layer.to_string(),
            calls,
            self_s: own as f64 / 1e9,
            share: if pass_ns == 0 {
                0.0
            } else {
                own as f64 / pass_ns as f64
            },
        })
        .collect();
    rows.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.layer.cmp(&b.layer)));
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            cell: None,
            calls: 1,
            shadow: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("scenario.run", 0, 100, None),
            span("repl.simulate", 10, 60, Some(0)),
            span("workload.install", 20, 30, Some(1)),
            span("core.curve_at", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 40, 10, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_unioned_and_clipped() {
        let spans = vec![
            span("a.root", 100, 200, None),
            span("b.x", 110, 150, Some(0)),
            span("b.y", 140, 170, Some(0)), // overlaps b.x by 10
            span("b.z", 190, 260, Some(0)), // hangs 60 past the parent
            span("b.w", 50, 90, Some(0)),   // entirely outside: ignored
        ];
        // Covered: [110,170) = 60 and [190,200) = 10.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn shadow_spans_are_holes_not_children() {
        let mut shadow = span("workload.install", 10, 90, Some(0));
        shadow.shadow = true;
        let spans = vec![span("scenario.run", 0, 100, None), shadow];
        // 80 of the 100 were the replay: the pass took 20, all of it the
        // scenario's own.
        assert_eq!(pass_times(&spans), vec![20, 80]);
        assert_eq!(self_times(&spans)[0], 20);
        let table = layer_table(&spans, 20);
        assert_eq!(table.len(), 1);
        assert_eq!(table[0].layer, "scenario");
        assert!((table[0].share - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shadow_time_is_cut_out_of_every_enclosing_span() {
        // pass [0,100] ⊃ run [0,90] ⊃ simulate [0,40], shadow [40,70],
        // simulate [70,90].
        let mut shadow = span("workload.install", 40, 70, Some(1));
        shadow.shadow = true;
        let spans = vec![
            span("harness.pass", 0, 100, None),
            span("scenario.run", 0, 90, Some(0)),
            span("repl.simulate", 0, 40, Some(1)),
            shadow,
            span("repl.simulate", 70, 90, Some(1)),
        ];
        assert_eq!(pass_times(&spans), vec![70, 60, 40, 30, 20]);
        // run: 60 of pass time, 60 of it simulating; pass: 70, 60 in run.
        assert_eq!(self_times(&spans), vec![10, 0, 40, 30, 20]);
        let table = layer_table(&spans, 70);
        let total: f64 = table.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn layer_table_groups_by_module_and_sums_to_the_pass() {
        let spans = vec![
            span("scenario.run", 0, 100, None),
            span("repl.simulate", 0, 50, Some(0)),
            span("repl.simulate", 50, 90, Some(0)),
        ];
        let table = layer_table(&spans, 100);
        assert_eq!(table[0].layer, "repl");
        assert_eq!(table[0].calls, 2);
        let total: f64 = table.iter().map(|r| r.share).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_records_parents_cells_and_batches() {
        let mut t = Tracer::enabled();
        let root = t.enter("scenario.run");
        t.set_cell(Some(7));
        let cell = t.enter_batch("sidb.txn", 500);
        t.exit(cell);
        let shadow = t.enter_shadow("workload.install", 4);
        t.exit(shadow);
        t.set_cell(None);
        t.exit(root);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!((spans[1].cell, spans[1].calls), (Some(7), 500));
        assert!(spans[2].shadow);
        assert!(spans[0].end >= spans[1].end);
        assert_eq!(spans[0].layer(), "scenario");
    }

    #[test]
    fn aggregates_leave_their_parent_the_rest_as_self_time() {
        let mut t = Tracer::enabled();
        let round = t.enter_batch("sidb.txn", 100);
        t.exit(round);
        let length = t.spans()[round].duration();
        t.aggregate(round, "workload.sample", 100, 0, length / 4);
        t.aggregate(round, "sidb.apply", 40, length / 4, length / 4);
        let spans = t.into_spans();
        let selfs = self_times(&spans);
        assert_eq!(selfs[round], length - 2 * (length / 4));
        assert_eq!(selfs[1], length / 4);
        assert_eq!((spans[2].parent, spans[2].calls), (Some(round), 40));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let id = t.enter("x.y");
        t.exit(id);
        assert_eq!(t.time("x.z", || 3), 3);
        assert!(t.spans().is_empty());
    }
}
