//! Outside-in tracing: the benchmark wraps each call it makes into a
//! layer's public function in a span. Spans stay in memory and are
//! written out when the workload ends; nothing inside the program is
//! instrumented.

use serde::Serialize;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// One timed call. `parent` indexes into the same span list; spans of
/// one request / refresh / ingest batch share `request`.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    /// `<crate>.<call>` for layer calls, `request` / `refresh` /
    /// `ingest_batch` for roots.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one (`None` for roots).
    pub parent: Option<usize>,
    /// Identifier shared by every span under one root.
    pub request: u64,
}

/// An open span, to be handed back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// Span recorder. A disabled tracer records nothing, so the same replay
/// code gives the untraced baseline that `bench.trace_overhead_share`
/// compares against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only passes through.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span under the innermost open one. Opening a root (empty
    /// stack) starts a new request id.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.stack.is_empty() {
            self.request += 1;
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Close a span opened by [`Tracer::enter`]. Spans close innermost
    /// first; closing out of order is a bug in the replay code.
    pub fn exit(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let end_ns = self.now_ns();
        assert_eq!(
            self.stack.pop(),
            Some(index),
            "spans must close innermost first"
        );
        self.spans[index].end_ns = end_ns;
    }

    /// Time one call as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let value = f();
        self.exit(open);
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the span list as one JSON array.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let json = serde_json::to_string(&self.spans).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// it its direct children cover.
fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(span, children)| (span.end_ns - span.start_ns).saturating_sub(children))
        .collect()
}

/// Self time of every span in microseconds, grouped by span name.
pub fn self_times_us(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        by_name.entry(span.name).or_default().push(own as f64 / 1e3);
    }
    by_name
}

/// Median self time per span name, one sample per call: the layer
/// timings of the workloads whose roots are not all alike (a refresh per
/// backend, an ingest batch or a compaction).
pub fn median_self_us(spans: &[Span]) -> Vec<(&'static str, f64)> {
    self_times_us(spans)
        .into_iter()
        .map(|(name, samples)| (name, crate::stats::median(&samples).unwrap_or(0.0)))
        .collect()
}

/// The value listed for `name` in per-span rows (0 when the span never
/// occurred).
pub fn row(rows: &[(&str, f64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// A request's time split over the layers it called, in microseconds:
/// `(rows, total)`, one row per span name, the rows adding up to `total`
/// exactly.
///
/// `total` is the median duration of a root span. Each row is that total
/// times the name's share of all self time recorded (a request that never
/// reached a layer contributes nothing to it). Shares of sums add up
/// where medians of the separate layers would not: with 16-query batches
/// costing 5 to 13 ms the per-layer medians summed to more than the
/// median request.
pub fn request_budget_us(spans: &[Span]) -> (Vec<(&'static str, f64)>, f64) {
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut roots_us: Vec<f64> = Vec::new();
    for (span, own) in spans.iter().zip(self_ns(spans)) {
        *by_name.entry(span.name).or_default() += own;
        if span.parent.is_none() {
            roots_us.push((span.end_ns - span.start_ns) as f64 / 1e3);
        }
    }
    roots_us.sort_by(f64::total_cmp);
    let total = crate::stats::percentile(&roots_us, 50.0).unwrap_or(0.0);
    let all_ns: u64 = by_name.values().sum();
    let rows = by_name
        .into_iter()
        .map(|(name, ns)| (name, total * ns as f64 / all_ns.max(1) as f64))
        .collect();
    (rows, total)
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
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("request", 0, 10_000, None),
            span("core.search", 1_000, 9_000, Some(0)),
            span("microblog.match", 2_000, 5_000, Some(1)),
            span("expert.rank", 5_000, 8_000, Some(1)),
        ];
        let own = self_times_us(&spans);
        assert_eq!(own["request"], vec![2.0]);
        assert_eq!(own["core.search"], vec![2.0]);
        assert_eq!(own["microblog.match"], vec![3.0]);
        assert_eq!(own["expert.rank"], vec![3.0]);
        // Self times add up to the root's duration.
        let total: f64 = own.values().flatten().sum();
        assert_eq!(total, 10.0);
    }

    #[test]
    fn budget_rows_add_up_to_the_median_request() {
        // Two requests of 10 us and 6 us; only the first misses the cache
        // and ranks. Cache gets: 1 + 1 us; rank: 5 us; glue: 4 + 5 us.
        let mut spans = vec![
            span("request", 0, 10_000, None),
            span("serve.cache_get", 1_000, 2_000, Some(0)),
            span("expert.rank", 3_000, 8_000, Some(0)),
        ];
        let mut second = span("request", 20_000, 26_000, None);
        second.request = 2;
        spans.push(second);
        let mut get = span("serve.cache_get", 21_000, 22_000, Some(3));
        get.request = 2;
        spans.push(get);
        let (rows, total) = request_budget_us(&spans);
        assert_eq!(total, 6.0, "nearest-rank median of the two roots");
        let row = |name: &str| rows.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!((row("serve.cache_get") - 6.0 * 2.0 / 16.0).abs() < 1e-9);
        assert!((row("expert.rank") - 6.0 * 5.0 / 16.0).abs() < 1e-9);
        assert!((row("request") - 6.0 * 9.0 / 16.0).abs() < 1e-9);
        let sum: f64 = rows.iter().map(|&(_, v)| v).sum();
        assert!((sum - total).abs() < 1e-9);
    }

    #[test]
    fn tracer_nests_and_numbers_requests() {
        let mut tracer = Tracer::new(true);
        for _ in 0..2 {
            let root = tracer.enter("request");
            tracer.call("serve.parse_request", || ());
            let inner = tracer.enter("core.search");
            tracer.call("microblog.match", || ());
            tracer.exit(inner);
            tracer.exit(root);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 8);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].request, 1);
        assert_eq!(spans[4].request, 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let root = tracer.enter("request");
        assert_eq!(tracer.call("x", || 7), 7);
        tracer.exit(root);
        assert!(tracer.spans().is_empty());
    }
}
