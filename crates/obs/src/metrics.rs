//! Deterministic metrics: counters, high-water gauges, and fixed
//! log2-bucket histograms, snapshotted to byte-stable JSON.

use std::collections::BTreeMap;

use crate::json;

/// Number of histogram buckets. Bucket `i` (for `i >= 1`) holds values
/// whose integer part `u` satisfies `2^(i-1) <= u < 2^i`; bucket 0 holds
/// values below 1. Bucket 63 absorbs everything at or above `2^62`.
pub const BUCKETS: usize = 64;

/// Map a value to its histogram bucket using pure integer arithmetic —
/// no float log2, so the mapping is identical on every platform.
/// Negative and non-finite values clamp to bucket 0.
pub fn bucket_index(value: f64) -> usize {
    if !value.is_finite() || value < 1.0 {
        return 0;
    }
    let u = if value >= u64::MAX as f64 {
        u64::MAX
    } else {
        value as u64
    };
    let idx = 64 - u.leading_zeros() as usize;
    idx.min(BUCKETS - 1)
}

/// A fixed log2-bucket histogram. Deterministic: bucket assignment is
/// integer math and `sum` accumulates in observation order (callers
/// observe in deterministic order, so the float sum is reproducible).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Per-bucket observation counts (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0.0,
            buckets: [0; BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.buckets[bucket_index(value)] += 1;
    }

    /// Mean observed value, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.buckets
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| i)
    }

    /// Upper bound of bucket `i`: the smallest value that lands in bucket
    /// `i + 1`. Bucket 0 (values below 1) reports 1; the absorbing top
    /// bucket reports `2^63` (its contents are unbounded above).
    pub fn bucket_upper_bound(i: usize) -> f64 {
        if i >= BUCKETS - 1 {
            (1u128 << 63) as f64
        } else {
            (1u128 << i) as f64
        }
    }

    /// Deterministic quantile estimate from the log2 buckets: the upper
    /// bound of the bucket holding the `ceil(q * count)`-th observation
    /// (rank clamped to `[1, count]`). Pure integer bucket arithmetic —
    /// no interpolation — so the estimate is bit-identical on every
    /// platform; it overstates the true quantile by at most one bucket
    /// width (a factor of 2). Empty histograms report 0.
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }

    /// Median estimate (see [`Histogram::percentile`]).
    pub fn p50(&self) -> f64 {
        self.percentile(0.50)
    }

    /// 95th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p95(&self) -> f64 {
        self.percentile(0.95)
    }

    /// 99th-percentile estimate (see [`Histogram::percentile`]).
    pub fn p99(&self) -> f64 {
        self.percentile(0.99)
    }
}

/// A registry of named counters, gauges, and histograms. `BTreeMap`
/// storage keeps snapshot key order stable regardless of insertion order.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the named counter (created at 0 on first use).
    pub fn add(&mut self, counter: &str, delta: u64) {
        *self.counters.entry(counter.to_string()).or_insert(0) += delta;
    }

    /// Raise the named high-water gauge to at least `value`.
    pub fn gauge_max(&mut self, gauge: &str, value: f64) {
        let g = self.gauges.entry(gauge.to_string()).or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&mut self, hist: &str, value: f64) {
        self.histograms
            .entry(hist.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of a gauge, if it exists.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterate counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Total number of metric points (counters + gauges + histogram
    /// observations) — used for summary rows.
    pub fn points(&self) -> u64 {
        self.counters.len() as u64
            + self.gauges.len() as u64
            + self.histograms.values().map(|h| h.count).sum::<u64>()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge another registry into this one (counters add, gauges max,
    /// histograms element-wise add).
    pub fn merge(&mut self, other: &Registry) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            self.gauge_max(k, v);
        }
        for (k, h) in &other.histograms {
            let mine = self.histograms.entry(k.clone()).or_default();
            mine.count += h.count;
            mine.sum += h.sum;
            for (m, o) in mine.buckets.iter_mut().zip(h.buckets.iter()) {
                *m += o;
            }
        }
    }

    /// Insert (or replace) a whole histogram under `name` — the seam
    /// `obsctl prom` uses to rebuild a registry from a parsed snapshot.
    pub fn insert_histogram(&mut self, name: &str, h: Histogram) {
        self.histograms.insert(name.to_string(), h);
    }

    /// Serialise the registry to a stable, pretty-printed JSON snapshot.
    /// Keys appear in `BTreeMap` order; histogram buckets are emitted
    /// sparsely as `{"bucket_index": count}` so snapshots stay readable.
    /// `meta` key/value pairs (already-ordered) head the document.
    pub fn snapshot_json(&self, meta: &[(&str, String)]) -> String {
        self.snapshot_json_impl(meta, false)
    }

    /// [`Registry::snapshot_json`] with deterministic p50/p95/p99 bucket
    /// quantile estimates added to every histogram. A separate document
    /// on purpose: the plain snapshot format is pinned byte-for-byte by
    /// the conform `obs` goldens, so it must not grow fields.
    pub fn snapshot_json_ext(&self, meta: &[(&str, String)]) -> String {
        self.snapshot_json_impl(meta, true)
    }

    fn snapshot_json_impl(&self, meta: &[(&str, String)], percentiles: bool) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        for (k, v) in meta {
            out.push_str(&format!(
                "  \"{}\": \"{}\",\n",
                json::escape(k),
                json::escape(v)
            ));
        }
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json::escape(k), v));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json::escape(k), json::f64(*v)));
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, ",
                json::escape(k),
                h.count,
                json::f64(h.sum)
            ));
            if percentiles {
                out.push_str(&format!(
                    "\"p50\": {}, \"p95\": {}, \"p99\": {}, ",
                    json::f64(h.p50()),
                    json::f64(h.p95()),
                    json::f64(h.p99())
                ));
            }
            out.push_str("\"buckets\": {");
            let mut bfirst = true;
            for (i, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !bfirst {
                    out.push_str(", ");
                }
                bfirst = false;
                out.push_str(&format!("\"{i}\": {c}"));
            }
            out.push_str("}}");
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Render the registry in the Prometheus text exposition format,
    /// deterministically: metric families in `BTreeMap` name order, names
    /// sanitised to `[a-zA-Z0-9_:]` (dots become underscores), histograms
    /// as cumulative `_bucket{le="..."}` series (log2 upper bounds, then
    /// `+Inf`) plus `_sum` and `_count`. The future campaign server's
    /// scrape endpoint serves exactly this string.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.counters {
            let name = sanitize_metric_name(k);
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (k, v) in &self.gauges {
            let name = sanitize_metric_name(k);
            out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", json::f64(*v)));
        }
        for (k, h) in &self.histograms {
            let name = sanitize_metric_name(k);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cum = 0u64;
            let top = h.max_bucket().unwrap_or(0);
            for (i, &c) in h.buckets.iter().enumerate().take(top + 1) {
                cum += c;
                out.push_str(&format!(
                    "{name}_bucket{{le=\"{}\"}} {cum}\n",
                    json::f64(Histogram::bucket_upper_bound(i))
                ));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            out.push_str(&format!("{name}_sum {}\n", json::f64(h.sum)));
            out.push_str(&format!("{name}_count {}\n", h.count));
        }
        out
    }
}

/// Map a metric name onto the Prometheus charset: `[a-zA-Z0-9_:]`, with a
/// leading underscore prepended if the name would start with a digit.
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            if i == 0 && c.is_ascii_digit() {
                out.push('_');
            }
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_integer_log2() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(0.5), 0);
        assert_eq!(bucket_index(-3.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1.0), 1);
        assert_eq!(bucket_index(1.9), 1);
        assert_eq!(bucket_index(2.0), 2);
        assert_eq!(bucket_index(3.0), 2);
        assert_eq!(bucket_index(4.0), 3);
        assert_eq!(bucket_index(1024.0), 11);
        assert_eq!(bucket_index(1e300), BUCKETS - 1);
        assert_eq!(bucket_index(f64::INFINITY), 0); // non-finite clamps low
    }

    #[test]
    fn histogram_counts_and_mean() {
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(3.0);
        h.observe(8.0);
        assert_eq!(h.count, 3);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.buckets[1], 1);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[4], 1);
        assert_eq!(h.max_bucket(), Some(4));
    }

    #[test]
    fn registry_snapshot_is_stable_and_ordered() {
        let mut r = Registry::new();
        r.add("zeta", 2);
        r.add("alpha", 1);
        r.gauge_max("g", 3.0);
        r.gauge_max("g", 2.0); // lower: ignored
        r.observe("h", 5.0);
        let s1 = r.snapshot_json(&[("experiment", "t".to_string())]);
        let s2 = r.snapshot_json(&[("experiment", "t".to_string())]);
        assert_eq!(s1, s2);
        // alpha before zeta regardless of insertion order.
        let a = s1.find("alpha").unwrap();
        let z = s1.find("zeta").unwrap();
        assert!(a < z);
        assert!(s1.contains("\"g\": 3"));
        assert!(s1.contains("\"count\": 1"));
    }

    #[test]
    fn empty_registry_snapshot_is_valid_shape() {
        let r = Registry::new();
        let s = r.snapshot_json(&[]);
        assert!(s.contains("\"counters\": {}"));
        assert!(s.contains("\"gauges\": {}"));
        assert!(s.contains("\"histograms\": {}"));
        assert!(r.is_empty());
    }

    #[test]
    fn percentiles_are_bucket_upper_bounds() {
        let mut h = Histogram::default();
        for v in [1.0, 3.0, 3.5, 9.0] {
            h.observe(v);
        }
        // Ranks: p50 -> 2nd of 4 (bucket 2, values 2..4) -> upper bound 4;
        // p95/p99 -> 4th (bucket 4, values 8..16) -> upper bound 16.
        assert_eq!(h.p50(), 4.0);
        assert_eq!(h.p95(), 16.0);
        assert_eq!(h.p99(), 16.0);
    }

    #[test]
    fn percentiles_of_empty_histogram_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.p50(), 0.0);
        assert_eq!(h.p95(), 0.0);
        assert_eq!(h.p99(), 0.0);
        assert_eq!(h.percentile(1.0), 0.0);
    }

    #[test]
    fn percentiles_handle_edge_buckets() {
        // Everything below 1 lands in bucket 0; its upper bound is 1.
        let mut low = Histogram::default();
        low.observe(0.0);
        low.observe(0.3);
        assert_eq!(low.p50(), 1.0);
        assert_eq!(low.p99(), 1.0);
        // The absorbing top bucket reports 2^63.
        let mut high = Histogram::default();
        high.observe(1e300);
        assert_eq!(high.p50(), (1u128 << 63) as f64);
        // Out-of-range q clamps: q <= 0 is the first observation,
        // q >= 1 the last.
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(1024.0);
        assert_eq!(h.percentile(-1.0), 2.0);
        assert_eq!(h.percentile(2.0), 2048.0);
    }

    #[test]
    fn ext_snapshot_adds_percentiles_plain_stays_fixed() {
        let mut r = Registry::new();
        r.observe("h", 5.0);
        let plain = r.snapshot_json(&[]);
        let ext = r.snapshot_json_ext(&[]);
        assert!(!plain.contains("p50"), "plain snapshot format is pinned");
        assert!(ext.contains("\"p50\": 8, \"p95\": 8, \"p99\": 8"), "{ext}");
        // Identical apart from the percentile fields.
        assert_eq!(
            ext.replace("\"p50\": 8, \"p95\": 8, \"p99\": 8, ", ""),
            plain
        );
    }

    #[test]
    fn prometheus_rendering_is_stable_and_sane() {
        let mut r = Registry::new();
        r.add("mpi.allreduce.calls", 3);
        r.gauge_max("des.queue.peak_depth", 7.0);
        r.observe("mpi.sync_wait_us", 1.5);
        r.observe("mpi.sync_wait_us", 6.0);
        let p1 = r.render_prometheus();
        let p2 = r.render_prometheus();
        assert_eq!(p1, p2);
        assert!(p1.contains("# TYPE mpi_allreduce_calls counter\nmpi_allreduce_calls 3\n"));
        assert!(p1.contains("# TYPE des_queue_peak_depth gauge\ndes_queue_peak_depth 7\n"));
        // Cumulative buckets: 1.5 -> bucket 1 (le 2), 6.0 -> bucket 3 (le 8).
        assert!(p1.contains("mpi_sync_wait_us_bucket{le=\"2\"} 1\n"), "{p1}");
        assert!(p1.contains("mpi_sync_wait_us_bucket{le=\"8\"} 2\n"), "{p1}");
        assert!(p1.contains("mpi_sync_wait_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(p1.contains("mpi_sync_wait_us_sum 7.5\n"));
        assert!(p1.contains("mpi_sync_wait_us_count 2\n"));
    }

    #[test]
    fn metric_names_sanitise_to_prometheus_charset() {
        assert_eq!(sanitize_metric_name("mpi.sync_wait_us"), "mpi_sync_wait_us");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
        assert_eq!(sanitize_metric_name("9lives"), "_9lives");
    }

    #[test]
    fn insert_histogram_round_trips() {
        let mut h = Histogram::default();
        h.observe(3.0);
        let mut r = Registry::new();
        r.insert_histogram("h", h.clone());
        assert_eq!(r.histogram("h").unwrap().count, 1);
        assert_eq!(r.histogram("h").unwrap().buckets, h.buckets);
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let mut a = Registry::new();
        a.add("c", 1);
        a.gauge_max("g", 1.0);
        a.observe("h", 2.0);
        let mut b = Registry::new();
        b.add("c", 2);
        b.gauge_max("g", 5.0);
        b.observe("h", 4.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), Some(3));
        assert_eq!(a.gauge("g"), Some(5.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 6.0);
    }
}
