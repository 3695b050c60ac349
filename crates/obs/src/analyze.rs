//! Post-hoc attribution analysis over a recorded span stream — the
//! reproduction's answer to "where did the simulated time go?".
//!
//! The executor and the layers under it emit spans on rank 0's simulated
//! clock: `app.phase` spans tile the run phase by phase, each collective's
//! `mpi.<op>` span covers only the post-rendezvous operation (the gap
//! between the phase start and the op start is rank 0 waiting for the
//! slowest rank), and the resilience layer brackets checkpoint writes
//! with `ckpt` spans. [`Analysis::from_spans`] slices that stream into
//! elementary segments at every span boundary and attributes each segment
//! to exactly one [`Category`] by layer precedence:
//!
//! 1. `ckpt` spans — checkpoint/rollback machinery, including the
//!    barrier+write they contain;
//! 2. compute and runtime-overhead `app.phase` spans;
//! 3. `mpi` spans — the collective operation proper;
//! 4. what remains of communication `app.phase` spans — rendezvous skew
//!    and point-to-point (halo) transfer, i.e. network wait;
//! 5. time inside the recording extent covered by no span at all
//!    ([`Category::Unattributed`] — e.g. restart stalls, which are priced
//!    as bare uniform compute).
//!
//! Because the simulated SPMD timeline is a single sequential chain on
//! rank 0's clock, the critical path *is* the covered part of that chain:
//! [`Analysis::path_us`] (everything attributed to a real category) is
//! `<=` [`Analysis::end_to_end_us`] by construction, the category totals
//! sum to end-to-end time exactly (same additions, same order), and the
//! dominant chain is the per-`(category, operation)` aggregation sorted
//! by contribution. All outputs are byte-stable: segment walks follow
//! record order and floats render shortest-round-trip.

use crate::json;
use crate::mem::Span;

/// Where a slice of simulated time went. The order is fixed — JSON
/// documents, tables and the exact-sum guarantees all follow it, with
/// `Unattributed` summed last so attributed time is a prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Kernel compute (`app.phase` spans labelled `compute:<class>`).
    Compute,
    /// Collective operations proper (`mpi.<op>` spans, post-rendezvous).
    Collective,
    /// Rendezvous skew and point-to-point transfer: communication phases
    /// minus their contained collective op.
    NetworkWait,
    /// Checkpoint writes and rollback machinery (`ckpt` spans).
    Checkpoint,
    /// Modelled runtime overhead phases.
    Overhead,
    /// Time inside the recording extent covered by no span.
    Unattributed,
}

impl Category {
    /// Every category, in the fixed accounting order.
    pub const ALL: [Category; 6] = [
        Category::Compute,
        Category::Collective,
        Category::NetworkWait,
        Category::Checkpoint,
        Category::Overhead,
        Category::Unattributed,
    ];

    /// Stable snake_case name (JSON keys, table columns).
    pub fn name(self) -> &'static str {
        match self {
            Category::Compute => "compute",
            Category::Collective => "collective",
            Category::NetworkWait => "net_wait",
            Category::Checkpoint => "checkpoint",
            Category::Overhead => "overhead",
            Category::Unattributed => "unattributed",
        }
    }

    fn index(self) -> usize {
        match self {
            Category::Compute => 0,
            Category::Collective => 1,
            Category::NetworkWait => 2,
            Category::Checkpoint => 3,
            Category::Overhead => 4,
            Category::Unattributed => 5,
        }
    }
}

/// One aggregated node of the dominant chain: all segments with the same
/// `(category, label)`, e.g. every `SymGS` sweep or every `mpi.allreduce`.
#[derive(Debug, Clone)]
pub struct ChainNode {
    /// The attribution category of these segments.
    pub category: Category,
    /// The operation label (kernel class, `mpi.<op>`, `wait:<phase>` ...).
    pub label: String,
    /// Total simulated time attributed, microseconds.
    pub us: f64,
    /// Number of distinct span visits aggregated (a phase split by an
    /// inner span still counts once).
    pub count: u64,
}

/// A classified interval awaiting the segment sweep.
struct Interval {
    start: f64,
    end: f64,
    category: Category,
    label: String,
}

/// One precedence layer: intervals sorted by start (record order breaks
/// ties), plus the running maximum of interval ends — the early-exit that
/// keeps coverage lookups from rescanning the whole timeline.
struct Layer {
    ivs: Vec<Interval>,
    prefix_max_end: Vec<f64>,
}

impl Layer {
    fn build(mut ivs: Vec<Interval>) -> Layer {
        ivs.sort_by(|a, b| a.start.total_cmp(&b.start)); // stable: record order ties
        let mut prefix_max_end = Vec::with_capacity(ivs.len());
        let mut m = f64::NEG_INFINITY;
        for iv in &ivs {
            m = m.max(iv.end);
            prefix_max_end.push(m);
        }
        Layer {
            ivs,
            prefix_max_end,
        }
    }

    /// Index of the interval covering `[a, b]`, preferring the
    /// latest-starting one (the innermost span when spans nest).
    fn covering(&self, a: f64, b: f64) -> Option<usize> {
        let mut i = self.ivs.partition_point(|iv| iv.start <= a);
        while i > 0 {
            i -= 1;
            if self.prefix_max_end[i] < b {
                return None; // nothing at or before i reaches b
            }
            if self.ivs[i].end >= b {
                return Some(i);
            }
        }
        None
    }
}

/// The attribution of one recorded run. Build with
/// [`Analysis::from_spans`]; render with [`Analysis::to_json`].
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Earliest classified span start, microseconds (0 when empty).
    pub extent_start_us: f64,
    /// Latest classified span end, microseconds (0 when empty).
    pub extent_end_us: f64,
    /// Per-category totals, in [`Category::ALL`] order.
    pub totals: [f64; 6],
    /// The dominant chain: `(category, label)` aggregates, largest first
    /// (ties break on category order, then label).
    pub chain: Vec<ChainNode>,
    /// Spans that participated in the attribution.
    pub spans_considered: usize,
    /// Elementary segments the extent was sliced into.
    pub segments: usize,
}

/// Strip the pre-rendered JSON quoting from a recorded `Str` attribute.
fn attr_str(raw: &str) -> &str {
    raw.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(raw)
}

/// The phase kind of an `app.phase` span: the `phase` attribute when the
/// emitter provided one, else parsed from the label.
fn phase_kind(span: &Span) -> &str {
    if let Some((_, v)) = span.attrs.iter().find(|(k, _)| k == "phase") {
        return attr_str(v);
    }
    let name = span.name.as_str();
    if name.starts_with("compute:") {
        "compute"
    } else if name.starts_with("runtime overhead") {
        "overhead"
    } else {
        name.split('(').next().unwrap_or(name)
    }
}

/// The chain label of a compute phase: `compute:SymGS (52.4 Mflop)`
/// becomes `SymGS`.
fn compute_label(name: &str) -> String {
    let body = name.strip_prefix("compute:").unwrap_or(name);
    body.split(" (").next().unwrap_or(body).to_string()
}

/// Classify one span into `(precedence layer 1..=4, category, label)`.
/// Spans outside the attribution taxonomy (pool dispatches, DES engine
/// internals) return `None` and are ignored.
fn classify(span: &Span) -> Option<(usize, Category, String)> {
    match span.cat.as_str() {
        "ckpt" => Some((4, Category::Checkpoint, span.name.clone())),
        "mpi" => Some((2, Category::Collective, span.name.clone())),
        "app.phase" => match phase_kind(span) {
            "compute" => Some((3, Category::Compute, compute_label(&span.name))),
            "overhead" => Some((3, Category::Overhead, "overhead".to_string())),
            kind => Some((1, Category::NetworkWait, format!("wait:{kind}"))),
        },
        _ => None,
    }
}

impl Analysis {
    /// Attribute a recorded span stream (see the module docs for the
    /// taxonomy). Spans with non-positive duration are skipped; an empty
    /// or fully-unclassifiable stream yields an all-zero analysis.
    pub fn from_spans(spans: &[Span]) -> Analysis {
        let mut per_layer: [Vec<Interval>; 5] = Default::default();
        let mut boundaries: Vec<f64> = Vec::new();
        let mut considered = 0usize;
        for s in spans {
            if s.dur_us.is_nan() || s.dur_us <= 0.0 || !s.start_us.is_finite() {
                continue;
            }
            let Some((layer, category, label)) = classify(s) else {
                continue;
            };
            considered += 1;
            let (start, end) = (s.start_us, s.start_us + s.dur_us);
            boundaries.push(start);
            boundaries.push(end);
            per_layer[layer].push(Interval {
                start,
                end,
                category,
                label,
            });
        }
        if considered == 0 {
            return Analysis {
                extent_start_us: 0.0,
                extent_end_us: 0.0,
                totals: [0.0; 6],
                chain: Vec::new(),
                spans_considered: 0,
                segments: 0,
            };
        }
        boundaries.sort_by(f64::total_cmp);
        boundaries.dedup();
        let layers: Vec<Layer> = per_layer.into_iter().map(Layer::build).collect();

        let mut totals = [0.0f64; 6];
        // Chain aggregation in first-visit order; a (layer, index) change
        // marks a new visit even when an inner span splits the interval.
        let mut chain: Vec<ChainNode> = Vec::new();
        let mut node_of: std::collections::HashMap<(usize, String), usize> =
            std::collections::HashMap::new();
        let mut last_key: Option<(usize, usize)> = None;
        let mut segments = 0usize;
        for w in boundaries.windows(2) {
            let (a, b) = (w[0], w[1]);
            let dur = b - a;
            if dur.is_nan() || dur <= 0.0 {
                continue;
            }
            segments += 1;
            // Highest-precedence covering layer wins the segment.
            let mut hit: Option<(usize, usize)> = None;
            for layer in (1..=4).rev() {
                if let Some(i) = layers[layer].covering(a, b) {
                    hit = Some((layer, i));
                    break;
                }
            }
            let (category, label, key) = match hit {
                Some((layer, i)) => {
                    let iv = &layers[layer].ivs[i];
                    (iv.category, iv.label.as_str(), Some((layer, i)))
                }
                None => (Category::Unattributed, "(uncovered)", None),
            };
            totals[category.index()] += dur;
            let node_key = (category.index(), label.to_string());
            let at = *node_of.entry(node_key).or_insert_with(|| {
                chain.push(ChainNode {
                    category,
                    label: label.to_string(),
                    us: 0.0,
                    count: 0,
                });
                chain.len() - 1
            });
            chain[at].us += dur;
            if key != last_key || key.is_none() {
                chain[at].count += 1;
            }
            last_key = key;
        }
        chain.sort_by(|x, y| {
            y.us.total_cmp(&x.us)
                .then(x.category.index().cmp(&y.category.index()))
                .then(x.label.cmp(&y.label))
        });
        Analysis {
            extent_start_us: boundaries[0],
            extent_end_us: *boundaries.last().unwrap(),
            totals,
            chain,
            spans_considered: considered,
            segments,
        }
    }

    /// Total attributed to one category, microseconds.
    pub fn total(&self, c: Category) -> f64 {
        self.totals[c.index()]
    }

    /// End-to-end accounted time: the category totals folded in
    /// [`Category::ALL`] order. Equals the span extent up to float
    /// round-off, and equals the category sum *exactly* (same additions,
    /// same order) — the invariant the conform suite pins bitwise.
    pub fn end_to_end_us(&self) -> f64 {
        self.totals.iter().sum()
    }

    /// The simulated critical path: everything attributed to a real
    /// category (the fold of [`Analysis::end_to_end_us`] minus its final
    /// `Unattributed` addend, so `path_us <= end_to_end_us` holds exactly
    /// — adding a non-negative tail never shrinks a float sum).
    pub fn path_us(&self) -> f64 {
        self.totals[..5].iter().sum()
    }

    /// The raw span extent (last end minus first start), microseconds.
    pub fn extent_us(&self) -> f64 {
        self.extent_end_us - self.extent_start_us
    }

    /// The category holding the most time (first in [`Category::ALL`]
    /// order on an exact tie — including the all-zero empty analysis,
    /// which reports `Compute`).
    pub fn dominant(&self) -> Category {
        let mut best = Category::ALL[0];
        for c in Category::ALL {
            if self.total(c) > self.total(best) {
                best = c;
            }
        }
        best
    }

    /// A category's share of end-to-end time, percent (0 when empty).
    pub fn share_pct(&self, c: Category) -> f64 {
        let total = self.end_to_end_us();
        if total > 0.0 {
            100.0 * self.total(c) / total
        } else {
            0.0
        }
    }

    /// Serialise as a byte-stable JSON document. `meta` key/value string
    /// pairs head the document, mirroring the metrics snapshot.
    pub fn to_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        for (k, v) in meta {
            out.push_str(&format!(
                "  \"{}\": \"{}\",\n",
                json::escape(k),
                json::escape(v)
            ));
        }
        out.push_str(&format!(
            "  \"extent_us\": {{\"start\": {}, \"end\": {}}},\n",
            json::f64(self.extent_start_us),
            json::f64(self.extent_end_us)
        ));
        out.push_str(&format!(
            "  \"end_to_end_us\": {},\n  \"path_us\": {},\n",
            json::f64(self.end_to_end_us()),
            json::f64(self.path_us())
        ));
        out.push_str(&format!(
            "  \"dominant\": \"{}\",\n  \"categories\": {{\n",
            self.dominant().name()
        ));
        for (i, c) in Category::ALL.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"us\": {}, \"share_pct\": {}}}{}\n",
                c.name(),
                json::f64(self.total(*c)),
                json::f64(self.share_pct(*c)),
                if i + 1 < Category::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("  },\n  \"chain\": [");
        for (i, n) in self.chain.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"category\": \"{}\", \"label\": \"{}\", \"us\": {}, \"share_pct\": {}, \"count\": {}}}",
                n.category.name(),
                json::escape(&n.label),
                json::f64(n.us),
                json::f64(self.share_pct_of(n.us)),
                n.count
            ));
        }
        out.push_str(if self.chain.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        out.push_str(&format!(
            "  \"spans\": {},\n  \"segments\": {}\n}}\n",
            self.spans_considered, self.segments
        ));
        out
    }

    /// An arbitrary duration's share of end-to-end time, percent (0 when
    /// empty) — e.g. one chain node's contribution.
    pub fn share_pct_of(&self, us: f64) -> f64 {
        let total = self.end_to_end_us();
        if total > 0.0 {
            100.0 * us / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AttrValue, MemRecorder, Recorder};

    fn span(cat: &str, name: &str, start: f64, dur: f64) -> Span {
        Span {
            cat: cat.to_string(),
            name: name.to_string(),
            start_us: start,
            dur_us: dur,
            attrs: Vec::new(),
        }
    }

    /// A miniature run shaped like the real emitters: one compute phase,
    /// one allreduce phase whose mpi span starts after the rendezvous,
    /// a checkpoint write containing its barrier, and a gap.
    fn demo_spans() -> Vec<Span> {
        vec![
            span("mpi", "mpi.allreduce", 12.0, 6.0),
            span("app.phase", "compute:SymGS (52.4 Mflop)", 0.0, 10.0),
            span("app.phase", "allreduce(8B)", 10.0, 8.0),
            span("mpi", "mpi.barrier", 20.0, 1.0),
            span("ckpt", "ckpt.write", 20.0, 5.0),
            // 25..30 is covered by nothing: unattributed.
            span("app.phase", "runtime overhead (2us)", 30.0, 2.0),
        ]
    }

    #[test]
    fn categories_split_by_layer_precedence() {
        let a = Analysis::from_spans(&demo_spans());
        assert_eq!(a.total(Category::Compute), 10.0);
        assert_eq!(a.total(Category::Collective), 6.0); // mpi.allreduce only
        assert_eq!(a.total(Category::NetworkWait), 2.0); // 10..12 rendezvous
        assert_eq!(a.total(Category::Checkpoint), 5.0); // barrier absorbed
        assert_eq!(a.total(Category::Overhead), 2.0);
        assert_eq!(a.total(Category::Unattributed), 7.0); // 18..20 and 25..30
        assert_eq!(a.extent_us(), 32.0);
        assert_eq!(a.dominant(), Category::Compute);
    }

    #[test]
    fn sums_and_path_are_exact_by_construction() {
        let a = Analysis::from_spans(&demo_spans());
        let manual: f64 = a.totals.iter().sum();
        assert_eq!(manual.to_bits(), a.end_to_end_us().to_bits());
        assert!(a.path_us() <= a.end_to_end_us());
        assert_eq!(a.path_us(), 25.0);
        assert_eq!(a.end_to_end_us(), 32.0);
    }

    #[test]
    fn chain_aggregates_and_sorts_by_contribution() {
        let a = Analysis::from_spans(&demo_spans());
        assert_eq!(a.chain[0].label, "SymGS");
        assert_eq!(a.chain[0].us, 10.0);
        let wait = a.chain.iter().find(|n| n.label == "wait:allreduce");
        assert_eq!(wait.unwrap().us, 2.0);
        let ckpt = a.chain.iter().find(|n| n.label == "ckpt.write").unwrap();
        assert_eq!((ckpt.us, ckpt.count), (5.0, 1));
    }

    #[test]
    fn empty_and_unclassifiable_streams_are_all_zero() {
        let a = Analysis::from_spans(&[]);
        assert_eq!(a.end_to_end_us(), 0.0);
        assert_eq!(a.dominant(), Category::Compute);
        let b = Analysis::from_spans(&[span("pool", "pool.dispatch", 0.0, 5.0)]);
        assert_eq!(b.spans_considered, 0);
        assert_eq!(b.end_to_end_us(), 0.0);
        assert!(b.to_json(&[]).contains("\"chain\": []"));
    }

    #[test]
    fn phase_attr_overrides_label_parsing() {
        let rec = MemRecorder::new();
        rec.span(
            "app.phase",
            "weird label",
            0.0,
            4.0,
            &[("phase", AttrValue::Str("compute"))],
        );
        let a = Analysis::from_spans(&rec.spans());
        assert_eq!(a.total(Category::Compute), 4.0);
    }

    #[test]
    fn json_is_deterministic_and_carries_meta() {
        let a = Analysis::from_spans(&demo_spans());
        let j1 = a.to_json(&[("app", "demo".to_string())]);
        let j2 = Analysis::from_spans(&demo_spans()).to_json(&[("app", "demo".to_string())]);
        assert_eq!(j1, j2);
        assert!(j1.contains("\"app\": \"demo\""));
        assert!(j1.contains("\"dominant\": \"compute\""));
        assert!(j1.contains("\"net_wait\""));
    }

    /// Deterministic pseudo-random span stream for the invariant tests.
    fn arb_spans(seed: u64, n: usize) -> Vec<Span> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let cats: [(&str, &str); 6] = [
            ("app.phase", "compute:SpMV (1.0 Mflop)"),
            ("app.phase", "allreduce(64B)"),
            ("app.phase", "halo(4 pairs)"),
            ("mpi", "mpi.allreduce"),
            ("ckpt", "ckpt.write"),
            ("pool", "pool.dispatch"),
        ];
        (0..n)
            .map(|_| {
                let (cat, name) = cats[(next() % 6) as usize];
                let start = (next() % 10_000) as f64 / 10.0;
                let dur = (next() % 500) as f64 / 10.0;
                span(cat, name, start, dur)
            })
            .collect()
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Build a classified span from a proptest case tuple: a taxonomy
        /// pick plus quantised start/duration (quantisation produces the
        /// boundary collisions that stress the sweep's dedup path).
        fn case_span(pick: usize, start_q: u64, dur_q: u64) -> Span {
            let cats: [(&str, &str); 7] = [
                ("app.phase", "compute:SpMV (1.0 Mflop)"),
                ("app.phase", "compute:SymGS (2.0 Mflop)"),
                ("app.phase", "allreduce(64B)"),
                ("app.phase", "halo(4 pairs)"),
                ("mpi", "mpi.allreduce"),
                ("ckpt", "ckpt.write"),
                ("des", "des.shard.run"),
            ];
            let (cat, name) = cats[pick % cats.len()];
            span(cat, name, start_q as f64 * 0.5, dur_q as f64 * 0.5)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn path_never_exceeds_extent_or_end_to_end(
                raw in proptest::collection::vec((0usize..7, 0u64..2000, 0u64..200), 0..80),
            ) {
                let spans: Vec<Span> =
                    raw.iter().map(|&(p, s, d)| case_span(p, s, d)).collect();
                let a = Analysis::from_spans(&spans);
                prop_assert!(a.path_us() <= a.end_to_end_us());
                if a.spans_considered > 0 {
                    prop_assert!(
                        a.path_us() <= a.extent_us() * (1.0 + f64::EPSILON),
                        "path {} > extent {}", a.path_us(), a.extent_us()
                    );
                }
            }

            #[test]
            fn categories_sum_to_end_to_end_within_one_ulp(
                raw in proptest::collection::vec((0usize..7, 0u64..2000, 0u64..200), 0..80),
            ) {
                let spans: Vec<Span> =
                    raw.iter().map(|&(p, s, d)| case_span(p, s, d)).collect();
                let a = Analysis::from_spans(&spans);
                let sum: f64 = a.totals.iter().sum();
                // Exact by construction: same addends, same order.
                prop_assert_eq!(sum.to_bits(), a.end_to_end_us().to_bits());
                // And within 1 ulp of any other summation order.
                let mut rev = 0.0;
                for t in a.totals.iter().rev() {
                    rev += t;
                }
                let ulp = f64::from_bits(sum.to_bits() + 1) - sum;
                prop_assert!((rev - sum).abs() <= ulp.max(f64::MIN_POSITIVE));
            }

            #[test]
            fn analysis_json_is_byte_identical_across_threads(
                raw in proptest::collection::vec((0usize..7, 0u64..2000, 0u64..200), 1..40),
            ) {
                let spans: std::sync::Arc<Vec<Span>> = std::sync::Arc::new(
                    raw.iter().map(|&(p, s, d)| case_span(p, s, d)).collect(),
                );
                let reference =
                    Analysis::from_spans(&spans).to_json(&[("run", "p".to_string())]);
                for nthreads in [1usize, 2, 4] {
                    let handles: Vec<_> = (0..nthreads)
                        .map(|_| {
                            let spans = spans.clone();
                            std::thread::spawn(move || {
                                Analysis::from_spans(&spans)
                                    .to_json(&[("run", "p".to_string())])
                            })
                        })
                        .collect();
                    for h in handles {
                        prop_assert_eq!(
                            &h.join().expect("analysis thread panicked"),
                            &reference,
                            "analysis diverged under {} threads", nthreads
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn invariants_hold_on_random_overlapping_streams() {
        for seed in 1..40u64 {
            let spans = arb_spans(seed * 0x9e37_79b9, 60);
            let a = Analysis::from_spans(&spans);
            // Path <= end-to-end, exactly.
            assert!(a.path_us() <= a.end_to_end_us(), "seed {seed}");
            // Category totals sum to end-to-end, bitwise.
            let sum: f64 = a.totals.iter().sum();
            assert_eq!(sum.to_bits(), a.end_to_end_us().to_bits(), "seed {seed}");
            // All totals non-negative; accounted time is within float
            // round-off of the raw extent.
            for t in a.totals {
                assert!(t >= 0.0, "seed {seed}");
            }
            if a.spans_considered > 0 {
                let extent = a.extent_us();
                assert!(
                    (a.end_to_end_us() - extent).abs() <= 1e-9 * extent.max(1.0),
                    "seed {seed}: {} vs extent {extent}",
                    a.end_to_end_us()
                );
                assert!(a.path_us() <= extent * (1.0 + 1e-12), "seed {seed}");
            }
            // Chain totals re-sum to the category totals.
            let chain_sum: f64 = a.chain.iter().map(|n| n.us).sum();
            assert!(
                (chain_sum - a.end_to_end_us()).abs() <= 1e-9 * chain_sum.max(1.0),
                "seed {seed}"
            );
        }
    }
}
