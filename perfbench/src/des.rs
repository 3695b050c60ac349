//! `des_fugaku`: the D1 allreduce sweep up to 131072 TofuD nodes on the
//! serial event-driven engine.

use std::time::Instant;

use a64fx_core::experiments::des::D1_SWEEP;
use a64fx_core::Table;
use archsim::InterconnectKind;
use conform::json::Value;
use netsim::{DesBackend, Network};
use simmpi::desval::allreduce_des_stats;

use crate::checks::{Checks, Goldens};
use crate::span::{self, span, Layer};
use crate::stats::SplitMix64;
use crate::{timed, Round, Workload};

/// One sweep point's simulated results and DES host time.
#[derive(Debug, Clone, Copy)]
pub struct PointResult {
    /// Index into `D1_SWEEP`.
    pub sweep_index: usize,
    /// Closed-form allreduce time, µs.
    pub analytic_us: f64,
    /// Event-driven allreduce time, µs.
    pub des_us: f64,
    /// Events the engine processed.
    pub events: u64,
    /// Lookahead windows the engine ran.
    pub windows: u64,
    /// Host seconds in the DES call.
    pub des_s: f64,
}

/// The `des_fugaku` workload: one TofuD network per node count, built in
/// set-up, and the sweep points in a seeded order.
pub struct DesFugaku {
    nets: Vec<(Network, Vec<usize>)>,
    /// `(sweep index, index into nets)`, in run order.
    order: Vec<(usize, usize)>,
    /// Host seconds set-up spent in `Network::new`.
    topology_s: f64,
}

impl DesFugaku {
    /// Build the networks and one-rank-per-node placements.
    pub fn new(seed: u64) -> Self {
        let mut topology_s = 0.0;
        let mut nets: Vec<(Network, Vec<usize>)> = Vec::new();
        let mut order = Vec::new();
        for (i, (nodes, _)) in D1_SWEEP.iter().enumerate() {
            let k = match nets.iter().position(|(_, p)| p.len() == *nodes) {
                Some(k) => k,
                None => {
                    let (net, s) = timed(|| Network::new(InterconnectKind::TofuD, *nodes));
                    topology_s += s;
                    nets.push((net, (0..*nodes).collect()));
                    nets.len() - 1
                }
            };
            order.push((i, k));
        }
        SplitMix64::new(seed, "des_fugaku.order").shuffle(&mut order);
        DesFugaku {
            nets,
            order,
            topology_s,
        }
    }

    fn point(&self, (i, k): (usize, usize), backend: DesBackend) -> PointResult {
        let (net, placement) = &self.nets[k];
        let bytes = D1_SWEEP[i].1;
        let analytic_us = span(Layer::Analytic, || {
            simmpi::allreduce_time_us(net, placement, bytes)
        });
        let t = Instant::now();
        let (des_us, stats) = span(Layer::Des, || {
            allreduce_des_stats(net, placement, bytes, backend)
        });
        PointResult {
            sweep_index: i,
            analytic_us,
            des_us,
            events: stats.events,
            windows: stats.windows,
            des_s: t.elapsed().as_secs_f64(),
        }
    }
}

impl Workload for DesFugaku {
    /// One result per sweep point, in run order.
    type Out = Vec<PointResult>;

    /// Warm up on the points whose node count is smallest. Their rows are
    /// checked with the full sweep of every timed iteration.
    fn warm_up(&mut self) -> Option<Self::Out> {
        let smallest = self.nets.iter().map(|(_, p)| p.len()).min();
        let order = std::mem::take(&mut self.order);
        self.order = order
            .iter()
            .copied()
            .filter(|&(_, k)| Some(self.nets[k].1.len()) == smallest)
            .collect();
        std::hint::black_box(self.iteration());
        self.order = order;
        None
    }

    /// One sweep on the serial engine.
    fn iteration(&mut self) -> Self::Out {
        self.order
            .iter()
            .map(|&p| self.point(p, DesBackend::Serial))
            .collect()
    }

    /// The sweep's rows against `d1.json`, as one operation.
    fn check(&mut self, out: &Self::Out, goldens: &Goldens, checks: &mut Checks) {
        let diffs = match goldens.get("d1") {
            Some(g) => conform::golden::compare_table(&d1_table(g, out), g),
            None => vec!["d1: no golden".to_string()],
        };
        checks.op(diffs.is_empty(), || diffs.join("; "));
    }

    fn rate(&self, out: &Self::Out, wall_s: f64) -> Option<(&'static str, f64)> {
        let events: u64 = out.iter().map(|p| p.events).sum();
        Some(("sim_events_per_s", events as f64 / wall_s))
    }

    /// Untraced sweep, traced sweep, then the 131072-node point on two
    /// shards for comparison with the serial engine.
    fn round(&mut self, goldens: &Goldens, checks: &mut Checks) -> Round {
        let (plain, untraced_s) = timed(|| self.iteration());
        self.check(&plain, goldens, checks);
        span::start();
        let (out, traced_s) = timed(|| self.iteration());
        let profile = span::finish();
        self.check(&out, goldens, checks);

        let largest = *self
            .order
            .iter()
            .max_by_key(|&&(_, k)| self.nets[k].1.len())
            .expect("the sweep has points");
        let serial = out
            .iter()
            .find(|p| p.sweep_index == largest.0)
            .copied()
            .expect("the traced sweep ran every point");
        let sharded = self.point(largest, DesBackend::Sharded { shards: 2 });
        checks.op(
            sharded.des_us.to_bits() == serial.des_us.to_bits()
                && sharded.events == serial.events
                && sharded.windows == serial.windows,
            || format!("sharded2 {sharded:?} differs from serial {serial:?}"),
        );

        let events: u64 = out.iter().map(|p| p.events).sum();
        let per_size = |nodes: usize| {
            let (ev, s) = out
                .iter()
                .filter(|p| D1_SWEEP[p.sweep_index].0 == nodes)
                .fold((0u64, 0.0), |(e, s), p| (e + p.events, s + p.des_s));
            ev as f64 / s
        };
        let metrics = vec![
            ("netsim.topology.busy_s", self.topology_s),
            ("simmpi.analytic.busy_s", profile.busy_s(Layer::Analytic)),
            ("netsim.des.events", events as f64),
            (
                "netsim.des.windows",
                out.iter().map(|p| p.windows).sum::<u64>() as f64,
            ),
            ("netsim.des.busy_s", profile.busy_s(Layer::Des)),
            ("netsim.des.events_per_s.n1024", per_size(1024)),
            ("netsim.des.events_per_s.n8192", per_size(8192)),
            ("netsim.des.events_per_s.n131072", per_size(131072)),
            (
                "netsim.des.sharded2_vs_serial.n131072",
                serial.des_s / sharded.des_s,
            ),
            (
                "sim_events_per_s",
                plain.iter().map(|p| p.events).sum::<u64>() as f64 / untraced_s,
            ),
        ];
        Round {
            untraced_s,
            traced_s,
            profile,
            metrics,
        }
    }
}

/// A D1 table of `out`'s rows in sweep order, formatted as the experiment
/// formats them, under the golden's own title, headers and notes.
fn d1_table(golden: &Value, out: &[PointResult]) -> Table {
    let text = |key: &str| golden.get(key).and_then(Value::as_str).unwrap_or("");
    let list = |key: &str| {
        golden
            .get(key)
            .and_then(Value::as_str_vec)
            .unwrap_or_default()
    };
    let mut t = Table::new(text("id"), text("title"), &list("headers"));
    let mut rows = out.to_vec();
    rows.sort_by_key(|p| p.sweep_index);
    for p in &rows {
        t.push_row(row(p));
    }
    for n in list("notes") {
        t.note(n);
    }
    t
}

fn row(p: &PointResult) -> Vec<String> {
    let (nodes, bytes) = D1_SWEEP[p.sweep_index];
    let rel = (p.des_us - p.analytic_us) / p.analytic_us;
    vec![
        nodes.to_string(),
        bytes.to_string(),
        format!("{:.2}", p.analytic_us),
        format!("{:.2}", p.des_us),
        format!("{:+.1}%", 100.0 * rel),
        p.events.to_string(),
        p.windows.to_string(),
    ]
}
