//! End-to-end and per-layer host-time benchmark of the A64FX reproduction.
//!
//! One command runs one of four workloads as a closed loop of back-to-back
//! iterations for a fixed number of seconds, checks every output, and
//! prints the end-to-end metrics; with `--trace 1` it instead runs every
//! workload's traced probe and prints the per-layer metrics. See
//! `README.md` beside this crate for what each workload and metric is for.

pub mod checks;
pub mod des;
pub mod host;
pub mod metrics;
pub mod observed;
pub mod solvers;
pub mod span;
pub mod stats;
pub mod tables;

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use checks::{Checks, Goldens};
use span::Profile;
use stats::median;

/// Run `f` and return its result with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The workloads, by the name `--workload` takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadId {
    /// The paper's tables, regenerated cold.
    PaperTables,
    /// The D1 allreduce sweep on the event-driven engine.
    DesFugaku,
    /// The application proxies' real solvers.
    Solvers,
    /// T3, F2 and R1 under the recorder.
    Observed,
}

impl WorkloadId {
    /// Every workload.
    pub const ALL: [WorkloadId; 4] = [
        WorkloadId::PaperTables,
        WorkloadId::DesFugaku,
        WorkloadId::Solvers,
        WorkloadId::Observed,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadId::PaperTables => "paper_tables",
            WorkloadId::DesFugaku => "des_fugaku",
            WorkloadId::Solvers => "solvers",
            WorkloadId::Observed => "observed",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<WorkloadId> {
        WorkloadId::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Threads of the pooled kernel team `solvers` runs on.
pub const TEAM_THREADS: usize = 2;

/// The pinned configuration of one run, printed with every result.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload to run.
    pub workload: WorkloadId,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Run the traced probes instead of the timed loop.
    pub trace: bool,
    /// Threads of the pooled kernel team.
    pub threads: usize,
    /// Hardware threads the host offers.
    pub available_parallelism: usize,
    /// Commit of the sources, or `none` outside a git checkout.
    pub git_sha: String,
}

impl RunConfig {
    /// Pin the configuration. Refuses to run with any `A64FX_*` variable
    /// set: each changes a runtime default of the program (threads, DES
    /// backend, pricing, trace cache), so runs would not be comparable.
    /// The pooled team is [`TEAM_THREADS`] wide, narrowed to the host's
    /// `available_parallelism` so it never oversubscribes.
    ///
    /// # Errors
    /// Explains the refusal.
    pub fn pin(
        workload: WorkloadId,
        seed: u64,
        seconds: f64,
        trace: bool,
    ) -> Result<RunConfig, String> {
        let overrides: Vec<String> = std::env::vars_os()
            .map(|(k, _)| k.to_string_lossy().into_owned())
            .filter(|k| k.starts_with("A64FX_"))
            .collect();
        if !overrides.is_empty() {
            return Err(format!(
                "refusing to run with {} set: it changes the pinned configuration",
                overrides.join(", ")
            ));
        }
        let available = densela::pool::available_parallelism();
        Ok(RunConfig {
            workload,
            seed,
            seconds,
            trace,
            threads: TEAM_THREADS.min(available),
            available_parallelism: available,
            git_sha: host::git_sha(std::path::Path::new(".")),
        })
    }

    /// The configuration as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"git_sha\": \"{}\", \"tiling\": \"{}\", \"pricing\": \"{}\", \
             \"des_backend\": \"serial\", \"threads\": {}, \"available_parallelism\": {}}}",
            self.workload.name(),
            self.seed,
            self.seconds,
            self.trace,
            self.git_sha,
            densela::block::tiling_id(),
            a64fx_core::costmodel::default_pricing(),
            self.threads,
            self.available_parallelism,
        )
    }
}

/// One untraced and one traced pass of a workload's probe.
pub struct Round {
    /// Wall of the untraced pass, seconds.
    pub untraced_s: f64,
    /// Wall of the traced pass, seconds.
    pub traced_s: f64,
    /// Layer self times and calls of the traced pass.
    pub profile: Profile,
    /// The workload's per-layer metrics from this round.
    pub metrics: Vec<(&'static str, f64)>,
}

/// What a run reports: human-readable lines, the checks' tally and the
/// metrics of the result line.
pub struct Report {
    /// Free-form context, printed first.
    pub notes: Vec<String>,
    /// One line per metric, `<name> <value> <unit> (<detail>)`, printed
    /// before the result line.
    pub lines: Vec<String>,
    /// Operations attempted and failed.
    pub checks: Checks,
    /// `(name, value)` of every reported metric.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Processes an untraced run is split over. Each part sets up afresh and
/// gets an equal share of the timed budget; the metrics are medians over
/// all parts' samples. On a shared host a process's speed depends on
/// where its memory and code landed, and that holds for the life of the
/// process, so one process per run would measure one draw of it.
pub const PARTS: usize = 8;

/// Set-ups per part: at least one, and more, up to [`SETUP_MAX_REPS`],
/// until they have taken [`SETUP_MIN_S`]; `setup_s` is the median over
/// every part's set-ups, so a cheap set-up is still timed steadily.
pub const SETUP_MAX_REPS: usize = 8;
/// See [`SETUP_MAX_REPS`].
pub const SETUP_MIN_S: f64 = 0.125;

/// A workload as the untraced loop drives it.
pub trait Workload {
    /// What one iteration produces, checked after timing.
    type Out;
    /// Warm up after set-up; returns output to check, if any.
    fn warm_up(&mut self) -> Option<Self::Out> {
        Some(self.iteration())
    }
    /// One closed-loop iteration.
    fn iteration(&mut self) -> Self::Out;
    /// Check one iteration's output, outside the timed region.
    fn check(&mut self, out: &Self::Out, goldens: &Goldens, checks: &mut Checks);
    /// A throughput of one iteration that took `wall_s`, if the workload
    /// has one: `(metric name, value)`.
    fn rate(&self, _out: &Self::Out, _wall_s: f64) -> Option<(&'static str, f64)> {
        None
    }
    /// Checks that run once, after the timed loop.
    fn finish(&mut self, _checks: &mut Checks) {}
    /// One untraced and one traced pass of the workload's probe.
    fn round(&mut self, goldens: &Goldens, checks: &mut Checks) -> Round;
}

/// Run the configured workload and report its metrics: the traced run in
/// this process, or the untraced run as [`PARTS`] child processes of this
/// executable, one after another (see [`run_part`]).
///
/// # Errors
/// Returns why the goldens could not be loaded or a part did not run.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    if cfg.trace {
        let goldens = Goldens::load()?;
        return Ok(traced(cfg, Duration::from_secs_f64(cfg.seconds), &goldens));
    }
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let share = (cfg.seconds / PARTS as f64).to_string();
    let mut parts = Vec::with_capacity(PARTS);
    for _ in 0..PARTS {
        let seed = cfg.seed.to_string();
        let args = ["--workload", cfg.workload.name(), "--seed", &seed];
        let out = Command::new(&exe)
            .args(args)
            .args(["--seconds", &share, "--trace", "0", "--part", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running a part: {e}"))?;
        if !out.status.success() {
            return Err(format!("a part exited with {}", out.status));
        }
        parts.push(Part::parse(&String::from_utf8_lossy(&out.stdout))?);
    }
    Ok(summarise(&parts))
}

/// One part of an untraced run, in this process: what `--part 1` runs.
///
/// # Errors
/// Returns why the goldens could not be loaded.
pub fn run_part(cfg: &RunConfig) -> Result<Part, String> {
    let goldens = Goldens::load()?;
    let budget = Duration::from_secs_f64(cfg.seconds);
    let (seed, threads) = (cfg.seed, cfg.threads);
    Ok(match cfg.workload {
        WorkloadId::PaperTables => measure(|| tables::PaperTables::new(seed), budget, &goldens),
        WorkloadId::DesFugaku => measure(|| des::DesFugaku::new(seed), budget, &goldens),
        WorkloadId::Solvers => measure(|| solvers::Solvers::new(seed, threads), budget, &goldens),
        WorkloadId::Observed => measure(observed::Observed::set_up, budget, &goldens),
    })
}

/// What one part measured, in host seconds, and its checks.
#[derive(Debug, Default)]
pub struct Part {
    /// Each set-up's time.
    pub setups: Vec<f64>,
    /// Each timed iteration's wall.
    pub walls: Vec<f64>,
    /// Each sample of the speed probe.
    pub probes: Vec<f64>,
    /// The workload's throughput metric and its value per iteration.
    pub rate: Option<(String, Vec<f64>)>,
    /// The part's resident high-water mark, MiB.
    pub peak_rss_mib: f64,
    /// The part's checks.
    pub checks: Checks,
}

impl Part {
    /// The part as the lines a child prints, one field a line; numbers are
    /// written in full, so [`Part::parse`] reads them back exactly.
    pub fn to_lines(&self) -> Vec<String> {
        let join = |v: &[f64]| v.iter().map(f64::to_string).collect::<Vec<_>>().join(" ");
        let mut lines = vec![
            format!("part.setups {}", join(&self.setups)),
            format!("part.walls {}", join(&self.walls)),
            format!("part.probes {}", join(&self.probes)),
            format!("part.rss {}", self.peak_rss_mib),
            format!(
                "part.checks {} {}",
                self.checks.attempted, self.checks.failed
            ),
        ];
        if let Some((name, values)) = &self.rate {
            lines.push(format!("part.rate {name} {}", join(values)));
        }
        for why in &self.checks.reasons {
            lines.push(format!("part.reason {}", why.replace('\n', " ")));
        }
        lines
    }

    /// Read a part back from a child's output; other lines are ignored.
    ///
    /// # Errors
    /// Names the line that does not parse, or a missing field.
    pub fn parse(text: &str) -> Result<Part, String> {
        let numbers = |rest: &str| -> Result<Vec<f64>, String> {
            rest.split_whitespace()
                .map(|v| v.parse::<f64>().map_err(|e| format!("part value {v}: {e}")))
                .collect()
        };
        let mut part = Part::default();
        let (mut walls, mut checks) = (false, false);
        for line in text.lines() {
            let Some((key, rest)) = line.split_once(' ') else {
                continue;
            };
            match key {
                "part.setups" => part.setups = numbers(rest)?,
                "part.walls" => {
                    part.walls = numbers(rest)?;
                    walls = true;
                }
                "part.probes" => part.probes = numbers(rest)?,
                "part.rss" => part.peak_rss_mib = numbers(rest)?.first().copied().unwrap_or(0.0),
                "part.checks" => {
                    let v: Vec<u64> = rest
                        .split_whitespace()
                        .map(|v| v.parse().map_err(|e| format!("part check count {v}: {e}")))
                        .collect::<Result<_, String>>()?;
                    let [attempted, failed] = v[..] else {
                        return Err(format!("part.checks {rest}: expected two counts"));
                    };
                    part.checks.attempted = attempted;
                    part.checks.failed = failed;
                    checks = true;
                }
                "part.rate" => {
                    let (name, values) = rest.split_once(' ').unwrap_or((rest, ""));
                    part.rate = Some((name.to_string(), numbers(values)?));
                }
                "part.reason" => part.checks.reasons.push(rest.to_string()),
                _ => {}
            }
        }
        if !walls || !checks || part.walls.is_empty() || part.probes.is_empty() {
            return Err("a part printed no walls, probes or checks".to_string());
        }
        Ok(part)
    }
}

/// One part: set up repeatedly (each set-up builds the inputs and warms
/// up; see [`SETUP_MAX_REPS`]), then iterate back to back for `budget`.
/// The host's speed probe is sampled before every set-up and every
/// iteration, outside the timed regions.
fn measure<W: Workload>(setup: impl Fn() -> W, budget: Duration, goldens: &Goldens) -> Part {
    let mut part = Part::default();
    let probe = host::SpeedProbe::new();
    let mut workload = None;
    while part.setups.is_empty()
        || (part.setups.len() < SETUP_MAX_REPS && part.setups.iter().sum::<f64>() < SETUP_MIN_S)
    {
        drop(workload.take());
        part.probes.push(probe.sample());
        let ((mut w, warm), s) = timed(|| {
            let mut w = setup();
            let warm = w.warm_up();
            (w, warm)
        });
        if let Some(out) = warm {
            w.check(&out, goldens, &mut part.checks);
        }
        part.setups.push(s);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");

    let start = Instant::now();
    while part.walls.is_empty() || start.elapsed() < budget {
        part.probes.push(probe.sample());
        let (out, s) = timed(|| w.iteration());
        part.walls.push(s);
        if let Some((name, v)) = w.rate(&out, s) {
            let (_, values) = part
                .rate
                .get_or_insert_with(|| (name.to_string(), Vec::new()));
            values.push(v);
        }
        w.check(&out, goldens, &mut part.checks);
    }
    w.finish(&mut part.checks);
    part.peak_rss_mib = host::peak_rss_mib();
    part
}

/// The untraced run's report from its parts. Times are medians over every
/// part's samples, normalised for host speed: scaled by
/// [`host::PROBE_NOMINAL_S`] over the median of every part's probe
/// samples. `peak_rss_mib` is the highest part's.
pub fn summarise(parts: &[Part]) -> Report {
    let pooled = |f: fn(&Part) -> &[f64]| parts.iter().flat_map(f).copied().collect::<Vec<f64>>();
    let (walls, setups) = (pooled(|p| &p.walls), pooled(|p| &p.setups));
    let speed = host::PROBE_NOMINAL_S / median(&pooled(|p| &p.probes));
    let mut checks = Checks::default();
    for p in parts {
        checks.attempted += p.checks.attempted;
        checks.failed += p.checks.failed;
        checks.reasons.extend(p.checks.reasons.iter().cloned());
    }

    let (wall, setup) = (median(&walls), median(&setups));
    let (wall_norm, setup_norm) = (wall * speed, setup * speed);
    let rss = parts.iter().map(|p| p.peak_rss_mib).fold(0.0, f64::max);
    let each = |f: &dyn Fn(&Part) -> f64| {
        parts
            .iter()
            .map(|p| f(p).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    };
    let notes = vec![format!(
        "{} parts; speed probe medians {} s (nominal {} s; host times are scaled by \
             {speed}); host wall medians {} s",
        parts.len(),
        each(&|p| median(&p.probes)),
        host::PROBE_NOMINAL_S,
        each(&|p| median(&p.walls)),
    )];
    let mut lines = vec![
        format!(
            "wall_norm_s {wall_norm} s (host median {wall} s over {} iterations, range {}..{} s; {})",
            walls.len(),
            walls.iter().copied().fold(f64::INFINITY, f64::min),
            walls.iter().copied().fold(0.0, f64::max),
            match stats::tail(&walls) {
                Some((p, v)) => format!("host p{p} {v} s"),
                None => "no tail percentile: fewer than 10 samples beyond p90".to_string(),
            }
        ),
        format!(
            "setup_s {setup_norm} s (host median {setup} s of {} set-ups)",
            setups.len()
        ),
        format!("peak_rss_mib {rss} MiB (highest of {} parts)", parts.len()),
        format!(
            "failed_frac {} ratio ({} of {} operations failed)",
            checks.failed_frac(),
            checks.failed,
            checks.attempted
        ),
    ];
    if let Some((name, _)) = parts.iter().find_map(|p| p.rate.as_ref()) {
        let values: Vec<f64> = parts
            .iter()
            .filter_map(|p| p.rate.as_ref())
            .flat_map(|(_, v)| v.iter().copied())
            .collect();
        lines.push(format!(
            "{name} {} {} (host median over iterations)",
            median(&values),
            metrics::unit(name)
        ));
    }
    Report {
        notes,
        lines,
        checks,
        metrics: vec![
            ("wall_norm_s", wall_norm),
            ("setup_s", setup_norm),
            ("peak_rss_mib", rss),
        ],
    }
}

/// The traced run: set up every workload, measure the host's ceilings,
/// then repeat rounds of every workload's untraced and traced probe for
/// the budget. Each per-layer metric is the median over rounds of the
/// workload that exercises its layer; the overhead ratio and unattributed
/// time are those of the named workload.
fn traced(cfg: &RunConfig, budget: Duration, goldens: &Goldens) -> Report {
    let mut checks = Checks::default();
    let (seed, threads) = (cfg.seed, cfg.threads);
    let triad = host::triad_gbs(threads);
    let fma = host::fma_gflops(threads);

    let mut paper = tables::PaperTables::new(seed);
    let warm = paper.iteration();
    paper.check(&warm, goldens, &mut checks);
    let mut fugaku = des::DesFugaku::new(seed);
    fugaku.warm_up();
    let mut proxies = solvers::Solvers::new(seed, threads);
    let warm = proxies.iteration();
    proxies.check(&warm, goldens, &mut checks);
    let mut recorded = observed::Observed::set_up();

    let mut order = WorkloadId::ALL;
    stats::SplitMix64::new(seed, "trace.order").shuffle(&mut order);
    let mut rounds: Vec<(WorkloadId, Round)> = Vec::new();
    let start = Instant::now();
    loop {
        // Start a round only if one more fits in the budget.
        let round_start = Instant::now();
        for w in order {
            let round = match w {
                WorkloadId::PaperTables => paper.round(goldens, &mut checks),
                WorkloadId::DesFugaku => fugaku.round(goldens, &mut checks),
                WorkloadId::Solvers => proxies.round(goldens, &mut checks),
                WorkloadId::Observed => recorded.round(goldens, &mut checks),
            };
            rounds.push((w, round));
        }
        if start.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    proxies.finish(&mut checks);

    let of = |w: WorkloadId| rounds.iter().filter(move |(id, _)| *id == w).map(|r| &r.1);
    let mut values: Vec<(&'static str, Vec<f64>)> = Vec::new();
    for (_, round) in &rounds {
        for &(name, v) in &round.metrics {
            match values.iter_mut().find(|(n, _)| *n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name, vec![v])),
            }
        }
    }
    let named: Vec<&Round> = of(cfg.workload).collect();
    let overhead: Vec<f64> = named.iter().map(|r| r.traced_s / r.untraced_s).collect();
    let unattributed: Vec<f64> = named
        .iter()
        .map(|r| r.traced_s - r.profile.attributed_s())
        .collect();
    let gflops = values
        .iter()
        .find(|(n, _)| *n == "gflops")
        .map(|(_, v)| median(v))
        .expect("the solvers round reports gflops");
    values.push(("solvers.flop_frac", vec![gflops / fma]));
    values.push(("host.triad_gbs", vec![triad]));
    values.push(("host.fma_gflops", vec![fma]));
    values.push(("trace.overhead_ratio", overhead));
    values.push(("trace.unattributed_s", unattributed));
    values.push(("failed_frac", vec![checks.failed_frac()]));

    let metrics: Vec<(&'static str, f64)> = metrics::PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = values
                .iter()
                .find(|(n, _)| n == name)
                .unwrap_or_else(|| panic!("no round reported {name}"));
            (*name, median(&v.1))
        })
        .collect();
    let llc = host::llc_bytes().map_or("unknown".to_string(), |b| format!("{} MiB", b >> 20));
    let mut notes = vec![format!(
        "{} rounds per workload over {:.1} s",
        named.len(),
        start.elapsed().as_secs_f64()
    )];
    for w in WorkloadId::ALL {
        let walls = |f: fn(&Round) -> f64| median(&of(w).map(f).collect::<Vec<_>>());
        notes.push(format!(
            "{} probe: untraced {} s, traced {} s, in layer spans {} s (medians)",
            w.name(),
            walls(|r| r.untraced_s),
            walls(|r| r.traced_s),
            walls(|r| r.profile.attributed_s()),
        ));
    }
    let lines = vec![format!(
        "host.triad_gbs {triad} GB/s (3 arrays of {} MiB; largest cache {llc}; \
         no bandwidth fraction is reported: that needs arrays of 4x the largest cache)",
        (host::TRIAD_ELEMS * 8) >> 20
    )];
    Report {
        notes,
        lines,
        checks,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric a run prints, on its metric lines or in its result
    /// line, is declared in `BENCHMARK.json` (through `metrics::unit`,
    /// whose lists a test in `metrics` holds equal to that file).
    fn assert_declared(report: &Report) {
        for line in &report.lines {
            let name = line.split(' ').next().unwrap();
            let unit = line.split(' ').nth(2).unwrap();
            assert_eq!(metrics::unit(name), unit, "{line}");
        }
        metrics::result_line(&report.checks, &report.metrics).unwrap();
    }

    #[test]
    fn every_printed_metric_is_declared() {
        let untraced = RunConfig::pin(WorkloadId::DesFugaku, 3, 0.01, false).unwrap();
        let part = run_part(&untraced).unwrap();
        let reread = Part::parse(&part.to_lines().join("\n")).unwrap();
        assert_eq!(reread.walls, part.walls);
        assert_eq!(reread.rate, part.rate);
        let report = summarise(&[part, reread]);
        assert_eq!(report.checks.failed, 0, "{:?}", report.checks.reasons);
        assert!(report
            .lines
            .iter()
            .any(|l| l.starts_with("sim_events_per_s ")));
        assert_declared(&report);

        let traced = RunConfig {
            trace: true,
            ..untraced
        };
        let report = run(&traced).unwrap();
        assert_eq!(report.checks.failed, 0, "{:?}", report.checks.reasons);
        assert_eq!(report.metrics.len(), metrics::PER_LAYER.len());
        assert_declared(&report);
    }
}
