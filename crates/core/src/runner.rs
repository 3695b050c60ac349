//! Parallel experiment runner, hardened against misbehaving experiments,
//! and the one resolved [`RunConfig`] every run carries.
//!
//! The experiments are independent simulations; this module fans them out
//! over a `std::thread::scope` worker team so `repro --all` regenerates the
//! whole paper in roughly the time of its slowest artefact. The worker
//! count is bounded by `available_parallelism` (oversubscribing a small
//! machine with one solver thread per experiment just thrashes), and
//! workers pull experiment indices from a shared atomic queue. Results land
//! in per-experiment slots, so the output order is always paper order
//! regardless of which worker ran what.
//!
//! Each experiment additionally runs **isolated**: behind
//! `catch_unwind` and a wall-clock deadline, so one panicking or hung
//! experiment yields a FAILED entry instead of killing the whole `repro`
//! run ([`run_isolated`], [`run_all_isolated`]).
//!
//! Every run setting — worker count, deadline, DES backend, pricing
//! backend, trace cache — lives in one [`RunConfig`], resolved once per
//! binary ([`RunConfig::resolve`]) and passed down. Experiment bodies are
//! plain `fn() -> Table`, so the runner installs the config as the
//! worker thread's ambient scope ([`RunConfig::scope`]) and the cost
//! model, D1 and the trace cache read it back ([`RunConfig::current`]).
//! Two runs under different configs can share a process: nothing here
//! is process-global.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use netsim::DesBackend;

use crate::costmodel::PricingBackend;
use crate::experiments;
use crate::report::Table;
use crate::tracecache::{self, TraceCache};

/// Default wall-clock budget for one experiment. Generous: the slowest
/// artefact takes tens of seconds on one core; ten minutes only trips on a
/// genuine hang. Override with `repro --deadline-secs` or
/// `A64FX_DEADLINE_SECS` (see [`RunConfig::resolve`]).
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(600);

/// Parse a per-experiment deadline request in whole seconds. Pure (no
/// environment access) so garbage handling is unit-testable: empty,
/// unparseable, zero or negative input is an `Err` describing the
/// problem.
pub fn parse_deadline_secs(raw: &str) -> Result<u64, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    match s.parse::<u64>() {
        Ok(0) => Err("0 seconds is not a valid deadline".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{s}' is not a positive integer of seconds")),
    }
}

/// Parse a thread-count request. Pure (no environment access) so garbage
/// handling is unit-testable: empty, unparseable, zero or negative input is
/// an `Err` describing the problem.
pub fn parse_threads(raw: &str) -> Result<usize, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Err("empty value".to_string());
    }
    match s.parse::<usize>() {
        Ok(0) => Err("0 is not a valid worker count".to_string()),
        Ok(n) => Ok(n),
        Err(_) => Err(format!("'{s}' is not a positive integer")),
    }
}

/// Resolve one run setting: an explicit request (a command-line flag)
/// wins, then the environment variable `env_var` read through `parse`,
/// then `default()`. A present-but-invalid environment value is treated as
/// unset with a one-line warning on stderr — a typo in a login script must
/// never change results or refuse to run.
///
/// This is the only place the library reads the environment; CI fails
/// the build if `std::env::var` appears anywhere else under
/// `crates/*/src`. [`RunConfig::resolve`] calls it once per setting.
pub fn resolve<T>(
    explicit: Option<T>,
    env_var: &str,
    parse: impl FnOnce(&str) -> Result<T, String>,
    default: impl FnOnce() -> T,
) -> T {
    if let Some(v) = explicit {
        return v;
    }
    if let Ok(raw) = std::env::var(env_var) {
        match parse(&raw) {
            Ok(v) => return v,
            Err(why) => eprintln!("warning: ignoring {env_var} ({why}); using default"),
        }
    }
    default()
}

/// Everything one run is configured by, resolved once and passed down.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Experiment-runner worker threads (at least 1).
    pub threads: usize,
    /// Per-experiment wall-clock deadline.
    pub deadline: Duration,
    /// Discrete-event engine for DES-routed experiments (D1).
    pub des_backend: DesBackend,
    /// Kernel-pricing backend for executors built without an explicit one.
    pub pricing: PricingBackend,
    /// The trace memo table experiments fetch through; `None` rebuilds
    /// every trace (`repro --no-cache`).
    pub trace_cache: Option<Arc<TraceCache>>,
}

impl Default for RunConfig {
    /// The configuration with no flag and no environment variable set:
    /// `available_parallelism` workers, [`DEFAULT_DEADLINE`], the serial
    /// DES engine, flat pricing and the shared process trace cache.
    fn default() -> Self {
        RunConfig {
            threads: densela::pool::available_parallelism(),
            deadline: DEFAULT_DEADLINE,
            des_backend: DesBackend::Serial,
            pricing: PricingBackend::Flat,
            trace_cache: Some(tracecache::shared()),
        }
    }
}

thread_local! {
    /// The current thread's ambient run configuration; the default until
    /// a [`RunConfig::scope`] installs another.
    static CURRENT: RefCell<RunConfig> = RefCell::new(RunConfig::default());
}

impl RunConfig {
    /// Resolve every setting through [`resolve`]: the explicit request
    /// (a command-line flag) wins, then the environment, then the
    /// default. The variables are `A64FX_REPRO_THREADS` ([`parse_threads`]),
    /// `A64FX_DEADLINE_SECS` ([`parse_deadline_secs`]), `A64FX_DES_BACKEND`
    /// ([`DesBackend::parse`]), `A64FX_PRICING` ([`PricingBackend::parse`]),
    /// `A64FX_TRACE_CACHE` ([`tracecache::parse_switch`]) and
    /// `A64FX_TRACE_CACHE_DIR` (a directory that also persists traces
    /// on disk; empty means none).
    pub fn resolve(
        threads: Option<usize>,
        deadline: Option<Duration>,
        des_backend: Option<DesBackend>,
        pricing: Option<PricingBackend>,
        trace_cache: Option<bool>,
    ) -> RunConfig {
        let base = RunConfig::default();
        let parse_deadline = |raw: &str| parse_deadline_secs(raw).map(Duration::from_secs);
        let threads = resolve(threads, "A64FX_REPRO_THREADS", parse_threads, || {
            base.threads
        });
        let deadline = resolve(deadline, "A64FX_DEADLINE_SECS", parse_deadline, || {
            base.deadline
        });
        let des_backend = resolve(des_backend, "A64FX_DES_BACKEND", DesBackend::parse, || {
            base.des_backend
        });
        let pricing = resolve(pricing, "A64FX_PRICING", PricingBackend::parse, || {
            base.pricing
        });
        let cache_on = resolve(
            trace_cache,
            "A64FX_TRACE_CACHE",
            tracecache::parse_switch,
            || true,
        );
        let disk_dir = resolve(
            None,
            "A64FX_TRACE_CACHE_DIR",
            |raw| Ok((!raw.trim().is_empty()).then(|| PathBuf::from(raw))),
            || None,
        );
        RunConfig {
            threads,
            deadline,
            des_backend,
            pricing,
            trace_cache: match (cache_on, disk_dir) {
                (false, _) => None,
                (true, None) => base.trace_cache,
                (true, Some(dir)) => Some(Arc::new(TraceCache::new(
                    tracecache::DEFAULT_CAPACITY_BYTES,
                    Some(dir),
                ))),
            },
        }
    }

    /// Run `body` with this config as the current thread's ambient
    /// configuration, restoring the previous one afterwards (also on
    /// panic). Nested scopes shadow the outer one.
    pub fn scope<T>(&self, body: impl FnOnce() -> T) -> T {
        struct Restore(Option<RunConfig>);
        impl Drop for Restore {
            fn drop(&mut self) {
                if let Some(prev) = self.0.take() {
                    // `try_with`: a drop must not panic, even during
                    // thread-local teardown.
                    let _ = CURRENT.try_with(|c| *c.borrow_mut() = prev);
                }
            }
        }
        let prev = CURRENT.with(|c| c.replace(self.clone()));
        let _restore = Restore(Some(prev));
        body()
    }

    /// The current thread's ambient configuration: the innermost
    /// [`RunConfig::scope`], else [`RunConfig::default`].
    pub fn current() -> RunConfig {
        CURRENT.with(|c| c.borrow().clone())
    }
}

/// Record-volume summary of an observed experiment: how much the recorder
/// captured, plus the DES queue high-water mark (0 when the experiment
/// never touched the event queue).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsSummary {
    /// Span/instant/metric-point counts.
    pub totals: obs::Totals,
    /// Peak `netsim` event-queue depth (`des.queue.peak_depth` gauge).
    pub peak_queue_depth: f64,
}

impl ObsSummary {
    /// Summarise a recorder after a run.
    pub fn of(rec: &obs::MemRecorder) -> Self {
        ObsSummary {
            totals: rec.totals(),
            peak_queue_depth: rec.gauge("des.queue.peak_depth").unwrap_or(0.0),
        }
    }
}

/// The outcome of one isolated experiment: the table, or why it failed.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Experiment id (e.g. "t3").
    pub id: String,
    /// The generated table, or a failure description (panic payload or
    /// deadline overrun).
    pub result: Result<Table, String>,
    /// Wall-clock time the experiment took (up to the deadline).
    pub elapsed: Duration,
    /// Recording summary when the experiment ran observed
    /// ([`run_isolated_observed`]); `None` for unobserved runs.
    pub obs: Option<ObsSummary>,
    /// Attempts consumed producing this outcome: 1 for a plain isolated
    /// run, more when a campaign retry policy re-ran a failure
    /// (`crate::campaign::RetryPolicy`). The render is attempt-invariant
    /// so retried-then-successful runs stay byte-identical to clean ones;
    /// the count is recorded here and in the campaign journal.
    pub attempts: u32,
}

impl ExperimentOutcome {
    /// Whether the experiment failed (panicked or timed out).
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }

    /// Render for the console: the table (or a one-line FAILED row), plus
    /// an observability summary row when the run was observed.
    pub fn render(&self) -> String {
        let mut out = match &self.result {
            Ok(t) => t.render(),
            Err(why) => format!("== {} FAILED: {} ==\n", self.id, why),
        };
        if let Some(o) = &self.obs {
            out.push_str(&format!(
                "[obs {}] {} spans, {} instants, {} metric points, peak queue depth {:.0}\n",
                self.id,
                o.totals.spans,
                o.totals.instants,
                o.totals.metric_points,
                o.peak_queue_depth
            ));
        }
        out
    }
}

/// Extract a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

/// Run one experiment body isolated: on its own thread, behind
/// `catch_unwind`, with `cfg` installed as the thread's ambient scope and
/// `cfg.deadline` as its wall-clock budget. A panic or overrun becomes an
/// `Err` in the outcome instead of propagating.
///
/// On deadline overrun the worker thread is abandoned (detached, still
/// running); the caller gets its FAILED outcome immediately. That is the
/// right trade for a CLI run — `repro` exits soon after and the OS reaps
/// the stragglers.
pub fn run_isolated<F>(id: &str, cfg: &RunConfig, body: F) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, cfg, None, body)
}

/// [`run_isolated`] with `rec` installed as the worker thread's ambient
/// recorder for the duration of the experiment body. The outcome carries
/// an [`ObsSummary`] of what was captured — also on failure, since
/// whatever the experiment recorded before panicking or hanging is often
/// the best clue to why.
pub fn run_isolated_observed<F>(
    id: &str,
    cfg: &RunConfig,
    rec: Arc<obs::MemRecorder>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, cfg, Some(rec), body)
}

fn run_isolated_inner<F>(
    id: &str,
    cfg: &RunConfig,
    rec: Option<Arc<obs::MemRecorder>>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let worker_rec = rec.clone();
    let worker_cfg = cfg.clone();
    std::thread::spawn(move || {
        let observed = move || match worker_rec {
            Some(r) => obs::with_recorder(r, body),
            None => body(),
        };
        let scoped = move || worker_cfg.scope(observed);
        let result = catch_unwind(AssertUnwindSafe(scoped)).map_err(panic_message);
        // The receiver may have given up at the deadline: ignore send errors.
        let _ = tx.send(result);
    });
    let result = match rx.recv_timeout(cfg.deadline) {
        Ok(r) => r,
        Err(_) => Err(format!("deadline of {:.0?} exceeded", cfg.deadline)),
    };
    ExperimentOutcome {
        id: id.to_string(),
        result,
        elapsed: started.elapsed(),
        obs: rec.map(|r| ObsSummary::of(&r)),
        attempts: 1,
    }
}

/// Run every experiment isolated (see [`run_isolated`]) under `cfg` on at
/// most `cfg.threads` queue workers, returning outcomes in paper order. A
/// failed experiment occupies its slot with a FAILED outcome; the rest
/// still run.
pub fn run_all_isolated(cfg: &RunConfig) -> Vec<ExperimentOutcome> {
    let ids = experiments::all_ids();
    let workers = cfg.threads.clamp(1, ids.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentOutcome>>> =
        ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let work = |_w: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Copy out the `&'static str` so the isolated closure is 'static.
            let Some(&id) = ids.get(i) else { break };
            let outcome =
                run_isolated(id, cfg, move || experiments::run_one(id).expect("known id"));
            // A worker that panicked between lock and store poisons the
            // slot mutex; recovering the guard keeps one bad experiment
            // from cascading into every later `.lock().unwrap()` and
            // taking down the whole campaign summary.
            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        };
        let mut handles = Vec::with_capacity(workers - 1);
        for w in 1..workers {
            handles.push(scope.spawn(move || work(w)));
        }
        work(0);
        for h in handles {
            if h.join().is_err() {
                // run_isolated never panics itself, but be safe.
                panic!("experiment worker panicked");
            }
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("every slot filled")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every table of an isolated run under `cfg`, in paper order.
    fn tables(cfg: &RunConfig) -> Vec<Table> {
        run_all_isolated(cfg)
            .into_iter()
            .map(|o| match o.result {
                Ok(t) => t,
                Err(why) => panic!("experiment {} failed: {why}", o.id),
            })
            .collect()
    }

    #[test]
    fn parallel_run_matches_serial_order_and_content() {
        let par = tables(&RunConfig::default());
        let ser = experiments::run_all();
        assert_eq!(par.len(), ser.len());
        for (p, s) in par.iter().zip(&ser) {
            assert_eq!(p.id, s.id, "order must be paper order");
            assert_eq!(p, s, "{}: parallel and serial runs must agree", p.id);
        }
    }

    #[test]
    fn bounded_run_matches_for_any_worker_count() {
        let ser = experiments::run_all();
        for threads in [1usize, 2, 100] {
            let par = tables(&RunConfig {
                threads,
                ..RunConfig::default()
            });
            assert_eq!(par, ser, "{threads} workers");
        }
    }

    #[test]
    fn different_configs_run_concurrently_without_a_lock() {
        // Two whole-suite runs under different pricing share the process
        // at the same time. Each must match its own one-worker reference,
        // and the two must differ, which proves the config reached the
        // spawned experiment threads.
        let flat = RunConfig {
            threads: 2,
            ..RunConfig::default()
        };
        let ecm = RunConfig {
            pricing: PricingBackend::Ecm,
            ..flat.clone()
        };
        let flat_ref = tables(&RunConfig {
            threads: 1,
            ..flat.clone()
        });
        let ecm_ref = tables(&RunConfig {
            threads: 1,
            ..ecm.clone()
        });
        assert!(
            flat_ref.iter().zip(&ecm_ref).any(|(f, e)| f != e),
            "ECM pricing must change at least one table"
        );
        let (got_flat, got_ecm) = std::thread::scope(|s| {
            let f = s.spawn(|| tables(&flat));
            let e = s.spawn(|| tables(&ecm));
            (f.join().unwrap(), e.join().unwrap())
        });
        assert_eq!(got_flat, flat_ref, "flat run disturbed by the ECM run");
        assert_eq!(got_ecm, ecm_ref, "ECM run disturbed by the flat run");
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads("1"), Ok(1));
        assert_eq!(parse_threads(" 8 "), Ok(8));
        assert_eq!(parse_threads("1000000"), Ok(1_000_000));
    }

    #[test]
    fn parse_threads_rejects_garbage() {
        // The satellite cases: unparseable, zero, negative, overflow, empty.
        for bad in ["abc", "0", "-3", "1.5", "", "  ", "99999999999999999999999"] {
            assert!(parse_threads(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    /// [`resolve`] with `raw` in an environment variable that only the
    /// calling test uses (`None` leaves it unset), so the environment path
    /// is exercised without touching a variable the runner reads. `std::env`
    /// serialises its own reads and writes, and nothing here reads the
    /// environment through libc.
    fn resolve_env<T>(
        var: &str,
        explicit: Option<T>,
        raw: Option<&str>,
        parse: impl FnOnce(&str) -> Result<T, String>,
        default: impl FnOnce() -> T,
    ) -> T {
        match raw {
            Some(v) => std::env::set_var(var, v),
            None => std::env::remove_var(var),
        }
        resolve(explicit, var, parse, default)
    }

    fn pricing(var: &str, explicit: Option<PricingBackend>, raw: Option<&str>) -> PricingBackend {
        resolve_env(var, explicit, raw, PricingBackend::parse, || {
            PricingBackend::Flat
        })
    }

    fn deadline(var: &str, explicit: Option<Duration>, raw: Option<&str>) -> Duration {
        let parse = |r: &str| parse_deadline_secs(r).map(Duration::from_secs);
        resolve_env(var, explicit, raw, parse, || DEFAULT_DEADLINE)
    }

    #[test]
    fn explicit_thread_request_wins() {
        let threads = |explicit| {
            resolve(
                explicit,
                "A64FX_REPRO_THREADS",
                parse_threads,
                densela::pool::available_parallelism,
            )
        };
        assert_eq!(threads(Some(3)), 3);
        assert!(threads(None) >= 1);
        // A zero request never reaches the resolver: the flag parser
        // refuses it.
        assert!(parse_threads("0").is_err());
    }

    #[test]
    fn explicit_des_backend_wins() {
        // The flag beats the environment and the serial default.
        let b = resolve_env(
            "A64FX_TEST_DES_FLAG",
            Some(DesBackend::Sharded { shards: 4 }),
            Some("serial"),
            DesBackend::parse,
            || DesBackend::Serial,
        );
        assert_eq!(b, DesBackend::Sharded { shards: 4 });
    }

    #[test]
    fn explicit_pricing_beats_environment() {
        // The flag beats the environment and the flat default.
        let var = "A64FX_TEST_PRICING_FLAG";
        assert_eq!(
            pricing(var, Some(PricingBackend::Ecm), Some("flat")),
            PricingBackend::Ecm
        );
        assert_eq!(
            pricing(var, Some(PricingBackend::Flat), Some("ecm")),
            PricingBackend::Flat
        );
    }

    #[test]
    fn environment_pricing_used_when_no_flag() {
        let var = "A64FX_TEST_PRICING_ENV";
        assert_eq!(pricing(var, None, Some(" ECM ")), PricingBackend::Ecm);
        assert_eq!(pricing(var, None, Some("flat")), PricingBackend::Flat);
        assert_eq!(pricing(var, None, None), PricingBackend::Flat);
    }

    #[test]
    fn garbage_pricing_environment_falls_back_to_flat() {
        // A typo in a login script must never change results: every
        // unrecognised value degrades to the flat reference model.
        for bad in ["roofline", "", "ecm2", "Ecm Model", "1"] {
            assert_eq!(
                pricing("A64FX_TEST_PRICING_GARBAGE", None, Some(bad)),
                PricingBackend::Flat,
                "{bad:?} must fall back to flat"
            );
        }
    }

    #[test]
    fn parse_deadline_accepts_positive_seconds() {
        assert_eq!(parse_deadline_secs("1"), Ok(1));
        assert_eq!(parse_deadline_secs(" 600 "), Ok(600));
        assert_eq!(parse_deadline_secs("86400"), Ok(86_400));
    }

    #[test]
    fn parse_deadline_rejects_garbage() {
        for bad in [
            "abc",
            "0",
            "-5",
            "2.5",
            "",
            "  ",
            "10s",
            "99999999999999999999999",
        ] {
            assert!(
                parse_deadline_secs(bad).is_err(),
                "{bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn explicit_deadline_beats_environment() {
        assert_eq!(
            deadline(
                "A64FX_TEST_DEADLINE_FLAG",
                Some(Duration::from_secs(5)),
                Some("99")
            ),
            Duration::from_secs(5)
        );
        // A zero request never reaches the resolver: the flag parser
        // refuses it.
        assert!(parse_deadline_secs("0").is_err());
    }

    #[test]
    fn environment_deadline_used_when_no_flag() {
        let var = "A64FX_TEST_DEADLINE_ENV";
        assert_eq!(deadline(var, None, Some("42")), Duration::from_secs(42));
        assert_eq!(deadline(var, None, None), DEFAULT_DEADLINE);
    }

    #[test]
    fn garbage_deadline_environment_falls_back_to_default() {
        // A typo in a login script must never change results: every
        // unrecognised value degrades to the ten-minute default.
        for bad in ["soon", "", "0", "-1", "5 minutes"] {
            assert_eq!(
                deadline("A64FX_TEST_DEADLINE_GARBAGE", None, Some(bad)),
                DEFAULT_DEADLINE,
                "{bad:?} must fall back to the default"
            );
        }
    }

    #[test]
    fn isolated_outcomes_record_one_attempt() {
        let o = run_isolated("once", &RunConfig::default(), || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn isolated_panic_becomes_failed_outcome() {
        let o = run_isolated("boom", &RunConfig::default(), || {
            panic!("deliberate test panic");
        });
        assert!(o.failed());
        let why = o.result.as_ref().unwrap_err();
        assert!(why.contains("deliberate test panic"), "{why}");
        assert!(o.render().contains("boom FAILED"));
    }

    #[test]
    fn isolated_deadline_overrun_becomes_failed_outcome() {
        let cfg = RunConfig {
            deadline: Duration::from_millis(50),
            ..RunConfig::default()
        };
        let o = run_isolated("sleepy", &cfg, || {
            std::thread::sleep(Duration::from_secs(30));
            unreachable!("the runner must not wait for this");
        });
        assert!(o.failed());
        assert!(o.result.as_ref().unwrap_err().contains("deadline"));
        assert!(o.elapsed < Duration::from_secs(5), "must give up promptly");
    }

    #[test]
    fn isolated_success_returns_the_table() {
        let o = run_isolated("ok", &RunConfig::default(), || {
            experiments::run_one("t1").expect("known id")
        });
        assert!(!o.failed());
        assert_eq!(o.result.as_ref().unwrap().id, "T1");
        assert!(o.obs.is_none(), "unobserved runs carry no obs summary");
        assert!(!o.render().contains("[obs"));
    }

    #[test]
    fn observed_run_summarises_recording_in_render() {
        let rec = Arc::new(obs::MemRecorder::new());
        let o = run_isolated_observed("ok", &RunConfig::default(), rec.clone(), || {
            // The recorder is installed on the worker thread, so ambient
            // instrumentation inside the body lands in `rec`.
            obs::span("app.phase", "warmup", 0.0, 1.0, &[]);
            experiments::run_one("t1").expect("known id")
        });
        assert!(!o.failed());
        let summary = o.obs.expect("observed run must carry a summary");
        assert!(summary.totals.spans >= 1, "body span must be recorded");
        assert_eq!(summary.totals, rec.totals());
        let rendered = o.render();
        assert!(rendered.contains("[obs ok]"), "{rendered}");
        assert!(rendered.contains("spans"), "{rendered}");
        // The table itself is identical to the unobserved run.
        let plain = run_isolated("ok", &RunConfig::default(), || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.result.unwrap(), plain.result.unwrap());
    }

    #[test]
    fn observed_failure_still_reports_partial_recording() {
        let rec = Arc::new(obs::MemRecorder::new());
        let o = run_isolated_observed("boom", &RunConfig::default(), rec, || {
            obs::add("progress.marker", 1);
            panic!("deliberate test panic");
        });
        assert!(o.failed());
        let summary = o.obs.expect("failed observed runs keep their summary");
        assert_eq!(summary.totals.metric_points, 1);
        assert!(o.render().contains("FAILED"));
        assert!(o.render().contains("[obs boom]"));
    }
}
