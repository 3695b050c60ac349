//! Parallel experiment runner, hardened against misbehaving experiments.
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

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::experiments;
use crate::report::Table;

/// Default wall-clock budget for one experiment. Generous: the slowest
/// artefact takes tens of seconds on one core; ten minutes only trips on a
/// genuine hang. Override with `repro --deadline-secs` or
/// `A64FX_DEADLINE_SECS` (see [`resolve`]).
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
/// The settings resolved this way are the worker count
/// (`A64FX_REPRO_THREADS`, [`parse_threads`], `available_parallelism`),
/// the per-experiment deadline (`A64FX_DEADLINE_SECS`,
/// [`parse_deadline_secs`], [`DEFAULT_DEADLINE`]), the DES backend
/// (`A64FX_DES_BACKEND`, `netsim::DesBackend::parse`, serial) and the
/// pricing backend (`A64FX_PRICING`,
/// [`PricingBackend::parse`](crate::costmodel::PricingBackend::parse),
/// flat).
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
/// `catch_unwind`, with a wall-clock `deadline`. A panic or overrun
/// becomes an `Err` in the outcome instead of propagating.
///
/// On deadline overrun the worker thread is abandoned (detached, still
/// running); the caller gets its FAILED outcome immediately. That is the
/// right trade for a CLI run — `repro` exits soon after and the OS reaps
/// the stragglers.
pub fn run_isolated<F>(id: &str, deadline: Duration, body: F) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, deadline, None, body)
}

/// [`run_isolated`] with `rec` installed as the worker thread's ambient
/// recorder for the duration of the experiment body. The outcome carries
/// an [`ObsSummary`] of what was captured — also on failure, since
/// whatever the experiment recorded before panicking or hanging is often
/// the best clue to why.
pub fn run_isolated_observed<F>(
    id: &str,
    deadline: Duration,
    rec: Arc<obs::MemRecorder>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    run_isolated_inner(id, deadline, Some(rec), body)
}

fn run_isolated_inner<F>(
    id: &str,
    deadline: Duration,
    rec: Option<Arc<obs::MemRecorder>>,
    body: F,
) -> ExperimentOutcome
where
    F: FnOnce() -> Table + Send + 'static,
{
    let started = Instant::now();
    let (tx, rx) = mpsc::channel();
    let worker_rec = rec.clone();
    std::thread::spawn(move || {
        let observed = move || match worker_rec {
            Some(r) => obs::with_recorder(r, body),
            None => body(),
        };
        let result = catch_unwind(AssertUnwindSafe(observed)).map_err(panic_message);
        // The receiver may have given up at the deadline: ignore send errors.
        let _ = tx.send(result);
    });
    let result = match rx.recv_timeout(deadline) {
        Ok(r) => r,
        Err(_) => Err(format!("deadline of {:.0?} exceeded", deadline)),
    };
    ExperimentOutcome {
        id: id.to_string(),
        result,
        elapsed: started.elapsed(),
        obs: rec.map(|r| ObsSummary::of(&r)),
        attempts: 1,
    }
}

/// Run every experiment isolated (see [`run_isolated`]) on at most
/// `workers` queue workers, returning outcomes in paper order. A failed
/// experiment occupies its slot with a FAILED outcome; the rest still run.
pub fn run_all_isolated(workers: usize, deadline: Duration) -> Vec<ExperimentOutcome> {
    let ids = experiments::all_ids();
    let workers = workers.clamp(1, ids.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExperimentOutcome>>> =
        ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let work = |_w: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            // Copy out the `&'static str` so the isolated closure is 'static.
            let Some(&id) = ids.get(i) else { break };
            let outcome = run_isolated(id, deadline, move || {
                experiments::run_one(id).expect("known id")
            });
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

/// Run every experiment concurrently on at most `available_parallelism`
/// workers, returning them in paper order.
pub fn run_all_parallel() -> Vec<Table> {
    run_all_parallel_bounded(densela::pool::available_parallelism())
}

/// Run every experiment concurrently on at most `workers` worker threads
/// (at least one), returning them in paper order.
///
/// # Panics
/// Panics if any experiment fails; use [`run_all_isolated`] to degrade to
/// FAILED entries instead.
pub fn run_all_parallel_bounded(workers: usize) -> Vec<Table> {
    run_all_isolated(workers, DEFAULT_DEADLINE)
        .into_iter()
        .map(|o| match o.result {
            Ok(t) => t,
            Err(why) => panic!("experiment {} failed: {why}", o.id),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costmodel::PricingBackend;

    #[test]
    fn parallel_run_matches_serial_order_and_content() {
        let par = run_all_parallel();
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
        for workers in [1usize, 2, 100] {
            let par = run_all_parallel_bounded(workers);
            assert_eq!(par, ser, "{workers} workers");
        }
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
            Some(netsim::DesBackend::Sharded { shards: 4 }),
            Some("serial"),
            netsim::DesBackend::parse,
            || netsim::DesBackend::Serial,
        );
        assert_eq!(b, netsim::DesBackend::Sharded { shards: 4 });
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
        let o = run_isolated("once", DEFAULT_DEADLINE, || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.attempts, 1);
    }

    #[test]
    fn isolated_panic_becomes_failed_outcome() {
        let o = run_isolated("boom", DEFAULT_DEADLINE, || {
            panic!("deliberate test panic");
        });
        assert!(o.failed());
        let why = o.result.as_ref().unwrap_err();
        assert!(why.contains("deliberate test panic"), "{why}");
        assert!(o.render().contains("boom FAILED"));
    }

    #[test]
    fn isolated_deadline_overrun_becomes_failed_outcome() {
        let o = run_isolated("sleepy", Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_secs(30));
            unreachable!("the runner must not wait for this");
        });
        assert!(o.failed());
        assert!(o.result.as_ref().unwrap_err().contains("deadline"));
        assert!(o.elapsed < Duration::from_secs(5), "must give up promptly");
    }

    #[test]
    fn isolated_success_returns_the_table() {
        let o = run_isolated("ok", DEFAULT_DEADLINE, || {
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
        let o = run_isolated_observed("ok", DEFAULT_DEADLINE, rec.clone(), || {
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
        let plain = run_isolated("ok", DEFAULT_DEADLINE, || {
            experiments::run_one("t1").expect("known id")
        });
        assert_eq!(o.result.unwrap(), plain.result.unwrap());
    }

    #[test]
    fn observed_failure_still_reports_partial_recording() {
        let rec = Arc::new(obs::MemRecorder::new());
        let o = run_isolated_observed("boom", DEFAULT_DEADLINE, rec, || {
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
