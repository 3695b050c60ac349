//! Persistent kernel thread pool — the shared-memory runtime underneath the
//! "OpenMP" half of the paper's MPI+OpenMP configurations.
//!
//! The old `sparsela::parallel::Team` spawned a fresh scoped-thread team on
//! *every* spmv/dot/axpy call, so a CG solve paid 4–5 thread spawn/join
//! cycles per iteration — at realistic sizes the spawn overhead swamped the
//! parallel speedup. [`KernelPool`] spawns its workers once: each dispatch
//! is a generation-counted job publication (one mutex + condvar broadcast),
//! the caller itself executes lane 0, and completion is a counted join. A
//! CG solve on top of it spawns threads exactly once, like a persistent
//! OpenMP team pinned for the lifetime of a rank.
//!
//! Determinism: the pool never reduces anything itself. Kernels give every
//! lane a disjoint output range (or a private partial slot) and combine the
//! partials *in lane order* on the calling thread, so for a fixed thread
//! count every run is bit-identical — the property the repo's determinism
//! tests demand of the whole simulator.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

/// A published job: a type-erased reference to the caller's closure, valid
/// only until the dispatch that published it returns.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointer is only dereferenced by workers between publication
// and the completion join inside `KernelPool::run`, while the closure it
// points to is still alive on the calling thread's stack; the closure is
// `Sync`, so shared calls from several workers are allowed.
unsafe impl Send for Job {}

struct PoolState {
    /// Bumped once per dispatch; workers run a job exactly once per bump.
    generation: u64,
    job: Option<Job>,
    /// Workers still executing the current generation's job.
    remaining: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<PoolState>,
    /// Workers wait here for a new generation.
    work_cv: Condvar,
    /// The dispatching caller waits here for `remaining == 0`.
    done_cv: Condvar,
}

/// A persistent team of worker threads for data-parallel kernels.
///
/// Lane 0 is the calling thread; lanes `1..threads` are long-lived workers.
/// [`KernelPool::run`] executes one closure on every lane and returns when
/// all lanes have finished. With `threads == 1` no OS threads exist at all
/// and `run` degenerates to a plain call — the serial fallback.
///
/// The pool is `Sync` and may be shared (a cloned `sparsela::Team` shares
/// one): concurrent dispatches are serialised, each running to completion
/// on every lane before the next is published.
pub struct KernelPool {
    shared: Arc<Shared>,
    /// Held by a dispatching caller for the whole of [`KernelPool::run`].
    dispatch: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for KernelPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl KernelPool {
    /// Spawn a pool of `threads` lanes (`threads - 1` OS threads).
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a kernel pool needs at least one lane");
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                generation: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (1..threads)
            .map(|lane| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("kernel-pool-{lane}"))
                    .spawn(move || worker_loop(&shared, lane))
                    .expect("spawning a pool worker failed")
            })
            .collect();
        KernelPool {
            shared,
            dispatch: Mutex::new(()),
            workers,
            threads,
        }
    }

    /// A pool sized to the machine: `std::thread::available_parallelism`.
    pub fn with_available_parallelism() -> Self {
        Self::new(available_parallelism())
    }

    /// Lanes in the pool (including the caller's lane 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Jobs dispatched to the workers so far — the generation counter, made
    /// test-visible. Conformance tests use it to prove a kernel actually
    /// took the pooled path rather than silently falling back to the serial
    /// one (a single-lane pool never dispatches and always reports 0).
    pub fn dispatches(&self) -> u64 {
        if self.threads == 1 {
            return 0;
        }
        self.shared.state.lock().unwrap().generation
    }

    /// Execute `f(lane)` on every lane concurrently; lane 0 runs on the
    /// calling thread. Returns after all lanes finished.
    ///
    /// `f` must treat `lane` as its identity and touch disjoint data per
    /// lane; the pool imposes no other structure.
    ///
    /// Callers on other threads wait until this dispatch has finished, so
    /// `f` must not dispatch on the same pool: calling `run` from inside a
    /// lane would deadlock.
    ///
    /// # Panics
    /// Re-raises (as a fresh panic) if any lane's closure panicked.
    pub fn run<F: Fn(usize) + Sync>(&self, f: F) {
        if self.threads == 1 {
            f(0);
            return;
        }
        // A panicking job poisons this lock on its way out; the pool state
        // is consistent by then, so the poison carries no information.
        let _dispatch = self.dispatch.lock().unwrap_or_else(PoisonError::into_inner);
        // SAFETY: only the lifetime is erased. Workers drop their last use
        // of the pointer before decrementing `remaining`, and this function
        // does not return (keeping `f` alive) until `remaining == 0`. The
        // dispatch lock keeps any other caller from publishing over it.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(&f)
                as *const _
        });
        let generation;
        {
            let mut st = self.shared.state.lock().unwrap();
            assert_eq!(st.remaining, 0, "dispatch while a job is still running");
            st.job = Some(job);
            st.generation += 1;
            generation = st.generation;
            st.remaining = self.workers.len();
            self.shared.work_cv.notify_all();
        }
        let lane0_panicked = catch_unwind(AssertUnwindSafe(|| f(0))).is_err();
        let mut st = self.shared.state.lock().unwrap();
        while st.remaining > 0 {
            st = self.shared.done_cv.wait(st).unwrap();
        }
        st.job = None;
        let worker_panicked = std::mem::replace(&mut st.panicked, false);
        drop(st);
        if obs::enabled() {
            // The pool has no simulated clock; spans live on a logical
            // timeline where each dispatch generation occupies one unit.
            obs::add("pool.dispatches", 1);
            obs::span(
                "pool",
                "pool.dispatch",
                (generation - 1) as f64,
                1.0,
                &[("lanes", obs::AttrValue::U64(self.threads as u64))],
            );
        }
        if lane0_panicked || worker_panicked {
            panic!("kernel pool job panicked");
        }
    }
}

impl Drop for KernelPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared, lane: usize) {
    let mut seen_generation = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation != seen_generation {
                    seen_generation = st.generation;
                    break st.job.expect("a new generation always carries a job");
                }
                st = shared.work_cv.wait(st).unwrap();
            }
        };
        // SAFETY: see `KernelPool::run` — the closure outlives this call.
        let panicked = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(lane) })).is_err();
        let mut st = shared.state.lock().unwrap();
        if panicked {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// `std::thread::available_parallelism()` with a serial fallback.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A raw view of a `&mut [T]` that lanes of a pool job may write through
/// concurrently, PROVIDED every lane touches a disjoint set of indices.
///
/// This is the one unsafe escape hatch the pooled kernels need: a `Fn`
/// closure shared by all lanes cannot hold `&mut` to the output vector, so
/// the kernels partition the index space and go through this view.
pub struct SharedSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [T]>,
}

// SAFETY: access discipline is delegated to the callers of the unsafe
// methods — each lane must stay inside its own disjoint index set.
unsafe impl<T: Send> Send for SharedSlice<'_, T> {}
unsafe impl<T: Send> Sync for SharedSlice<'_, T> {}

impl<'a, T> SharedSlice<'a, T> {
    /// Wrap an exclusive slice for the duration of one pool job.
    pub fn new(slice: &'a mut [T]) -> Self {
        SharedSlice {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exclusive access to `lo..hi`.
    ///
    /// # Safety
    /// No other lane may read or write any index in `lo..hi` while the
    /// returned reference lives.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// Read index `i`.
    ///
    /// # Safety
    /// No lane may be writing index `i` concurrently.
    pub unsafe fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i)
    }

    /// Write index `i`.
    ///
    /// # Safety
    /// No other lane may read or write index `i` concurrently.
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_lane_runs_exactly_once_per_dispatch() {
        let pool = KernelPool::new(4);
        let counts: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        for _ in 0..100 {
            pool.run(|lane| {
                counts[lane].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (lane, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 100, "lane {lane}");
        }
    }

    #[test]
    fn dispatch_counter_tracks_pooled_jobs() {
        let pool = KernelPool::new(3);
        assert_eq!(pool.dispatches(), 0);
        for expected in 1..=5u64 {
            pool.run(|_| {});
            assert_eq!(pool.dispatches(), expected);
        }
        // A single-lane pool runs inline and never dispatches.
        let serial = KernelPool::new(1);
        serial.run(|_| {});
        assert_eq!(serial.dispatches(), 0);
    }

    #[test]
    fn dispatches_record_pool_spans_on_logical_clock() {
        let rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(rec.clone(), || {
            let pool = KernelPool::new(3);
            pool.run(|_| {});
            pool.run(|_| {});
        });
        assert_eq!(rec.counter("pool.dispatches"), Some(2));
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].cat, "pool");
        assert_eq!(spans[0].start_us, 0.0);
        assert_eq!(
            spans[1].start_us, 1.0,
            "logical clock: one unit per generation"
        );
        // Serial pools run inline and record nothing.
        let serial_rec = std::sync::Arc::new(obs::MemRecorder::new());
        obs::with_recorder(serial_rec.clone(), || KernelPool::new(1).run(|_| {}));
        assert_eq!(serial_rec.counter("pool.dispatches"), None);
    }

    #[test]
    fn single_lane_pool_spawns_no_threads_and_runs_inline() {
        let pool = KernelPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        pool.run(|lane| {
            assert_eq!(lane, 0);
            assert_eq!(std::thread::current().id(), tid);
        });
    }

    #[test]
    fn shared_slice_disjoint_writes() {
        let pool = KernelPool::new(3);
        let mut data = vec![0usize; 3 * 7];
        let view = SharedSlice::new(&mut data);
        pool.run(|lane| {
            let chunk = unsafe { view.range_mut(lane * 7, (lane + 1) * 7) };
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = lane * 100 + i;
            }
        });
        for lane in 0..3 {
            for i in 0..7 {
                assert_eq!(data[lane * 7 + i], lane * 100 + i);
            }
        }
    }

    #[test]
    fn borrowed_state_is_visible_to_workers_and_results_flow_back() {
        let pool = KernelPool::new(4);
        let input: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let mut partials = vec![0.0f64; 4];
        let view = SharedSlice::new(&mut partials);
        pool.run(|lane| {
            let mut acc = 0.0;
            for (i, v) in input.iter().enumerate() {
                if i % 4 == lane {
                    acc += v;
                }
            }
            unsafe { view.set(lane, acc) };
        });
        let total: f64 = partials.iter().sum();
        assert_eq!(total, 999.0 * 1000.0 / 2.0);
    }

    #[test]
    fn pool_survives_a_panicking_job() {
        let pool = KernelPool::new(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            pool.run(|lane| {
                if lane == 1 {
                    panic!("deliberate");
                }
            });
        }));
        assert!(boom.is_err(), "panic must propagate to the dispatcher");
        // The pool still works afterwards.
        let counter = AtomicUsize::new(0);
        pool.run(|_| {
            counter.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    /// Several threads dispatching on one shared pool at once: every job
    /// must run on every lane and give the serial answer. Runs under a
    /// timeout so that a lost dispatch fails the test instead of hanging it.
    #[test]
    fn concurrent_dispatchers_share_one_pool_soundly() {
        const LANES: usize = 4;
        const CALLERS: usize = 4;
        const ROUNDS: usize = 400;
        const CHUNK: usize = 64;
        let sum_sq = |c: &[f64]| c.iter().fold(0.0, |acc, v| acc + v * v);
        let pool = Arc::new(KernelPool::new(LANES));
        // All callers start dispatching together.
        let start = Arc::new(std::sync::Barrier::new(CALLERS));
        let (tx, rx) = std::sync::mpsc::channel();
        let mut callers = Vec::new();
        for caller in 0..CALLERS {
            let (pool, start, tx) = (Arc::clone(&pool), Arc::clone(&start), tx.clone());
            callers.push(std::thread::spawn(move || {
                let result = catch_unwind(AssertUnwindSafe(|| {
                    start.wait();
                    for round in 0..ROUNDS {
                        let seed = (caller * ROUNDS + round) as f64;
                        let input: Vec<f64> = (0..LANES * CHUNK)
                            .map(|i| (seed + i as f64 * 0.37).sin())
                            .collect();
                        let mut out = vec![f64::NAN; LANES];
                        let view = SharedSlice::new(&mut out);
                        pool.run(|lane| {
                            let acc = sum_sq(&input[lane * CHUNK..(lane + 1) * CHUNK]);
                            // SAFETY: each lane writes only its own slot.
                            unsafe { view.set(lane, acc) };
                        });
                        for (lane, (got, chunk)) in out.iter().zip(input.chunks(CHUNK)).enumerate()
                        {
                            assert!(
                                !got.is_nan(),
                                "caller {caller} round {round}: lane {lane} never ran"
                            );
                            assert_eq!(
                                got.to_bits(),
                                sum_sq(chunk).to_bits(),
                                "caller {caller} round {round} lane {lane}"
                            );
                        }
                    }
                }));
                let _ = tx.send(result.map_err(|_| format!("caller {caller} failed")));
            }));
        }
        // Wait with a timeout, so a lost dispatch fails instead of hanging;
        // join only once every caller has reported.
        for _ in 0..CALLERS {
            match rx.recv_timeout(std::time::Duration::from_secs(30)) {
                Ok(result) => result.unwrap(),
                Err(_) => panic!("a dispatcher hung on the shared pool"),
            }
        }
        for c in callers {
            c.join().expect("callers catch their own panics");
        }
        assert_eq!(pool.dispatches(), (CALLERS * ROUNDS) as u64);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = KernelPool::new(0);
    }
}
