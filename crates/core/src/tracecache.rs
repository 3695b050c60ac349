//! Trace-once, simulate-many: a memo table for application traces.
//!
//! A [`Trace`] depends only on its application config and the rank
//! count — never on the simulated system, toolchain or layout — yet the
//! paper's tables sweep the same six workloads across five systems and
//! many node counts, rebuilding identical traces for every cell. A
//! [`TraceCache`] builds each distinct workload once: traces are keyed by
//! `(app id, config fingerprint, ranks)` and shared as `Arc<Trace>`
//! across experiments, the resilience runner and the conform suites.
//!
//! Correctness rests on two properties:
//!
//! * **Builders are pure.** `<app>::trace(cfg, ranks)` is a
//!   deterministic function of its arguments, so serving a cached trace
//!   is indistinguishable (bit-for-bit) from rebuilding it.
//! * **Fingerprints are injective in practice.** [`Fingerprint`] hashes
//!   every config field through a fixed 64-bit FNV-1a — no
//!   `DefaultHasher` seed randomness — so the same config always maps
//!   to the same key, across threads and runs. Tests pin collision
//!   resistance for near-miss configs (transposed fields, off-by-one
//!   sizes).
//!
//! The cache is an escape-hatched optimisation, not a semantic layer:
//! a run's [`RunConfig::trace_cache`] of `None` (`repro --no-cache`,
//! `A64FX_TRACE_CACHE=off`) rebuilds every trace, and cache-on vs
//! cache-off runs are byte-identical.
//!
//! Each cache is a value with its own capacity and disk directory
//! ([`TraceCache::new`]). The memory tier is **capacity-bounded**:
//! entries are charged their [`Trace::approx_bytes`] and evicted
//! least-recently-used — purity makes eviction bit-transparent, so a
//! million-distinct-workload campaign runs flat instead of growing
//! without bound. With a disk directory (`A64FX_TRACE_CACHE_DIR`), built
//! traces are also **persisted** as checksummed files
//! ([`crate::tracedisk`]) and reloaded across evictions and across
//! processes, with graceful fallback-to-rebuild on any corruption or
//! version mismatch.
//!
//! The free functions ([`fetch`], [`clear`], [`stats`],
//! [`resident_bytes`] and the per-app helpers) act on the current
//! thread's [`RunConfig`] scope, which defaults to the [`shared`] process
//! cache. Totals are exposed per cache through [`TraceCache::stats`] and
//! — when a recorder is installed — the
//! `trace_cache.{hits,misses,inserts,evictions}` and
//! `trace_cache.disk_{loads,stores,corrupt}` `obs` counters.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use a64fx_apps::castep::CastepConfig;
use a64fx_apps::cosa::CosaConfig;
use a64fx_apps::hpcg::HpcgConfig;
use a64fx_apps::minikab::MinikabConfig;
use a64fx_apps::nekbone::NekboneConfig;
use a64fx_apps::opensbli::OpensbliConfig;
use a64fx_apps::trace::Trace;

use crate::runner::RunConfig;

/// Content-keying for cacheable application configs: a stable app
/// namespace plus a deterministic 64-bit digest of every field.
pub trait Fingerprint {
    /// Application id — the cache-key namespace, so two apps whose
    /// configs happen to hash alike can never collide.
    const APP: &'static str;

    /// Deterministic digest of the full config. Must cover every field
    /// that influences the built trace (i.e. all of them) and must not
    /// depend on process-specific state such as hasher seeds.
    fn fingerprint(&self) -> u64;
}

/// A tiny stable FNV-1a (64-bit) hasher. `std`'s `DefaultHasher` is
/// seeded per process, which would still be *correct* for an in-process
/// cache but makes fingerprints unprintable/unpinnable in tests; FNV
/// gives the same digest everywhere, forever.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A hasher at the FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }

    /// Absorb raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// Absorb a `u64` (little-endian byte order).
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Absorb a `usize` (widened so 32- and 64-bit builds agree).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Absorb an `f64` by its IEEE-754 bit pattern, so `-0.0 != 0.0`
    /// and every NaN payload is distinguished — exactly the equality the
    /// trace builders themselves see.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint for HpcgConfig {
    const APP: &'static str = "hpcg";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.local.0);
        h.write_usize(self.local.1);
        h.write_usize(self.local.2);
        h.write_usize(self.mg_levels);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for MinikabConfig {
    const APP: &'static str = "minikab";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.dof);
        h.write_u64(self.nnz);
        h.write_usize(self.grid.0);
        h.write_usize(self.grid.1);
        h.write_usize(self.grid.2);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for NekboneConfig {
    const APP: &'static str = "nekbone";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.elements_per_rank);
        h.write_usize(self.poly);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for CosaConfig {
    const APP: &'static str = "cosa";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.blocks);
        h.write_usize(self.block_grid.0);
        h.write_usize(self.block_grid.1);
        h.write_usize(self.block_edge);
        h.write_usize(self.harmonics);
        h.write_u64(u64::from(self.iterations));
        h.finish()
    }
}

impl Fingerprint for CastepConfig {
    const APP: &'static str = "castep";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.grid);
        h.write_usize(self.bands);
        h.write_usize(self.h_applies);
        h.write_u64(u64::from(self.scf_cycles));
        h.finish()
    }
}

impl Fingerprint for OpensbliConfig {
    const APP: &'static str = "opensbli";
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_usize(self.grid);
        h.write_u64(u64::from(self.steps));
        h.write_f64(self.viscosity);
        h.write_f64(self.dt);
        h.finish()
    }
}

/// (app id, config fingerprint, ranks) — what a built trace depends on.
type Key = (&'static str, u64, u32);

/// One cached trace plus its LRU bookkeeping.
struct Entry {
    trace: Arc<Trace>,
    /// Capacity charge ([`Trace::approx_bytes`] at insert time).
    cost: u64,
    /// Logical clock of the last fetch that touched this entry.
    last_use: u64,
}

/// The memo table: entries, a logical use-clock, the bytes charged and
/// the cache's counters.
#[derive(Default)]
struct Store {
    map: HashMap<Key, Entry>,
    tick: u64,
    total_cost: u64,
    stats: CacheStats,
}

impl Store {
    /// Touch-and-get under LRU accounting.
    fn get(&mut self, key: &Key) -> Option<Arc<Trace>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(key)?;
        e.last_use = tick;
        Some(Arc::clone(&e.trace))
    }

    /// Insert under the byte cap, evicting least-recently-used entries
    /// first. A trace larger than the whole cap is returned to the
    /// caller uncached (evicting everything for it would just thrash).
    fn insert(&mut self, key: Key, trace: &Arc<Trace>, cap: u64) {
        let cost = trace.approx_bytes();
        if cost > cap {
            return;
        }
        while self.total_cost + cost > cap {
            let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
            else {
                break;
            };
            let evicted = self.map.remove(&victim).expect("victim exists");
            self.total_cost -= evicted.cost;
            self.stats.evictions += 1;
            if obs::enabled() {
                obs::add("trace_cache.evictions", 1);
            }
        }
        self.tick += 1;
        self.total_cost += cost;
        self.map.insert(
            key,
            Entry {
                trace: Arc::clone(trace),
                cost,
                last_use: self.tick,
            },
        );
    }
}

/// Capacity of the [`shared`] process cache: 256 MiB. Far above anything
/// the paper's sweeps build (traces are tens of kilobytes), so the bound
/// is pure insurance — a million-distinct-request campaign stays flat
/// instead of growing without limit.
pub const DEFAULT_CAPACITY_BYTES: u64 = 256 << 20;

/// Parse an `A64FX_TRACE_CACHE` value: `on`, `1`, `true` and `yes`
/// enable the cache; `off`, `0`, `false` and `no` disable it (any case,
/// surrounding whitespace ignored). Anything else is an `Err`, so a typo
/// warns and keeps the default instead of silently meaning "on".
pub fn parse_switch(raw: &str) -> Result<bool, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "on" | "1" | "true" | "yes" => Ok(true),
        "off" | "0" | "false" | "no" => Ok(false),
        _ => Err(format!("'{}' is not on/off", raw.trim())),
    }
}

/// A snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fetches served from the memo table.
    pub hits: u64,
    /// Fetches that had to build (or disk-load) the trace.
    pub misses: u64,
    /// Traces inserted (every miss).
    pub inserts: u64,
    /// Entries evicted under the capacity bound.
    pub evictions: u64,
    /// Memory misses served from the disk tier.
    pub disk_loads: u64,
    /// Traces persisted to the disk tier.
    pub disk_stores: u64,
    /// Disk files refused (corruption, truncation, version skew) and
    /// silently rebuilt.
    pub disk_corrupt: u64,
}

/// A bounded, optionally disk-backed trace memo table.
pub struct TraceCache {
    capacity: u64,
    disk_dir: Option<PathBuf>,
    store: Mutex<Store>,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("capacity", &self.capacity)
            .field("disk_dir", &self.disk_dir)
            .finish_non_exhaustive()
    }
}

impl TraceCache {
    /// An empty cache holding at most `capacity` bytes of traces, and
    /// persisting them under `disk_dir` when one is given.
    pub fn new(capacity: u64, disk_dir: Option<PathBuf>) -> Self {
        TraceCache {
            capacity,
            disk_dir,
            store: Mutex::new(Store::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Store> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the trace for `(cfg, ranks)`, building it with `build` on
    /// the first request and sharing the same `Arc` on every subsequent
    /// one.
    ///
    /// The bounded memory tier evicts least-recently-used entries past
    /// the capacity (cost = [`Trace::approx_bytes`]); an evicted key
    /// simply rebuilds on its next fetch — builders are pure, so
    /// eviction is bit-transparent. With a disk directory, a memory miss
    /// first tries the checksummed on-disk copy and falls back to
    /// rebuilding on *any* refusal (missing, corrupt, version skew), then
    /// persists what it built.
    ///
    /// The build runs under the table lock: builders are
    /// microsecond-cheap and this guarantees each key is built exactly
    /// once even when the experiment runner fetches the same workload
    /// from several worker threads at once.
    pub fn fetch<C: Fingerprint>(
        &self,
        cfg: &C,
        ranks: u32,
        build: impl FnOnce() -> Trace,
    ) -> Arc<Trace> {
        let key: Key = (C::APP, cfg.fingerprint(), ranks);
        let mut store = self.lock();
        if let Some(t) = store.get(&key) {
            store.stats.hits += 1;
            if obs::enabled() {
                obs::add("trace_cache.hits", 1);
            }
            return t;
        }
        store.stats.misses += 1;
        if obs::enabled() {
            obs::add("trace_cache.misses", 1);
        }
        // Disk tier first: a valid on-disk copy is bit-identical to a fresh
        // build (decode is exact and the builder is pure), so serving it is
        // transparent. Anything refused falls through to the builder.
        let (t, from_disk) = match &self.disk_dir {
            Some(d) => match crate::tracedisk::load(d, key.0, key.1, key.2) {
                Ok(t) => {
                    store.stats.disk_loads += 1;
                    if obs::enabled() {
                        obs::add("trace_cache.disk_loads", 1);
                    }
                    (Arc::new(t), true)
                }
                Err(crate::tracedisk::LoadError::Missing) => (Arc::new(build()), false),
                Err(_) => {
                    store.stats.disk_corrupt += 1;
                    if obs::enabled() {
                        obs::add("trace_cache.disk_corrupt", 1);
                    }
                    (Arc::new(build()), false)
                }
            },
            None => (Arc::new(build()), false),
        };
        store.stats.inserts += 1;
        if obs::enabled() {
            obs::add("trace_cache.inserts", 1);
        }
        store.insert(key, &t, self.capacity);
        if let (Some(d), false) = (&self.disk_dir, from_disk) {
            // Best-effort persist: a full disk or unwritable directory costs
            // the amortisation, never the run.
            match crate::tracedisk::store(d, key.0, key.1, key.2, &t) {
                Ok(()) => {
                    store.stats.disk_stores += 1;
                    if obs::enabled() {
                        obs::add("trace_cache.disk_stores", 1);
                    }
                }
                Err(why) => eprintln!("warning: trace cache persist failed: {why}"),
            }
        }
        t
    }

    /// Empty the memory tier (counters are untouched). Used by tests and
    /// chaos scenarios to force the disk tier or fresh rebuilds;
    /// bit-transparency makes this safe at any time.
    pub fn clear(&self) {
        let mut store = self.lock();
        store.map.clear();
        store.total_cost = 0;
    }

    /// This cache's counters (monotonic).
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Bytes currently charged against the capacity.
    pub fn resident_bytes(&self) -> u64 {
        self.lock().total_cost
    }
}

/// The process cache: [`DEFAULT_CAPACITY_BYTES`], memory only. It is
/// what [`RunConfig::default`] carries, so every thread outside an
/// explicit scope shares it.
pub fn shared() -> Arc<TraceCache> {
    static SHARED: OnceLock<Arc<TraceCache>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(TraceCache::new(DEFAULT_CAPACITY_BYTES, None))))
}

/// [`TraceCache::fetch`] on the current scope's cache. With the cache
/// off (`None`) this degenerates to `Arc::new(build())` — the exact
/// uncached behaviour, minus sharing.
pub fn fetch<C: Fingerprint>(cfg: &C, ranks: u32, build: impl FnOnce() -> Trace) -> Arc<Trace> {
    match RunConfig::current().trace_cache {
        Some(cache) => cache.fetch(cfg, ranks, build),
        None => {
            if obs::enabled() {
                obs::add("trace_cache.misses", 1);
            }
            Arc::new(build())
        }
    }
}

/// [`TraceCache::clear`] on the current scope's cache, if any.
pub fn clear() {
    if let Some(cache) = RunConfig::current().trace_cache {
        cache.clear();
    }
}

/// [`TraceCache::stats`] of the current scope's cache (all zero when the
/// cache is off).
pub fn stats() -> CacheStats {
    RunConfig::current()
        .trace_cache
        .map_or_else(CacheStats::default, |c| c.stats())
}

/// [`TraceCache::resident_bytes`] of the current scope's cache (0 when
/// the cache is off).
pub fn resident_bytes() -> u64 {
    RunConfig::current()
        .trace_cache
        .map_or(0, |c| c.resident_bytes())
}

/// Memoized [`a64fx_apps::hpcg::trace`].
pub fn hpcg(cfg: HpcgConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::hpcg::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::minikab::trace`].
pub fn minikab(cfg: MinikabConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::minikab::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::nekbone::trace`].
pub fn nekbone(cfg: NekboneConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::nekbone::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::cosa::trace`].
pub fn cosa(cfg: CosaConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::cosa::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::castep::trace`].
pub fn castep(cfg: CastepConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::castep::trace(cfg, ranks))
}

/// Memoized [`a64fx_apps::opensbli::trace`].
pub fn opensbli(cfg: OpensbliConfig, ranks: u32) -> Arc<Trace> {
    fetch(&cfg, ranks, || a64fx_apps::opensbli::trace(cfg, ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `body` with `cache` as the scope's trace cache (`None`: off).
    fn with_cache<T>(cache: Option<&Arc<TraceCache>>, body: impl FnOnce() -> T) -> T {
        RunConfig {
            trace_cache: cache.cloned(),
            ..RunConfig::default()
        }
        .scope(body)
    }

    /// A private cache of `capacity` bytes, memory only.
    fn private(capacity: u64) -> Arc<TraceCache> {
        Arc::new(TraceCache::new(capacity, None))
    }

    #[test]
    fn fingerprints_are_stable_across_calls() {
        let cfg = HpcgConfig::paper();
        assert_eq!(cfg.fingerprint(), cfg.fingerprint());
        assert_eq!(
            HpcgConfig::paper().fingerprint(),
            HpcgConfig::paper().fingerprint()
        );
    }

    #[test]
    fn distinct_configs_get_distinct_fingerprints() {
        // Asymmetric grid, so transposing its extents changes the config
        // (the paper's (80, 80, 80) would not).
        let base = HpcgConfig {
            local: (16, 32, 48),
            ..HpcgConfig::paper()
        };
        let mut seen = vec![base.fingerprint()];
        let variants = [
            HpcgConfig {
                local: (base.local.1, base.local.0, base.local.2),
                ..base
            },
            HpcgConfig {
                local: (base.local.0 + 1, base.local.1, base.local.2),
                ..base
            },
            HpcgConfig {
                mg_levels: base.mg_levels + 1,
                ..base
            },
            HpcgConfig {
                iterations: base.iterations + 1,
                ..base
            },
            // Field-transposition trap: mg_levels and iterations swapped.
            HpcgConfig {
                mg_levels: base.iterations as usize,
                iterations: base.mg_levels as u32,
                ..base
            },
        ];
        for v in variants {
            let fp = v.fingerprint();
            assert!(!seen.contains(&fp), "collision for {v:?}");
            seen.push(fp);
        }
    }

    #[test]
    fn f64_fields_fingerprint_by_bits() {
        let base = OpensbliConfig::paper();
        let tweaked = OpensbliConfig {
            dt: base.dt * (1.0 + 1e-15),
            ..base
        };
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let neg_zero = OpensbliConfig {
            viscosity: -0.0,
            ..base
        };
        let pos_zero = OpensbliConfig {
            viscosity: 0.0,
            ..base
        };
        assert_ne!(neg_zero.fingerprint(), pos_zero.fingerprint());
    }

    #[test]
    fn same_key_returns_pointer_equal_arc() {
        let cache = private(DEFAULT_CAPACITY_BYTES);
        with_cache(Some(&cache), || {
            let a = hpcg(HpcgConfig::paper(), 96);
            let b = hpcg(HpcgConfig::paper(), 96);
            assert!(Arc::ptr_eq(&a, &b), "cache must share one allocation");
            // A different rank count is a different workload.
            let c = hpcg(HpcgConfig::paper(), 48);
            assert!(!Arc::ptr_eq(&a, &c));
            assert_eq!(c.ranks, 48);
        });
    }

    #[test]
    fn disabled_cache_builds_fresh_but_identical_traces() {
        let (a, b) = with_cache(None, || {
            (
                nekbone(NekboneConfig::paper(), 48),
                nekbone(NekboneConfig::paper(), 48),
            )
        });
        assert!(!Arc::ptr_eq(&a, &b), "disabled cache must not share");
        let cached = with_cache(Some(&private(DEFAULT_CAPACITY_BYTES)), || {
            nekbone(NekboneConfig::paper(), 48)
        });
        assert_eq!(*a, *cached, "cached and fresh traces must be equal");
    }

    #[test]
    fn table_renders_byte_identical_cache_on_vs_off() {
        let t5 = || {
            crate::experiments::run_one("t5")
                .expect("t5 exists")
                .render()
        };
        let cache = private(DEFAULT_CAPACITY_BYTES);
        let on = with_cache(Some(&cache), t5);
        let on_again = with_cache(Some(&cache), t5);
        let off = with_cache(None, t5);
        assert!(cache.stats().hits > 0, "the second run must hit");
        assert_eq!(on, off, "cache must not change a byte of the report");
        assert_eq!(on, on_again, "cache hits must not either");
    }

    #[test]
    fn env_value_parsing() {
        for off in ["off", "OFF", " Off ", "0", "false", "FALSE", "no"] {
            assert_eq!(parse_switch(off), Ok(false), "{off:?} must disable");
        }
        for on in ["on", "1", "true", " Yes ", "ON"] {
            assert_eq!(parse_switch(on), Ok(true), "{on:?} must enable");
        }
        // Typos are refused, so `runner::resolve` warns and keeps the
        // default (on) instead of reading them as anything. The variable
        // is one only this test uses.
        let var = "A64FX_TEST_TRACE_CACHE_GARBAGE";
        for bad in ["offf", "", "  ", "anything", "disable", "2"] {
            assert!(parse_switch(bad).is_err(), "{bad:?} must be rejected");
            std::env::set_var(var, bad);
            assert!(crate::runner::resolve(None, var, parse_switch, || true));
        }
        std::env::set_var(var, "off");
        assert!(!crate::runner::resolve(None, var, parse_switch, || true));
    }

    #[test]
    fn lru_eviction_is_bit_transparent() {
        // Two distinct workloads under a cap that fits just one of them:
        // inserting the second must evict the first.
        let cfg_a = NekboneConfig {
            elements_per_rank: 31,
            poly: 5,
            iterations: 2,
        };
        let cfg_b = NekboneConfig {
            elements_per_rank: 37,
            poly: 5,
            iterations: 2,
        };
        let one = a64fx_apps::nekbone::trace(cfg_a, 3).approx_bytes() + 16;
        let cache = private(one);
        let (a1, a2) = with_cache(Some(&cache), || {
            let a1 = nekbone(cfg_a, 3);
            let _b = nekbone(cfg_b, 3);
            (a1, nekbone(cfg_a, 3))
        });
        assert!(cache.stats().evictions > 0, "a tiny cap must evict");
        assert!(
            !Arc::ptr_eq(&a1, &a2),
            "the evicted entry must have been rebuilt"
        );
        assert_eq!(*a1, *a2, "evict-then-refetch must be bit-transparent");
        assert!(cache.resident_bytes() <= one);
    }

    #[test]
    fn oversized_trace_is_served_but_not_cached() {
        let cfg = NekboneConfig {
            elements_per_rank: 41,
            poly: 5,
            iterations: 2,
        };
        let cache = private(1); // nothing fits
        let (a, b) = with_cache(Some(&cache), || (nekbone(cfg, 3), nekbone(cfg, 3)));
        assert!(!Arc::ptr_eq(&a, &b), "nothing may be cached under cap 1");
        assert_eq!(*a, *b);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn disk_tier_round_trips_and_survives_corruption() {
        let dir =
            std::env::temp_dir().join(format!("a64fx-tracecache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Arc::new(TraceCache::new(DEFAULT_CAPACITY_BYTES, Some(dir.clone())));
        let cfg = NekboneConfig {
            elements_per_rank: 43,
            poly: 5,
            iterations: 2,
        };
        let fetch = || with_cache(Some(&cache), || nekbone(cfg, 3));
        let fresh = fetch();
        assert_eq!(cache.stats().disk_stores, 1, "first build persists");
        // Drop the memory tier: the next fetch must come from disk and
        // be bit-identical to the fresh build.
        cache.clear();
        let loaded = fetch();
        assert_eq!(cache.stats().disk_loads, 1, "{:?}", cache.stats());
        assert_eq!(*fresh, *loaded);
        // Corrupt the file: the next cold fetch must refuse it, count
        // it, and rebuild the identical trace.
        let path = crate::tracedisk::file_path(&dir, "nekbone", cfg.fingerprint(), 3);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid_byte = bytes.len() / 3;
        bytes[mid_byte] ^= 0x55;
        std::fs::write(&path, &bytes).unwrap();
        cache.clear();
        let rebuilt = fetch();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(cache.stats().disk_corrupt, 1, "{:?}", cache.stats());
        assert_eq!(*fresh, *rebuilt, "corruption must fall back to rebuild");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cfg = CosaConfig {
            blocks: 13,
            block_grid: (13, 1),
            block_edge: 7,
            harmonics: 2,
            iterations: 3,
        };
        let cache = private(DEFAULT_CAPACITY_BYTES);
        let counted = with_cache(Some(&cache), || {
            let _a = cosa(cfg, 4);
            let _b = cosa(cfg, 4);
            stats()
        });
        assert_eq!(counted, cache.stats(), "stats() reads the scope's cache");
        assert_eq!((counted.misses, counted.inserts, counted.hits), (1, 1, 1));
        assert_eq!(with_cache(None, stats), CacheStats::default());
    }
}
