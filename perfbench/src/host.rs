//! Facts about the host the benchmark runs on, and its measured ceilings.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The process's resident-set high-water mark, in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mib() -> f64 {
    // `struct rusage` on Linux: two `struct timeval`s, then fourteen
    // `long`s of which `ru_maxrss` (KiB) is the first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable struct with the layout of the
    // C `struct rusage` on 64-bit Linux, which is all getrusage writes to.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.maxrss as f64 / 1024.0
}

/// The largest data or unified cache the CPU reports through `cpuid`, in
/// bytes (`None` where the instruction or leaf is unavailable).
#[cfg(target_arch = "x86_64")]
pub fn llc_bytes() -> Option<u64> {
    use std::arch::x86_64::{__cpuid, __cpuid_count};
    // Intel enumerates caches on leaf 4, AMD on leaf 0x8000_001d; both
    // use the same register layout.
    let max_basic = __cpuid(0).eax;
    let max_ext = __cpuid(0x8000_0000).eax;
    let leaf = if max_basic >= 4 && __cpuid_count(4, 0).eax & 0x1f != 0 {
        4
    } else if max_ext >= 0x8000_001d {
        0x8000_001d
    } else {
        return None;
    };
    let mut largest = None;
    for sub in 0..16 {
        let r = __cpuid_count(leaf, sub);
        let kind = r.eax & 0x1f;
        if kind == 0 {
            break;
        }
        if kind == 2 {
            continue; // instruction cache
        }
        let ways = u64::from((r.ebx >> 22) & 0x3ff) + 1;
        let parts = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        let size = ways * parts * line * sets;
        largest = largest.max(Some(size));
    }
    largest
}

/// The largest cache size is unknown off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub fn llc_bytes() -> Option<u64> {
    None
}

/// The commit the sources were checked out at, read from `.git` under
/// `root`; `"none"` when `root` is not a git checkout.
pub fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Entries of the speed probe's pointer-chase cycle: 128 KiB of `u32`,
/// inside one core's L2.
pub const PROBE_CHASE_ELEMS: usize = 32 << 10;

/// Keys of the speed probe's hash map: about 0.5 MiB of table, inside L2
/// and small beside every workload's own memory.
pub const PROBE_HASH_KEYS: usize = 16 << 10;

/// What [`SpeedProbe::sample`] takes, in seconds, on the host the bounds
/// in `BENCHMARK.json` were tuned on (a 2-vCPU Xeon VM). It only scales
/// the normalised metrics to read as seconds on that host.
pub const PROBE_NOMINAL_S: f64 = 0.011;

/// A fixed, single-threaded reference workload that tracks how fast the
/// host runs this process right now. On a shared host the speed of a
/// vCPU drifts by tens of percent over minutes, with co-tenant load;
/// dividing a workload's time by the probe's time, both taken in the same
/// run, cancels most of that drift. The probe runs none of the program's
/// code, so a change to the program moves the workload's time and not
/// the probe's.
#[derive(Debug)]
pub struct SpeedProbe {
    cycle: Vec<u32>,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

/// xorshift64: the probe's own fixed input stream.
fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl SpeedProbe {
    /// Build the probe's pointer-chase cycle (one cycle through every
    /// entry, by Sattolo's shuffle).
    pub fn new() -> Self {
        let mut cycle: Vec<u32> = (0..PROBE_CHASE_ELEMS as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..cycle.len()).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            cycle.swap(i, j);
        }
        SpeedProbe { cycle }
    }

    /// One timing of the probe: the geometric mean, in seconds, of three
    /// kernels of about 10–20 ms each — a dependent-load chase through
    /// L2, hash-map updates and look-ups, and small allocations with a
    /// sort and an ordered map. Together they stand for the latency-bound,
    /// branchy, allocating host code the workloads run.
    pub fn sample(&self) -> f64 {
        let (chase, chase_s) = crate::timed(|| {
            let mut i = 0u32;
            for _ in 0..2_000_000 {
                i = self.cycle[i as usize];
            }
            i
        });
        let (hashed, hash_s) = crate::timed(|| {
            let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
                HashMap::with_capacity_and_hasher(PROBE_HASH_KEYS, Default::default());
            let mask = PROBE_HASH_KEYS as u64 - 1;
            let (mut x, mut sum) = (12_345u64, 0u64);
            for i in 0..200_000u64 {
                let r = xorshift(&mut x);
                *map.entry(r & mask).or_insert(0) += i;
                sum = sum.wrapping_add(map.get(&((r >> 20) & mask)).copied().unwrap_or(0));
            }
            sum
        });
        let (allocated, alloc_s) = crate::timed(|| {
            let mut x = 7u64;
            let mut total = 0usize;
            for _ in 0..200 {
                let mut vs: Vec<Vec<f64>> = (0..64)
                    .map(|_| vec![1.0; (xorshift(&mut x) % 2048) as usize])
                    .collect();
                vs.sort_by_key(Vec::len);
                let names: BTreeMap<String, usize> = vs
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (format!("k{}-{i}", v.len()), v.iter().sum::<f64>() as usize))
                    .collect();
                total += names.values().sum::<usize>();
            }
            total
        });
        black_box((chase, hashed, allocated));
        (chase_s * hash_s * alloc_s).cbrt()
    }
}

/// Elements per triad array: 4 Mi doubles, 32 MiB each.
pub const TRIAD_ELEMS: usize = 4 << 20;

/// STREAM-triad bandwidth `a = b + s·c` over three [`TRIAD_ELEMS`]-long
/// arrays, split over `threads` threads; best of several passes, counting
/// 24 bytes per element (no write-allocate), in GB/s.
pub fn triad_gbs(threads: usize) -> f64 {
    let n = TRIAD_ELEMS;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let chunk = n.div_ceil(threads);
    let s = black_box(3.0);
    let mut best = f64::INFINITY;
    for _ in 0..8 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((x, y), z) in a.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a.iter().all(|&x| x == 7.0), "triad result");
    (24 * n) as f64 / best / 1e9
}

/// Multiply-add throughput with sixteen independent accumulator chains per
/// thread on `threads` threads, two flops per update, best of three, in
/// GFLOP/s. The build's default target features decide whether the pair
/// fuses; the figure is this build's ceiling either way.
pub fn fma_gflops(threads: usize) -> f64 {
    const CHAINS: usize = 16;
    const STEPS: usize = 8 << 20;
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let m = black_box(0.999_999);
                    let k = black_box(1e-7);
                    let mut acc = [1.0f64; CHAINS];
                    for _ in 0..STEPS {
                        for x in &mut acc {
                            *x = *x * m + k;
                        }
                    }
                    black_box(acc);
                });
            }
        });
        best = best.min(t.elapsed().as_secs_f64());
    }
    (2 * CHAINS * STEPS * threads) as f64 / best / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_probe_chases_one_full_cycle_and_times_positive() {
        let probe = SpeedProbe::new();
        let (mut i, mut steps) = (probe.cycle[0], 1);
        while i != 0 {
            i = probe.cycle[i as usize];
            steps += 1;
        }
        assert_eq!(steps, PROBE_CHASE_ELEMS);
        let s = probe.sample();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
