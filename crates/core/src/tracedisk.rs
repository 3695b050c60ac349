//! Checksummed disk persistence for built application traces.
//!
//! The in-memory trace cache ([`crate::tracecache`]) amortises trace
//! construction within one process; this module amortises it *across*
//! processes: when a cache directory is configured
//! (`A64FX_TRACE_CACHE_DIR`, or the `disk_dir` of
//! [`crate::tracecache::TraceCache::new`]),
//! every built trace is also written to
//! `<dir>/<app>-<fingerprint>-r<ranks>.trace` and later fetches — in this
//! process after an eviction, or in the next process entirely — load it
//! back instead of rebuilding.
//!
//! The store is **corruption-tolerant by construction**: a file is a
//! magic tag, a format version, the encoded trace, and a trailing FNV-1a
//! digest of everything before it. [`load`] re-derives the digest and
//! refuses the file on any mismatch — torn writes, bit flips, version
//! skew, short reads — in which case the caller silently rebuilds the
//! trace (counted as `trace_cache.disk_corrupt`). A cache file can
//! therefore *never* change a result: the worst corruption can do is
//! cost one rebuild.
//!
//! Encoding is a fixed little-endian byte layout written and read by
//! hand (the workspace has no serialisation dependency). Round-trip
//! equality is pinned by tests here and bit-transparency by the conform
//! `campaign` suite.

use std::io::Write;
use std::path::{Path, PathBuf};

use a64fx_apps::trace::{CheckpointSpec, Phase, Trace, WorkDist};
use a64fx_apps::KernelClass;
use densela::Work;

use crate::tracecache::Fnv1a;

/// File magic: identifies a trace-cache file.
pub const MAGIC: &[u8; 8] = b"A64FXTRC";

/// Format version. Bump on any layout change: readers refuse other
/// versions and the caller rebuilds (never misinterprets old bytes).
pub const VERSION: u32 = 1;

/// Why a cache file was refused. Every variant is recoverable — the
/// caller rebuilds the trace from its pure builder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The file does not exist (a plain miss, not corruption).
    Missing,
    /// The file exists but could not be read.
    Io(String),
    /// Magic/version/checksum/layout mismatch: the bytes are not a valid
    /// current-version trace.
    Corrupt(String),
}

/// The cache file name for a trace key.
pub fn file_name(app: &str, fingerprint: u64, ranks: u32) -> String {
    format!("{app}-{fingerprint:016x}-r{ranks}.trace")
}

/// The full cache path for a trace key under `dir`.
pub fn file_path(dir: &Path, app: &str, fingerprint: u64, ranks: u32) -> PathBuf {
    dir.join(file_name(app, fingerprint, ranks))
}

// ---- encoding -------------------------------------------------------------

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_work(out: &mut Vec<u8>, w: Work) {
    put_u64(out, w.flops);
    put_u64(out, w.bytes_read);
    put_u64(out, w.bytes_written);
}

/// Stable class codes (explicit, so reordering the enum can never
/// silently reinterpret old files).
fn class_code(c: KernelClass) -> u8 {
    match c {
        KernelClass::SpMV => 0,
        KernelClass::SymGS => 1,
        KernelClass::StencilFD => 2,
        KernelClass::CfdFlux => 3,
        KernelClass::SmallGemm => 4,
        KernelClass::Blas3 => 5,
        KernelClass::Fft => 6,
        KernelClass::VectorOp => 7,
        KernelClass::Dot => 8,
    }
}

fn class_from(code: u8) -> Option<KernelClass> {
    Some(match code {
        0 => KernelClass::SpMV,
        1 => KernelClass::SymGS,
        2 => KernelClass::StencilFD,
        3 => KernelClass::CfdFlux,
        4 => KernelClass::SmallGemm,
        5 => KernelClass::Blas3,
        6 => KernelClass::Fft,
        7 => KernelClass::VectorOp,
        8 => KernelClass::Dot,
        _ => return None,
    })
}

fn put_phase(out: &mut Vec<u8>, p: &Phase) {
    match p {
        Phase::Compute {
            class,
            work,
            ws_bytes,
        } => {
            out.push(0);
            out.push(class_code(*class));
            put_u64(out, *ws_bytes);
            match work {
                WorkDist::Uniform(w) => {
                    out.push(0);
                    put_work(out, *w);
                }
                WorkDist::PerRank(v) => {
                    out.push(1);
                    put_u64(out, v.len() as u64);
                    for w in v {
                        put_work(out, *w);
                    }
                }
            }
        }
        Phase::Allreduce { bytes } => {
            out.push(1);
            put_u64(out, *bytes);
        }
        Phase::Halo { pairs } => {
            out.push(2);
            put_u64(out, pairs.len() as u64);
            for &(a, b, bytes) in pairs {
                put_u32(out, a);
                put_u32(out, b);
                put_u64(out, bytes);
            }
        }
        Phase::Alltoall { bytes_per_pair } => {
            out.push(3);
            put_u64(out, *bytes_per_pair);
        }
        Phase::Allgather { bytes } => {
            out.push(4);
            put_u64(out, *bytes);
        }
        Phase::Barrier => out.push(5),
        Phase::Overhead { us } => {
            out.push(6);
            put_f64(out, *us);
        }
    }
}

/// Encode a trace into the versioned, checksummed file format.
pub fn encode(t: &Trace) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, t.ranks);
    put_u32(&mut out, t.iterations);
    put_f64(&mut out, t.fom_flops);
    match &t.checkpoint {
        None => out.push(0),
        Some(c) => {
            out.push(1);
            put_u64(&mut out, c.bytes_per_rank);
            put_u32(&mut out, c.suggested_interval_iters);
        }
    }
    for phases in [&t.prologue, &t.body] {
        put_u64(&mut out, phases.len() as u64);
        for p in phases {
            put_phase(&mut out, p);
        }
    }
    let mut h = Fnv1a::new();
    h.write_bytes(&out);
    put_u64(&mut out, h.finish());
    out
}

// ---- decoding -------------------------------------------------------------

/// A bounds-checked little-endian cursor; every read can fail, and any
/// failure rejects the whole file.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], LoadError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| LoadError::Corrupt("truncated payload".into()))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, LoadError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, LoadError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, LoadError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, LoadError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn work(&mut self) -> Result<Work, LoadError> {
        Ok(Work::new(self.u64()?, self.u64()?, self.u64()?))
    }

    /// A length that must be payable by the remaining bytes at
    /// `min_item` bytes per item — rejects absurd lengths before any
    /// allocation, so a corrupt length can't OOM the process.
    fn len(&mut self, min_item: usize) -> Result<usize, LoadError> {
        let n = self.u64()?;
        let remaining = (self.buf.len() - self.pos) as u64;
        if n.saturating_mul(min_item as u64) > remaining {
            return Err(LoadError::Corrupt(format!("implausible length {n}")));
        }
        Ok(n as usize)
    }
}

fn read_phase(c: &mut Cursor) -> Result<Phase, LoadError> {
    Ok(match c.u8()? {
        0 => {
            let class = class_from(c.u8()?)
                .ok_or_else(|| LoadError::Corrupt("unknown kernel class".into()))?;
            let ws_bytes = c.u64()?;
            let work = match c.u8()? {
                0 => WorkDist::Uniform(c.work()?),
                1 => {
                    let n = c.len(24)?;
                    let mut v = Vec::with_capacity(n);
                    for _ in 0..n {
                        v.push(c.work()?);
                    }
                    WorkDist::PerRank(v)
                }
                _ => return Err(LoadError::Corrupt("unknown work distribution".into())),
            };
            Phase::Compute {
                class,
                work,
                ws_bytes,
            }
        }
        1 => Phase::Allreduce { bytes: c.u64()? },
        2 => {
            let n = c.len(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                pairs.push((c.u32()?, c.u32()?, c.u64()?));
            }
            Phase::Halo { pairs }
        }
        3 => Phase::Alltoall {
            bytes_per_pair: c.u64()?,
        },
        4 => Phase::Allgather { bytes: c.u64()? },
        5 => Phase::Barrier,
        6 => Phase::Overhead { us: c.f64()? },
        _ => return Err(LoadError::Corrupt("unknown phase tag".into())),
    })
}

/// Decode a trace file. Rejects anything that is not a bit-exact,
/// current-version encoding.
pub fn decode(bytes: &[u8]) -> Result<Trace, LoadError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(LoadError::Corrupt("file too short".into()));
    }
    let (payload, digest) = bytes.split_at(bytes.len() - 8);
    let mut h = Fnv1a::new();
    h.write_bytes(payload);
    if h.finish() != u64::from_le_bytes(digest.try_into().unwrap()) {
        return Err(LoadError::Corrupt("checksum mismatch".into()));
    }
    let mut c = Cursor {
        buf: payload,
        pos: 0,
    };
    if c.take(MAGIC.len())? != MAGIC {
        return Err(LoadError::Corrupt("bad magic".into()));
    }
    let version = c.u32()?;
    if version != VERSION {
        return Err(LoadError::Corrupt(format!(
            "version {version} != {VERSION}"
        )));
    }
    let ranks = c.u32()?;
    let iterations = c.u32()?;
    let fom_flops = c.f64()?;
    let checkpoint = match c.u8()? {
        0 => None,
        1 => Some(CheckpointSpec {
            bytes_per_rank: c.u64()?,
            suggested_interval_iters: c.u32()?,
        }),
        _ => return Err(LoadError::Corrupt("bad checkpoint tag".into())),
    };
    let mut sections = Vec::with_capacity(2);
    for _ in 0..2 {
        let n = c.len(1)?;
        let mut phases = Vec::with_capacity(n);
        for _ in 0..n {
            phases.push(read_phase(&mut c)?);
        }
        sections.push(phases);
    }
    if c.pos != payload.len() {
        return Err(LoadError::Corrupt("trailing bytes".into()));
    }
    let body = sections.pop().unwrap();
    let prologue = sections.pop().unwrap();
    Ok(Trace {
        ranks,
        prologue,
        body,
        iterations,
        fom_flops,
        checkpoint,
    })
}

/// Store a trace under `dir` (creating the directory if needed). The
/// write goes through a same-directory temp file and an atomic rename,
/// so a concurrent reader (or a kill mid-write) can only ever observe a
/// complete file or no file — never a torn one.
pub fn store(dir: &Path, app: &str, fingerprint: u64, ranks: u32, t: &Trace) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = file_path(dir, app, fingerprint, ranks);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let bytes = encode(t);
    let mut f =
        std::fs::File::create(&tmp).map_err(|e| format!("create {}: {e}", tmp.display()))?;
    f.write_all(&bytes)
        .and_then(|()| f.sync_all())
        .map_err(|e| format!("write {}: {e}", tmp.display()))?;
    drop(f);
    std::fs::rename(&tmp, &path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("rename to {}: {e}", path.display())
    })
}

/// Load the trace for a key from `dir`, distinguishing a plain miss
/// ([`LoadError::Missing`]) from a refused file.
pub fn load(dir: &Path, app: &str, fingerprint: u64, ranks: u32) -> Result<Trace, LoadError> {
    let path = file_path(dir, app, fingerprint, ranks);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(LoadError::Missing),
        Err(e) => return Err(LoadError::Io(e.to_string())),
    };
    decode(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use a64fx_apps::{hpcg, nekbone};

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("a64fx-tracedisk-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn encode_decode_round_trips_every_app_shape() {
        for ranks in [1u32, 4, 48] {
            let t = hpcg::trace(hpcg::HpcgConfig::paper(), ranks);
            assert_eq!(decode(&encode(&t)).unwrap(), t, "hpcg r{ranks}");
            let t = nekbone::trace(nekbone::NekboneConfig::paper(), ranks);
            assert_eq!(decode(&encode(&t)).unwrap(), t, "nekbone r{ranks}");
        }
        // COSA has the PerRank work distribution.
        let t = a64fx_apps::cosa::trace(a64fx_apps::cosa::CosaConfig::paper(), 7);
        assert_eq!(decode(&encode(&t)).unwrap(), t);
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_harmless() {
        let t = nekbone::trace(nekbone::NekboneConfig::paper(), 2);
        let clean = encode(&t);
        // Flip one byte at a sample of positions: the checksum must
        // reject the file (the digest bytes themselves included — a
        // corrupted digest no longer matches the payload).
        for pos in (0..clean.len()).step_by(7) {
            let mut bad = clean.clone();
            bad[pos] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {pos} must be rejected");
        }
    }

    #[test]
    fn truncation_and_version_skew_are_rejected() {
        let t = hpcg::trace(hpcg::HpcgConfig::paper(), 2);
        let clean = encode(&t);
        for cut in [1, 8, clean.len() / 2, clean.len() - 1] {
            assert!(decode(&clean[..cut]).is_err(), "truncated to {cut}");
        }
        assert!(decode(b"").is_err());
        // A future-version file must be refused, not misread: rebuild
        // the encoding with a bumped version and a *valid* checksum.
        let mut skewed = clean[..clean.len() - 8].to_vec();
        skewed[MAGIC.len()] = VERSION as u8 + 1;
        let mut h = Fnv1a::new();
        h.write_bytes(&skewed);
        skewed.extend_from_slice(&h.finish().to_le_bytes());
        match decode(&skewed) {
            Err(LoadError::Corrupt(why)) => assert!(why.contains("version"), "{why}"),
            other => panic!("version skew must be Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn store_and_load_round_trip_on_disk() {
        let dir = temp_dir("roundtrip");
        let t = hpcg::trace(hpcg::HpcgConfig::paper(), 6);
        store(&dir, "hpcg", 0xabcd, 6, &t).unwrap();
        assert_eq!(load(&dir, "hpcg", 0xabcd, 6).unwrap(), t);
        assert_eq!(load(&dir, "hpcg", 0xabcd, 7), Err(LoadError::Missing));
        // Corrupt the file on disk: load must refuse it.
        let path = file_path(&dir, "hpcg", 0xabcd, 6);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load(&dir, "hpcg", 0xabcd, 6),
            Err(LoadError::Corrupt(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
