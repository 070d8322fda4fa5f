//! The **content-addressed artifact cache** of the verification service:
//! verification reports stored on disk under a key derived from everything
//! that determines them, so a warm re-run of an unchanged job is a file read
//! instead of a symbolic-simulation campaign.
//!
//! # Key derivation
//!
//! A [`CacheKey`] is the 64-bit FNV-1a hash (the same primitive as
//! [`pv_netlist::export::fnv1a64`]) over a `\0`-separated sequence of key
//! *parts*, prefixed with the cache's [`ENGINE_EPOCH`]. The caller feeds in
//! every input that can change the result — for a verification job that is:
//!
//! * the flow name (`"beta-relation"` / `"flushing"`),
//! * the deterministic netlist exports of both designs
//!   ([`pv_netlist::export::export`]) — any gate, port or pipeline-hint
//!   change changes the bytes,
//! * the text rendering of every simulation plan in the sweep, and
//! * the engine-relevant specification fields (depth, delay slots, ports,
//!   observed variables, sample offset).
//!
//! Deliberately **excluded**: the worker-thread count — the pool's
//! deterministic lowest-index merge makes reports field-identical for any
//! thread count, so threads are not result-relevant (`DESIGN.md` § "Parallel
//! verification"). [`ENGINE_EPOCH`] is bumped whenever engine semantics
//! change in a way that alters reports, invalidating every old entry at once.
//!
//! # On-disk layout
//!
//! One report per file, named `<16-hex-key>.report.json` inside the
//! cache directory (`--cache-dir`, else `PV_CACHE_DIR`, else `.pv-cache`).
//! Writes go through a temporary file and an atomic rename, so a crashed or
//! concurrent writer never leaves a torn artifact behind.
//!
//! ```
//! use pipeverify_core::cache::{content_key, ArtifactCache, ArtifactKind};
//!
//! let dir = std::env::temp_dir().join(format!("pv-cache-doc-{}", std::process::id()));
//! let cache = ArtifactCache::at(&dir);
//!
//! let key = content_key(["beta-relation", "<netlist export>", "r 0 0"]);
//! assert_eq!(cache.load(ArtifactKind::Report, key), None); // cold
//!
//! cache.store(ArtifactKind::Report, key, "{\"equivalent\":true}").unwrap();
//! let warm = cache.load(ArtifactKind::Report, key); // warm: a file read
//! assert_eq!(warm.as_deref(), Some("{\"equivalent\":true}"));
//!
//! // A different part sequence — say, one seeded bug changing a netlist
//! // export — is a different key, so only changed cells miss.
//! assert_ne!(key, content_key(["beta-relation", "<other export>", "r 0 0"]));
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pv_netlist::export::fnv1a64;
use pv_obs::Counter;

/// Cache traffic metrics: artifact reads that were served (`cache.hit`),
/// absent (`cache.miss`), and present-but-unreadable (`cache.corrupt` —
/// which the caller must treat as a miss, never as a failure).
static M_CACHE_HIT: Counter = Counter::new("cache.hit");
static M_CACHE_MISS: Counter = Counter::new("cache.miss");
static M_CACHE_CORRUPT: Counter = Counter::new("cache.corrupt");

/// Engine epoch folded into every [`content_key`]. Bump when a change to the
/// verification engines alters report contents for identical inputs — every
/// cached artifact from earlier epochs then misses, instead of serving stale
/// results.
///
/// Epoch 2: reports embed a deterministic `metrics` snapshot
/// ([`crate::FlowReport::metrics`]), changing report bytes for identical
/// inputs.
///
/// Epoch 3: the BDD engine switched to complemented edges, and the BDD
/// store format of the time moved to version 2; the bump retired
/// pre-complement artifacts as clean cache misses rather than decode errors.
///
/// Epoch 4: β reports' `metrics` gained `bdd.constrain.cache_hit` and
/// `bdd.constrain.cache_miss`, changing report bytes for identical inputs.
///
/// Epoch 5: the BDD engine lost dynamic variable ordering, and plan reports
/// dropped its three pass/swap/time keys, so an epoch-4 report no longer
/// decodes.
///
/// Epoch 6: the computed table became a fixed-size, overwrite-on-collision
/// cache, so the `bdd.ite.cache_*` and `bdd.constrain.cache_*` counts in
/// plan reports' `metrics` changed for identical inputs.
///
/// Epoch 7: a β plan stops at the first sample that reads an annulled
/// slot's don't-care variables, so such FAIL reports' `space` and
/// `metrics` changed for identical inputs (verdicts and counterexamples did
/// not).
///
/// Epoch 8: the flushing flow's EUF case split skips residual formulas it
/// has already refuted, so flushing reports' `checks`, `euf.splits` and
/// `euf.closure_checks` shrank for identical inputs (verdicts and
/// counterexamples did not change).
///
/// Epoch 9: the β-relation flow checks every plan of a batch before any
/// runs, so a plan list whose failing plan precedes a malformed one is now
/// an error, not a FAIL report; epoch-8 entries for such lists must not
/// answer it.
///
/// Epoch 10: symbolic simulation evaluates each multiplexer and ripple
/// carry as one `ite` and skips gates nothing reads, so β reports' `space`
/// and `metrics` shrank for identical inputs (verdicts and counterexamples
/// did not change).
pub const ENGINE_EPOCH: u32 = 10;

/// Environment variable overriding the default cache directory.
pub const PV_CACHE_DIR: &str = "PV_CACHE_DIR";

/// Default cache directory, relative to the working directory.
pub const DEFAULT_CACHE_DIR: &str = ".pv-cache";

/// A 64-bit content hash identifying one cached artifact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheKey(pub u64);

impl fmt::Display for CacheKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Derives a [`CacheKey`] from the given key parts (see the [module
/// docs](self) for what a verification job feeds in). The parts are hashed
/// as a `\0`-separated sequence prefixed by [`ENGINE_EPOCH`], so both
/// content changes and part-boundary shifts change the key.
pub fn content_key<I, S>(parts: I) -> CacheKey
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut material = format!("pv-cache-epoch-{ENGINE_EPOCH}");
    for part in parts {
        material.push('\0');
        material.push_str(part.as_ref());
    }
    CacheKey(fnv1a64(material.as_bytes()))
}

/// What kind of artifact a cache entry holds (determines the file extension).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactKind {
    /// A [`crate::FlowReport`] in the JSON shape of [`crate::report_io`].
    Report,
}

impl ArtifactKind {
    fn extension(self) -> &'static str {
        match self {
            ArtifactKind::Report => "report.json",
        }
    }
}

/// A directory of content-addressed artifacts.
///
/// Cheap to construct — the directory is created lazily on the first
/// [`store`](Self::store) — and safe to share across threads by cloning (it
/// is only a path).
#[derive(Clone, Debug)]
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// A cache rooted at `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache { dir: dir.into() }
    }

    /// A cache rooted at `$PV_CACHE_DIR`, or [`DEFAULT_CACHE_DIR`] when the
    /// variable is unset or empty.
    pub fn from_env() -> Self {
        let dir = std::env::var(PV_CACHE_DIR)
            .ok()
            .filter(|v| !v.is_empty())
            .unwrap_or_else(|| DEFAULT_CACHE_DIR.to_owned());
        ArtifactCache::at(dir)
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path(&self, kind: ArtifactKind, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{key}.{}", kind.extension()))
    }

    /// Loads the artifact stored under `key`, or `None` on a cache miss.
    /// I/O errors other than "not found" also read as misses — a cache must
    /// never turn an unreadable file into a failed verification — but they
    /// are distinguished on the `cache.corrupt` counter.
    pub fn load(&self, kind: ArtifactKind, key: CacheKey) -> Option<String> {
        match fs::read_to_string(self.path(kind, key)) {
            Ok(text) => {
                M_CACHE_HIT.incr();
                Some(text)
            }
            Err(e) => {
                if e.kind() == io::ErrorKind::NotFound {
                    M_CACHE_MISS.incr();
                } else {
                    M_CACHE_CORRUPT.incr();
                }
                None
            }
        }
    }

    /// Records that an entry loaded fine but failed to *decode* (truncated
    /// JSON, an older schema) on the `cache.corrupt` counter. Callers that
    /// parse what [`load`](Self::load) returns should call this when the
    /// parse fails and then treat the entry as a miss.
    pub fn note_corrupt(&self, kind: ArtifactKind, key: CacheKey) {
        M_CACHE_CORRUPT.incr();
        eprintln!(
            "pv: cache entry {} unparseable, treating as a miss",
            self.path(kind, key).display()
        );
    }

    /// Stores `text` under `key`, atomically (write to a temporary file in
    /// the same directory, then rename). Returns the final path.
    ///
    /// # Errors
    /// Propagates I/O errors (unwritable directory, disk full, …) — callers
    /// typically log and continue, since a failed store only costs future
    /// warmth.
    pub fn store(&self, kind: ArtifactKind, key: CacheKey, text: &str) -> io::Result<PathBuf> {
        // Chaos site: a failing store must degrade to "runs stay cold", never
        // to a torn entry or a failed verification.
        if pv_obs::fail::failpoint("cache.store") {
            return Err(io::Error::other("injected cache-store failure"));
        }
        fs::create_dir_all(&self.dir)?;
        let path = self.path(kind, key);
        // The temporary name carries both the pid and a process-wide sequence
        // number: two *threads* racing on one key must not share a tmp file,
        // or their interleaved writes could be renamed into a torn entry.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{key}.{}.tmp-{}-{seq}",
            kind.extension(),
            std::process::id()
        ));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("pv-cache-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn keys_are_stable_and_boundary_sensitive() {
        let a = content_key(["x", "y"]);
        assert_eq!(a, content_key(["x", "y"]), "same parts, same key");
        assert_ne!(a, content_key(["xy"]), "part boundaries matter");
        assert_ne!(a, content_key(["x", "y", ""]), "part count matters");
        assert_eq!(format!("{a}").len(), 16, "keys render as 16 hex digits");
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = scratch("round-trip");
        let cache = ArtifactCache::at(&dir);
        let key = content_key(["k"]);
        assert_eq!(cache.load(ArtifactKind::Report, key), None, "starts cold");
        let path = cache
            .store(ArtifactKind::Report, key, "payload")
            .expect("store");
        assert_eq!(path, dir.join(format!("{key}.report.json")));
        assert_eq!(
            cache.load(ArtifactKind::Report, key).as_deref(),
            Some("payload")
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_reads_as_cold() {
        let cache = ArtifactCache::at(scratch("never-created"));
        assert_eq!(cache.load(ArtifactKind::Report, content_key(["k"])), None);
    }

    /// Crash consistency under contention: writers racing on one key must
    /// never produce a torn entry — every concurrent load observes exactly
    /// one writer's complete payload, and no temporary files survive.
    #[test]
    fn racing_writers_on_one_key_never_tear_an_entry() {
        let dir = scratch("race");
        std::fs::remove_dir_all(&dir).ok();
        let cache = ArtifactCache::at(&dir);
        let key = content_key(["contended"]);
        let payload = |writer: usize| format!("writer-{writer}-").repeat(512);

        std::thread::scope(|scope| {
            for writer in 0..4 {
                let cache = cache.clone();
                let text = payload(writer);
                scope.spawn(move || {
                    for _ in 0..50 {
                        cache
                            .store(ArtifactKind::Report, key, &text)
                            .expect("store");
                    }
                });
            }
            let reader_cache = cache.clone();
            scope.spawn(move || {
                let complete: Vec<String> = (0..4).map(payload).collect();
                for _ in 0..200 {
                    if let Some(text) = reader_cache.load(ArtifactKind::Report, key) {
                        assert!(
                            complete.contains(&text),
                            "a load observed a torn entry of {} bytes",
                            text.len()
                        );
                    }
                }
            });
        });

        let stale_tmp = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(stale_tmp, 0, "every temporary file was renamed away");
        fs::remove_dir_all(&dir).ok();
    }
}
