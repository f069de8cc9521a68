//! The result memo behind `dcnrun`: a self-healing, content-addressed
//! store of finished job results.
//!
//! Results are keyed by what they *are*, not when they were computed: a
//! [`CacheKey`] combines the [`build_id`] of the binary that computes
//! them and an FNV-1a digest of the canonicalized config (topology,
//! routing, workload, seed, faults: the whole experiment). Same build and
//! same config means the identical simulation, and a job's result bytes
//! are deterministic (see [`crate::jobs`]), so one stored result serves
//! both; any rebuild misses, so a code change never serves a stale
//! result. Deriving a key reads only the config text: nothing is
//! materialized.
//!
//! Entries are **checksummed on every read** and written atomically
//! (see [`ArtifactCache::store`]). The on-disk format is
//!
//! ```text
//! magic "DCNCACHE1" | payload len u64 LE | payload | FNV-1a of all prior bytes
//! ```
//!
//! A truncated, bit-flipped, or otherwise damaged entry is *quarantined*
//! — moved into `quarantine/` for post-mortem, never deleted silently,
//! never served — and the lookup reports it so the caller recomputes.
//! Corruption is an availability event, not a correctness one.

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use dcn_core::failpoint;
use dcn_json::Json;
use dcn_rng::Fnv1a;

/// Quarantined entries kept for post-mortem before oldest-first pruning
/// kicks in. Corruption evidence is valuable but finite: a bit-rotting
/// disk must not be able to grow `quarantine/` without bound.
pub const QUARANTINE_MAX: usize = 32;

const MAGIC: &[u8; 9] = b"DCNCACHE1";
/// magic + payload length.
const HEADER_LEN: usize = 9 + 8;

/// The identity of one experiment result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`build_id`] of the binary that computes the result.
    pub build: u64,
    /// FNV-1a of the canonicalized config JSON.
    pub config: u64,
}

impl CacheKey {
    /// The key of `config` computed by build `build`. The config is
    /// canonicalized as its `pretty()` rendering plus a newline.
    pub fn new(build: u64, config: &Json) -> CacheKey {
        let mut canonical = config.pretty();
        canonical.push('\n');
        CacheKey {
            build,
            config: Fnv1a::hash(canonical.as_bytes()),
        }
    }

    /// The entry's file stem: 16 hex digits of the combined hash.
    pub fn hex(&self) -> String {
        let h = Fnv1a::default()
            .write_u64(self.build)
            .write_u64(self.config)
            .finish();
        format!("{h:016x}")
    }
}

/// The identity of the program at `exe`: FNV-1a of its bytes, so every
/// rebuild (any code change) gets fresh keys.
pub fn build_id(exe: &Path) -> io::Result<u64> {
    Ok(Fnv1a::hash(&std::fs::read(exe)?))
}

/// Outcome of a cache read.
#[derive(Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A verified entry: these bytes are exactly what was stored.
    Hit(Vec<u8>),
    /// No entry for this key.
    Miss,
    /// An entry existed but failed verification (or could not be read);
    /// a damaged one has been moved to quarantine. The caller must
    /// recompute.
    Quarantined(String),
}

/// A directory of checksummed result artifacts.
pub struct ArtifactCache {
    dir: PathBuf,
}

impl ArtifactCache {
    /// Opens (creating if needed) the cache directory and its
    /// `quarantine/` sibling.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<ArtifactCache> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("quarantine"))?;
        Ok(ArtifactCache { dir })
    }

    /// Path of the entry for `key`.
    pub fn entry_path(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(format!("{}.res", key.hex()))
    }

    /// Where corrupt entries end up.
    fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    /// Verifies and decodes one entry image.
    fn decode(data: &[u8]) -> Result<Vec<u8>, String> {
        if data.len() < HEADER_LEN + 8 {
            return Err("entry truncated: shorter than header".into());
        }
        if &data[..9] != MAGIC {
            return Err("bad magic".into());
        }
        let len = u64::from_le_bytes(data[9..17].try_into().unwrap()) as usize;
        let want_total = HEADER_LEN + len + 8;
        if data.len() != want_total {
            return Err(format!(
                "entry length mismatch: header says {want_total} bytes, file has {}",
                data.len()
            ));
        }
        let body = &data[..data.len() - 8];
        let want = u64::from_le_bytes(data[data.len() - 8..].try_into().unwrap());
        if Fnv1a::hash(body) != want {
            return Err("checksum mismatch".into());
        }
        Ok(data[HEADER_LEN..HEADER_LEN + len].to_vec())
    }

    /// Looks `key` up, verifying the checksum before trusting a byte. A
    /// damaged entry is renamed into `quarantine/` (under a name no file
    /// there holds yet, so repeated corruption never overwrites evidence)
    /// and reported as [`Lookup::Quarantined`].
    pub fn load(&self, key: &CacheKey) -> Lookup {
        let path = self.entry_path(key);
        let data = match failpoint::fail_io("cache.read").and_then(|()| std::fs::read(&path)) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Lookup::Miss,
            // Unreadable is as good as corrupt: fail toward recompute.
            Err(e) => return Lookup::Quarantined(format!("read {}: {e}", path.display())),
        };
        match Self::decode(&data) {
            Ok(bytes) => Lookup::Hit(bytes),
            Err(why) => {
                let hex = key.hex();
                let dest = (0..)
                    .map(|n| self.quarantine_dir().join(format!("{hex}.{n}.res")))
                    .find(|p| !p.exists())
                    .expect("a free quarantine name");
                let moved = failpoint::fail_io("cache.quarantine")
                    .and_then(|()| std::fs::rename(&path, &dest));
                let note = match moved {
                    Ok(()) => format!("{why}; quarantined to {}", dest.display()),
                    Err(e) => {
                        // Cannot move it aside: remove so it is never
                        // re-read as truth.
                        let _ = std::fs::remove_file(&path);
                        format!("{why}; quarantine rename failed ({e}), entry removed")
                    }
                };
                self.prune_quarantine();
                Lookup::Quarantined(note)
            }
        }
    }

    /// Stores `payload` under `key`, atomically (temporary + fsync +
    /// rename + parent fsync), so a crash mid-store leaves either the old
    /// entry or the new one — never a torn file. The temporary is unique
    /// to this store, so two jobs storing one key at once (identical
    /// configs under different names, or two processes sharing an
    /// out-dir) never write through each other's file.
    pub fn store(&self, key: &CacheKey, payload: &[u8]) -> io::Result<()> {
        static STORES: AtomicU64 = AtomicU64::new(0);
        let mut image = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        image.extend_from_slice(MAGIC);
        image.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        image.extend_from_slice(payload);
        let sum = Fnv1a::hash(&image);
        image.extend_from_slice(&sum.to_le_bytes());
        failpoint::fail_io("cache.store")?;
        let entry = self.entry_path(key);
        let part = self.dir.join(format!(
            "{}.{}.{}.part",
            key.hex(),
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        let stored = std::fs::File::create(&part)
            .and_then(|mut f| f.write_all(&image).and_then(|()| f.sync_all()))
            .and_then(|()| std::fs::rename(&part, &entry))
            .and_then(|()| dcn_core::fsync_parent_dir(&entry));
        if stored.is_err() {
            let _ = std::fs::remove_file(&part);
        }
        stored
    }

    /// Caps `quarantine/` at [`QUARANTINE_MAX`] files, pruning
    /// oldest-first (mtime, then name). Called after every quarantine so
    /// a bit-rotting disk cannot grow the evidence directory forever.
    fn prune_quarantine(&self) {
        let Ok(rd) = std::fs::read_dir(self.quarantine_dir()) else {
            return;
        };
        let mut files: Vec<(std::time::SystemTime, PathBuf)> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .map(|p| {
                let mtime = std::fs::metadata(&p)
                    .and_then(|md| md.modified())
                    .unwrap_or(std::time::UNIX_EPOCH);
                (mtime, p)
            })
            .collect();
        if files.len() <= QUARANTINE_MAX {
            return;
        }
        files.sort();
        let excess = files.len() - QUARANTINE_MAX;
        for (_, p) in files.into_iter().take(excess) {
            let _ = std::fs::remove_file(&p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Failpoint state is process-global: tests that arm `cache.*` sites
    /// must not interleave with tests that call `store`/`load`, so every
    /// test in this module serializes on this lock.
    static FP_LOCK: Mutex<()> = Mutex::new(());

    fn fp_lock() -> std::sync::MutexGuard<'static, ()> {
        FP_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn key(n: u64) -> CacheKey {
        CacheKey {
            build: n ^ 1,
            config: n.wrapping_mul(7),
        }
    }

    impl ArtifactCache {
        /// Number of quarantined files on disk.
        fn quarantined_on_disk(&self) -> usize {
            std::fs::read_dir(self.quarantine_dir()).unwrap().count()
        }
    }

    fn fresh(name: &str) -> ArtifactCache {
        let dir = std::env::temp_dir().join(format!("dcn_cache_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ArtifactCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_roundtrips() {
        let _g = fp_lock();
        let c = fresh("roundtrip");
        let k = key(1);
        assert_eq!(c.load(&k), Lookup::Miss);
        c.store(&k, b"{\"avg_fct_ms\": 1.5}\n").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"{\"avg_fct_ms\": 1.5}\n".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn another_build_misses() {
        // A result computed by one build is never served to another: the
        // same config under a new build id is a different key.
        let _g = fp_lock();
        let c = fresh("build");
        let cfg = Json::parse(r#"{"seed": 1}"#).unwrap();
        let old = CacheKey::new(1, &cfg);
        c.store(&old, b"old build's result").unwrap();
        assert_eq!(c.load(&old), Lookup::Hit(b"old build's result".to_vec()));
        assert_eq!(c.load(&CacheKey::new(2, &cfg)), Lookup::Miss);
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn build_id_hashes_the_file() {
        let dir = std::env::temp_dir().join(format!("dcn_cache_exe_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a"), dir.join("b"));
        std::fs::write(&a, b"binary one").unwrap();
        std::fs::write(&b, b"binary two").unwrap();
        assert_eq!(build_id(&a).unwrap(), Fnv1a::hash(b"binary one"));
        assert_ne!(build_id(&a).unwrap(), build_id(&b).unwrap());
        assert!(build_id(&dir.join("missing")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let _g = fp_lock();
        let c = fresh("keys");
        c.store(&key(1), b"one").unwrap();
        c.store(&key(2), b"two").unwrap();
        assert_eq!(c.load(&key(1)), Lookup::Hit(b"one".to_vec()));
        assert_eq!(c.load(&key(2)), Lookup::Hit(b"two".to_vec()));
        // Any single component changing changes the key.
        let base = key(1);
        for k in [
            CacheKey { build: 99, ..base },
            CacheKey { config: 99, ..base },
        ] {
            assert_ne!(k.hex(), base.hex());
        }
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn concurrent_stores_of_one_key_all_succeed() {
        let _g = fp_lock();
        let c = fresh("race");
        let k = key(10);
        let payload = vec![b'x'; 64 << 10];
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..20 {
                        c.store(&k, &payload).unwrap();
                        assert_eq!(c.load(&k), Lookup::Hit(payload.clone()));
                    }
                });
            }
        });
        assert_eq!(c.quarantined_on_disk(), 0);
        let files = std::fs::read_dir(&c.dir).unwrap().count();
        assert_eq!(files, 2, "the entry and quarantine/, no temporaries");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn bit_flip_quarantines_and_recovers() {
        let _g = fp_lock();
        let c = fresh("bitflip");
        let k = key(3);
        c.store(&k, b"the truth").unwrap();
        let path = c.entry_path(&k);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&path, &data).unwrap();

        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("quarantined"), "{why}"),
            other => panic!("corrupt entry served: {other:?}"),
        }
        assert!(!path.exists(), "corrupt entry must leave the serving path");
        assert_eq!(c.quarantined_on_disk(), 1);
        // Self-healing: the recomputed result stores and serves again.
        c.store(&k, b"the truth").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"the truth".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn truncation_and_bad_magic_quarantine() {
        let _g = fp_lock();
        let c = fresh("trunc");
        let k = key(4);
        c.store(&k, b"0123456789").unwrap();
        let path = c.entry_path(&k);
        let data = std::fs::read(&path).unwrap();
        std::fs::write(&path, &data[..data.len() - 3]).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));

        c.store(&k, b"0123456789").unwrap();
        let mut data = std::fs::read(c.entry_path(&k)).unwrap();
        data[0] = b'X';
        std::fs::write(c.entry_path(&k), &data).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        assert_eq!(c.quarantined_on_disk(), 2, "evidence never overwritten");
        // A second handle on the same directory (a later `dcnrun` process)
        // still never overwrites what the first quarantined.
        let again = ArtifactCache::open(c.dir.clone()).unwrap();
        std::fs::write(again.entry_path(&k), b"rot").unwrap();
        assert!(matches!(again.load(&k), Lookup::Quarantined(_)));
        assert_eq!(again.quarantined_on_disk(), 3, "evidence never overwritten");
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn empty_and_header_only_files_quarantine() {
        let _g = fp_lock();
        let c = fresh("tiny");
        let k = key(5);
        std::fs::write(c.entry_path(&k), b"").unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        std::fs::write(c.entry_path(&k), MAGIC).unwrap();
        assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn quarantine_directory_is_bounded() {
        let _g = fp_lock();
        let c = fresh("qbound");
        let k = key(6);
        for _ in 0..(QUARANTINE_MAX + 5) {
            c.store(&k, b"good bytes").unwrap();
            let path = c.entry_path(&k);
            let mut data = std::fs::read(&path).unwrap();
            let mid = data.len() / 2;
            data[mid] ^= 0xff;
            std::fs::write(&path, &data).unwrap();
            assert!(matches!(c.load(&k), Lookup::Quarantined(_)));
        }
        assert_eq!(
            c.quarantined_on_disk(),
            QUARANTINE_MAX,
            "quarantine must be pruned to the cap"
        );
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_store_failure_leaves_cache_servable() {
        let _g = fp_lock();
        let c = fresh("fp_store");
        let k = key(7);
        c.store(&k, b"original").unwrap();
        failpoint::configure("cache.store", "enospc");
        let err = c.store(&k, b"replacement").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        failpoint::disarm("cache.store");
        // The failed store never touched the existing entry.
        assert_eq!(c.load(&k), Lookup::Hit(b"original".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_read_failure_reports_quarantined_not_panic() {
        let _g = fp_lock();
        let c = fresh("fp_read");
        let k = key(8);
        c.store(&k, b"bytes").unwrap();
        failpoint::configure("cache.read", "err");
        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("injected"), "{why}"),
            other => panic!("expected quarantined-style miss, got {other:?}"),
        }
        failpoint::disarm("cache.read");
        // The entry itself is intact once the fault clears.
        assert_eq!(c.load(&k), Lookup::Hit(b"bytes".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }

    #[test]
    fn injected_quarantine_rename_failure_still_heals() {
        let _g = fp_lock();
        let c = fresh("fp_quar");
        let k = key(9);
        c.store(&k, b"truth").unwrap();
        let path = c.entry_path(&k);
        let mut data = std::fs::read(&path).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x20;
        std::fs::write(&path, &data).unwrap();
        failpoint::configure("cache.quarantine", "err");
        match c.load(&k) {
            Lookup::Quarantined(why) => assert!(why.contains("entry removed"), "{why}"),
            other => panic!("corrupt entry served: {other:?}"),
        }
        failpoint::disarm("cache.quarantine");
        assert!(
            !path.exists(),
            "corrupt entry must leave the serving path even unquarantined"
        );
        c.store(&k, b"truth").unwrap();
        assert_eq!(c.load(&k), Lookup::Hit(b"truth".to_vec()));
        let _ = std::fs::remove_dir_all(&c.dir);
    }
}
