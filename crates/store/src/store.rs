//! The on-disk store: atomic writes, corruption detection, force-rebuild
//! and verify modes, and hit/miss accounting.

use crate::hash::sha256_hex;
use crate::key::ArtifactKey;
use crate::SCHEMA_VERSION;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// Environment variable naming the store directory (empty/unset = disabled).
pub const STORE_ENV_VAR: &str = "PNP_STORE";
/// Environment variable enabling force-rebuild (`1` = ignore cached
/// artifacts, recompute and overwrite).
pub const FORCE_ENV_VAR: &str = "PNP_STORE_FORCE";
/// Environment variable enabling verify mode (`1` = on every hit, recompute
/// anyway and check the cached bytes are byte-identical).
pub const VERIFY_ENV_VAR: &str = "PNP_STORE_VERIFY";

/// Distinguishes concurrent writers' temp files within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Hit/miss accounting, readable at any point (e.g. for end-of-run logs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct StoreStats {
    /// Artifacts served from the store.
    pub hits: usize,
    /// Lookups that found no artifact file.
    pub misses: usize,
    /// Artifact files rejected as corrupt/truncated/mismatched (each also
    /// counts as a miss for the caller, who falls back to rebuilding).
    pub corrupt: usize,
    /// Artifacts written.
    pub writes: usize,
    /// Verify-mode comparisons that confirmed byte-identity.
    pub verified: usize,
    /// Verify-mode comparisons that found the cached bytes differ from the
    /// freshly computed bytes — a broken key contract (DESIGN.md §12).
    pub verify_mismatches: usize,
}

/// First line of every artifact file; the payload bytes follow the newline.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(crate) struct ArtifactHeader {
    /// File-format magic (`"pnp-store"`).
    pub(crate) magic: String,
    /// Store schema version the artifact was written under.
    pub(crate) schema: u32,
    /// Artifact family.
    pub(crate) kind: String,
    /// Full canonical key, kept readable for debugging and compared verbatim
    /// on load (defends the address against the astronomically unlikely — and
    /// the mundane: a stale file renamed into place by hand).
    pub(crate) key: String,
    /// Payload length in bytes.
    pub(crate) payload_len: usize,
    /// SHA-256 of the payload bytes.
    pub(crate) payload_sha256: String,
}

const MAGIC: &str = "pnp-store";

impl ArtifactHeader {
    /// Reads and validates just the header line of an artifact file, without
    /// touching the payload. The store index is built from these, so an
    /// index rebuild over thousands of artifacts stays cheap even when the
    /// payloads are megabytes of trained weights.
    pub(crate) fn read_from(path: &Path) -> Result<ArtifactHeader, String> {
        use std::io::BufRead;
        let file = fs::File::open(path).map_err(|e| format!("open: {e}"))?;
        let mut line = String::new();
        io::BufReader::new(file)
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        ArtifactHeader::parse(line.trim_end_matches('\n'))
    }

    /// Parses a header line and checks its magic and schema — the checks
    /// every reader of an artifact file makes before trusting anything else
    /// in it.
    fn parse(line: &str) -> Result<ArtifactHeader, String> {
        let header: ArtifactHeader =
            serde_json::from_str(line).map_err(|e| format!("bad header: {e}"))?;
        if header.magic != MAGIC {
            return Err(format!("bad magic {:?}", header.magic));
        }
        if header.schema != SCHEMA_VERSION {
            return Err(format!(
                "schema {} != current {}",
                header.schema, SCHEMA_VERSION
            ));
        }
        Ok(header)
    }
}

/// Writes `bytes` to `path` via a unique temp file in the same directory and
/// an atomic `rename`, creating parent directories as needed. Shared by
/// artifact writes and the store index, so every on-disk publish has the
/// same crash/concurrency story: readers see the old file or the new one,
/// never a truncated in-between.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let (Some(dir), Some(name)) = (path.parent(), path.file_name()) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{} names no file in a directory", path.display()),
        ));
    };
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}-{}",
        std::process::id(),
        TEMP_COUNTER.fetch_add(1, Ordering::Relaxed),
        name.to_string_lossy()
    ));
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    })
}

/// Why a header-valid artifact is rejected when its payload's SHA-256 is
/// not the one the header records.
const HASH_MISMATCH: &str = "payload hash mismatch";

/// Validates an artifact file's header against `key` and the payload's
/// length, returning the payload — borrowed where it lies in `bytes` — and
/// the SHA-256 the header promises for it. The hash itself is the caller's
/// to check.
fn decode_header<'a>(key: &ArtifactKey, bytes: &'a [u8]) -> Result<(&'a [u8], String), String> {
    let mut lines = bytes.splitn(2, |&b| b == b'\n');
    let (Some(header_line), Some(payload)) = (lines.next(), lines.next()) else {
        return Err("no header line".into());
    };
    let header_text = std::str::from_utf8(header_line).map_err(|_| "header is not UTF-8")?;
    let header = ArtifactHeader::parse(header_text)?;
    if header.kind != key.kind() || header.key != key.canonical() {
        return Err("key does not match the requested artifact".into());
    }
    if payload.len() != header.payload_len {
        return Err(format!(
            "truncated payload: {} bytes, header says {}",
            payload.len(),
            header.payload_len
        ));
    }
    Ok((payload, header.payload_sha256))
}

/// A content-addressed artifact store rooted at a directory.
///
/// Layout: `<root>/v<schema>/<kind>/<address>.json`, where `address` is the
/// SHA-256 of the key's canonical form. Every file is a one-line JSON header
/// (schema, kind, canonical key, payload length + SHA-256) followed by the
/// payload bytes — the exact `serde_json::to_string` output of the artifact,
/// so cached bytes can be compared byte-for-byte against fresh computations.
///
/// Writes go to a unique temp file in the destination directory and are
/// published with an atomic `rename`, so concurrent writers to the same key
/// are safe (last one wins; readers only ever see complete files) and a
/// crash mid-write leaves at most a stray `.tmp-*` file, never a truncated
/// artifact under the real name. Loads verify the header, the payload
/// length, and the payload hash; anything off is treated as a miss (rebuild)
/// rather than an error.
///
/// ```
/// use pnp_store::{ArtifactKey, Store};
///
/// let root = std::env::temp_dir().join(format!("pnp-store-doc-{}", std::process::id()));
/// let store = Store::open(&root);
/// let key = ArtifactKey::new("doc/example").field("n", 3);
///
/// // First call computes and caches; the second is served from disk.
/// let built: Vec<u64> = store.load_or_build(&key, || vec![1, 2, 3]);
/// let cached: Vec<u64> = store.load_or_build(&key, || unreachable!("cached"));
/// assert_eq!(built, cached);
/// assert_eq!(store.stats().hits, 1);
/// assert_eq!(store.stats().writes, 1);
/// # std::fs::remove_dir_all(&root).ok();
/// ```
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    force_rebuild: bool,
    verify: bool,
    stats: Mutex<StoreStats>,
}

impl Store {
    /// Opens (or lazily creates on first write) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> Store {
        Store {
            root: root.into(),
            force_rebuild: false,
            verify: false,
            stats: Mutex::new(StoreStats::default()),
        }
    }

    /// Opens the store named by `PNP_STORE`, honouring `PNP_STORE_FORCE` and
    /// `PNP_STORE_VERIFY`. Returns `None` when the variable is unset or
    /// empty (store disabled).
    pub fn from_env() -> Option<Store> {
        let dir = std::env::var(STORE_ENV_VAR).ok()?;
        if dir.trim().is_empty() {
            return None;
        }
        Some(Store::open(dir).with_env_modes())
    }

    /// ORs the `PNP_STORE_FORCE` / `PNP_STORE_VERIFY` environment modes onto
    /// this store — the single definition of those variables' semantics,
    /// used both by [`Store::from_env`] and by CLIs that resolved the store
    /// directory themselves (e.g. from a `--store` flag).
    pub fn with_env_modes(self) -> Store {
        let flag = |var: &str| std::env::var(var).map(|v| v == "1").unwrap_or(false);
        let force = self.force_rebuild || flag(FORCE_ENV_VAR);
        let verify = self.verify || flag(VERIFY_ENV_VAR);
        self.with_force_rebuild(force).with_verify(verify)
    }

    /// Sets force-rebuild mode: every `load` misses, every build overwrites.
    pub fn with_force_rebuild(mut self, force: bool) -> Store {
        self.force_rebuild = force;
        self
    }

    /// Sets verify mode: callers should recompute on every hit and call
    /// [`Store::record_verify`] with the byte-comparison outcome.
    pub fn with_verify(mut self, verify: bool) -> Store {
        self.verify = verify;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// True when cached artifacts must be ignored and overwritten.
    pub fn force_rebuild(&self) -> bool {
        self.force_rebuild
    }

    /// True when hits should be re-computed and byte-compared.
    pub fn verify(&self) -> bool {
        self.verify
    }

    /// A snapshot of the hit/miss counters.
    pub fn stats(&self) -> StoreStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Where an artifact for `key` lives (whether or not it exists yet).
    pub fn artifact_path(&self, key: &ArtifactKey) -> PathBuf {
        let mut path = self.root.join(format!("v{SCHEMA_VERSION}"));
        for part in key.kind().split('/') {
            path.push(part);
        }
        path.push(format!("{}.json", key.address()));
        path
    }

    fn bump(&self, f: impl FnOnce(&mut StoreStats)) {
        // Plain counters: a panic mid-update cannot leave them inconsistent.
        f(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner));
    }

    /// Records the outcome of a verify-mode byte comparison.
    pub fn record_verify(&self, identical: bool) {
        self.bump(|s| {
            if identical {
                s.verified += 1;
            } else {
                s.verify_mismatches += 1;
            }
        });
    }

    /// Reads `key`'s artifact file, or counts a miss: force-rebuild mode
    /// and an absent or unreadable file both miss.
    fn read_artifact(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let bytes = if self.force_rebuild {
            None
        } else {
            fs::read(self.artifact_path(key)).ok()
        };
        if bytes.is_none() {
            self.bump(|s| s.misses += 1);
        }
        bytes
    }

    /// Logs and counts a present artifact file rejected as `why`: one
    /// corrupt miss, which the caller answers by rebuilding (and its save
    /// overwrites the bad file).
    fn reject<T>(&self, key: &ArtifactKey, why: &str) -> Option<T> {
        eprintln!(
            "[pnp-store] corrupt artifact {} ({why}); rebuilding",
            self.artifact_path(key).display()
        );
        self.bump(|s| {
            s.corrupt += 1;
            s.misses += 1;
        });
        None
    }

    /// Loads the raw payload bytes for `key`, or `None` on a miss. A present
    /// but unreadable/corrupt/mismatched file is logged, counted in
    /// [`StoreStats::corrupt`], and reported as a miss — the caller falls
    /// back to rebuilding (and its save will overwrite the bad file).
    /// Force-rebuild mode misses unconditionally.
    pub fn load_bytes(&self, key: &ArtifactKey) -> Option<Vec<u8>> {
        let mut bytes = self.read_artifact(key)?;
        let header_len = match decode_header(key, &bytes) {
            Ok((payload, sha256)) if sha256_hex(payload) == sha256 => bytes.len() - payload.len(),
            Ok(_) => return self.reject(key, HASH_MISMATCH),
            Err(why) => return self.reject(key, &why),
        };
        // Strip the header in place: the payload is most of the file.
        bytes.drain(..header_len);
        self.bump(|s| s.hits += 1);
        Some(bytes)
    }

    /// Writes `payload` for `key` atomically (temp file in the destination
    /// directory, then `rename`) and returns the artifact path.
    pub fn save_bytes(&self, key: &ArtifactKey, payload: &[u8]) -> io::Result<PathBuf> {
        let path = self.artifact_path(key);
        let header = ArtifactHeader {
            magic: MAGIC.into(),
            schema: SCHEMA_VERSION,
            kind: key.kind().to_string(),
            key: key.canonical(),
            payload_len: payload.len(),
            payload_sha256: sha256_hex(payload),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut bytes = Vec::with_capacity(header_json.len() + 1 + payload.len());
        bytes.extend_from_slice(header_json.as_bytes());
        bytes.push(b'\n');
        bytes.extend_from_slice(payload);
        write_atomic(&path, &bytes)?;
        self.bump(|s| s.writes += 1);
        Ok(path)
    }

    /// Loads and deserializes an artifact. Corrupt files and deserialization
    /// failures count as misses (with a log line) so callers always have the
    /// rebuild fallback.
    ///
    /// The payload is parsed where it lies in the file buffer while a scoped
    /// thread checks its SHA-256 (inline if no thread can be spawned), and
    /// the value is returned only on a hash match: a hash mismatch outranks
    /// any parse error, so a damaged payload is always reported as one
    /// (DESIGN.md §12).
    pub fn load<T: Deserialize>(&self, key: &ArtifactKey) -> Option<T> {
        let bytes = self.read_artifact(key)?;
        let (payload, sha256) = match decode_header(key, &bytes) {
            Ok(header) => header,
            Err(why) => return self.reject(key, &why),
        };
        let hash_matches = || sha256_hex(payload) == sha256;
        let (hashed, parsed) = std::thread::scope(|scope| {
            let hasher = std::thread::Builder::new()
                .name("pnp-store-sha256".into())
                .spawn_scoped(scope, hash_matches);
            let parsed = std::str::from_utf8(payload)
                .map_err(|_| "payload is not UTF-8".to_string())
                .and_then(|text| {
                    serde_json::from_str::<T>(text)
                        .map_err(|e| format!("payload does not deserialize: {e}"))
                });
            let hashed = match hasher {
                Ok(handle) => handle.join().map_err(|_| "payload hash thread failed"),
                Err(_) => Ok(hash_matches()),
            };
            (hashed, parsed)
        });
        match (hashed, parsed) {
            (Err(why), _) => self.reject(key, why),
            (Ok(false), _) => self.reject(key, HASH_MISMATCH),
            (Ok(true), Err(why)) => self.reject(key, &why),
            (Ok(true), Ok(value)) => {
                self.bump(|s| s.hits += 1);
                Some(value)
            }
        }
    }

    /// Serializes and writes an artifact.
    pub fn save<T: Serialize>(&self, key: &ArtifactKey, value: &T) -> io::Result<PathBuf> {
        let json = serde_json::to_string(value)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.save_bytes(key, json.as_bytes())
    }

    /// The workhorse: returns the cached artifact for `key`, or computes it
    /// with `build`, saves it, and returns it.
    ///
    /// * Force-rebuild mode skips the lookup and overwrites.
    /// * Verify mode recomputes even on a hit, byte-compares the cached
    ///   payload against the fresh serialization, records the outcome
    ///   ([`StoreStats::verified`] / [`StoreStats::verify_mismatches`]), and
    ///   returns the *fresh* value (overwriting the stale artifact on
    ///   mismatch) so a broken key contract can never propagate stale data.
    /// * Save failures degrade to a log line — the computed value is still
    ///   returned; a read-only store directory must not abort an experiment.
    pub fn load_or_build<T>(&self, key: &ArtifactKey, build: impl FnOnce() -> T) -> T
    where
        T: Serialize + Deserialize,
    {
        if self.force_rebuild {
            self.bump(|s| s.misses += 1);
        } else if self.verify {
            // Verify mode needs the raw cached bytes for the comparison.
            if let Some(cached) = self.load_bytes(key) {
                let fresh = build();
                let fresh_bytes = serde_json::to_string(&fresh).expect("artifact serializes");
                let identical = fresh_bytes.as_bytes() == cached.as_slice();
                self.record_verify(identical);
                if !identical {
                    eprintln!(
                        "[pnp-store] VERIFY MISMATCH for {} {} — cached bytes differ from \
                         a fresh computation; overwriting (the key is missing an input, \
                         or the code changed without a schema bump — see DESIGN.md §12)",
                        key.kind(),
                        key.address()
                    );
                    self.save_failsafe(key, fresh_bytes.as_bytes());
                }
                return fresh;
            }
        } else if let Some(value) = self.load(key) {
            // `load` owns the deserialize-or-corrupt accounting.
            return value;
        }
        let value = build();
        if let Ok(json) = serde_json::to_string(&value) {
            self.save_failsafe(key, json.as_bytes());
        }
        value
    }

    /// [`Store::load_or_build`] for artifacts that are *not* bit-
    /// deterministic (e.g. wall-clock measurements): verify mode is ignored
    /// for them, since a re-measurement legitimately differs byte-for-byte.
    /// Force-rebuild still applies.
    pub fn load_or_build_nondeterministic<T>(
        &self,
        key: &ArtifactKey,
        build: impl FnOnce() -> T,
    ) -> T
    where
        T: Serialize + Deserialize,
    {
        if !self.force_rebuild {
            if let Some(value) = self.load(key) {
                return value;
            }
        } else {
            self.bump(|s| s.misses += 1);
        }
        let value = build();
        if let Ok(json) = serde_json::to_string(&value) {
            self.save_failsafe(key, json.as_bytes());
        }
        value
    }

    fn save_failsafe(&self, key: &ArtifactKey, payload: &[u8]) {
        if let Err(e) = self.save_bytes(key, payload) {
            eprintln!(
                "[pnp-store] could not write {} ({e}); continuing without caching",
                self.artifact_path(key).display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir().join(format!(
            "pnp_store_test_{tag}_{}_{}",
            std::process::id(),
            TEMP_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        Store::open(dir)
    }

    fn key() -> ArtifactKey {
        ArtifactKey::new("test/thing").field("a", 1)
    }

    #[test]
    fn roundtrip_bytes_are_exact() {
        let store = temp_store("roundtrip");
        let payload = br#"{"x":[1.5,2.25],"name":"r0"}"#;
        assert!(store.load_bytes(&key()).is_none());
        store.save_bytes(&key(), payload).unwrap();
        assert_eq!(store.load_bytes(&key()).unwrap(), payload);
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.corrupt), (1, 1, 1, 0));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn truncated_artifact_is_a_corrupt_miss() {
        let store = temp_store("truncated");
        store.save_bytes(&key(), b"0123456789").unwrap();
        let path = store.artifact_path(&key());
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        assert!(store.load_bytes(&key()).is_none());
        assert_eq!(store.stats().corrupt, 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn flipped_payload_byte_is_a_corrupt_miss() {
        let store = temp_store("flipped");
        store.save_bytes(&key(), b"0123456789").unwrap();
        let path = store.artifact_path(&key());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load_bytes(&key()).is_none());
        assert_eq!(store.stats().corrupt, 1);
        fs::remove_dir_all(store.root()).ok();
    }

    fn counts(store: &Store) -> (usize, usize, usize) {
        let s = store.stats();
        (s.hits, s.misses, s.corrupt)
    }

    /// Saves `value` under `key()`, then rewrites the last occurrence of
    /// `from` in its file as `to` — a payload edit that leaves the header
    /// (and its recorded hash) untouched.
    fn save_and_edit(store: &Store, value: &[f64], from: &[u8], to: &[u8]) {
        store.save(&key(), &value.to_vec()).unwrap();
        let path = store.artifact_path(&key());
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes
            .windows(from.len())
            .rposition(|w| w == from)
            .expect("the payload contains the edited text");
        bytes.splice(at..at + from.len(), to.iter().copied());
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn clean_load_counts_exactly_one_hit() {
        let store = temp_store("clean_load");
        store.save(&key(), &vec![1.5f64, 2.25]).unwrap();
        assert_eq!(store.load::<Vec<f64>>(&key()), Some(vec![1.5, 2.25]));
        assert_eq!(counts(&store), (1, 0, 0));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn flipped_digit_that_still_parses_is_a_corrupt_miss() {
        let store = temp_store("flipped_digit");
        // "1.5" → "1.7": valid JSON, a valid Vec<f64>, the wrong hash.
        save_and_edit(&store, &[1.5, 2.25], b"1.5", b"1.7");
        assert_eq!(store.load::<Vec<f64>>(&key()), None);
        assert_eq!(counts(&store), (0, 1, 1));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn hash_mismatched_invalid_json_is_counted_corrupt_once() {
        let store = temp_store("mismatch_and_invalid");
        save_and_edit(&store, &[1.5, 2.25], b"]", b"}");
        assert_eq!(store.load::<Vec<f64>>(&key()), None);
        assert_eq!(counts(&store), (0, 1, 1));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn intact_payload_of_the_wrong_type_is_a_corrupt_miss() {
        let store = temp_store("wrong_type");
        store.save(&key(), &"not a vector".to_string()).unwrap();
        assert_eq!(store.load::<Vec<f64>>(&key()), None);
        assert_eq!(counts(&store), (0, 1, 1));
        // The same file is a hit for the type it holds.
        assert_eq!(
            store.load::<String>(&key()).as_deref(),
            Some("not a vector")
        );
        assert_eq!(counts(&store), (1, 1, 1));
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn garbage_file_is_a_corrupt_miss() {
        let store = temp_store("garbage");
        let path = store.artifact_path(&key());
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(&path, b"not an artifact at all").unwrap();
        assert!(store.load_bytes(&key()).is_none());
        assert_eq!(store.stats().corrupt, 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn different_keys_do_not_collide() {
        let store = temp_store("keys");
        let k1 = ArtifactKey::new("test/thing").field("epochs", 14);
        let k2 = ArtifactKey::new("test/thing").field("epochs", 15);
        store.save_bytes(&k1, b"fourteen").unwrap();
        assert!(store.load_bytes(&k2).is_none(), "changed field must miss");
        assert_eq!(store.load_bytes(&k1).unwrap(), b"fourteen");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn force_rebuild_misses_and_overwrites() {
        let store = temp_store("force");
        store.save_bytes(&key(), b"old").unwrap();
        let forced = Store::open(store.root()).with_force_rebuild(true);
        assert!(forced.load_bytes(&key()).is_none());
        let built = forced.load_or_build(&key(), || "new".to_string());
        assert_eq!(built, "new");
        // A plain store now sees the overwritten value.
        let plain = Store::open(store.root());
        assert_eq!(plain.load::<String>(&key()).unwrap(), "new");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn load_or_build_builds_once_then_hits() {
        let store = temp_store("lob");
        let calls = AtomicUsize::new(0);
        let build = || {
            calls.fetch_add(1, Ordering::Relaxed);
            vec![1.5f64, 2.5]
        };
        let first = store.load_or_build(&key(), build);
        let second = store.load_or_build(&key(), build);
        assert_eq!(first, second);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn verify_mode_confirms_identity_and_flags_drift() {
        let store = temp_store("verify");
        store.load_or_build(&key(), || vec![1u32, 2, 3]);
        let verifying = Store::open(store.root()).with_verify(true);
        let same = verifying.load_or_build(&key(), || vec![1u32, 2, 3]);
        assert_eq!(same, vec![1, 2, 3]);
        assert_eq!(verifying.stats().verified, 1);
        assert_eq!(verifying.stats().verify_mismatches, 0);
        // A "computation" that yields different bytes under the same key is
        // a broken contract: flagged, and the fresh value wins.
        let drifted = verifying.load_or_build(&key(), || vec![9u32]);
        assert_eq!(drifted, vec![9]);
        assert_eq!(verifying.stats().verify_mismatches, 1);
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn concurrent_writers_to_one_key_leave_a_valid_artifact() {
        let store = temp_store("concurrent");
        let store = std::sync::Arc::new(store);
        let mut handles = Vec::new();
        for w in 0..8u8 {
            let store = store.clone();
            handles.push(std::thread::spawn(move || {
                let payload = vec![w; 1000];
                for _ in 0..20 {
                    store.save_bytes(&key(), &payload).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Whichever writer won, the artifact must be complete and verifiable.
        let bytes = store.load_bytes(&key()).expect("valid artifact");
        assert_eq!(bytes.len(), 1000);
        assert!(bytes.iter().all(|&b| b == bytes[0]));
        assert_eq!(store.stats().corrupt, 0);
        // No temp litter left behind.
        let dir = store.artifact_path(&key());
        let litter: Vec<_> = fs::read_dir(dir.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(litter.is_empty(), "temp files left: {litter:?}");
        fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn from_env_respects_disable_and_flags() {
        // Can't mutate the real environment safely in parallel tests for the
        // positive case; at least pin down the canonical layout.
        let store = Store::open("/tmp/x")
            .with_force_rebuild(true)
            .with_verify(true);
        assert!(store.force_rebuild() && store.verify());
        let path = store.artifact_path(&key());
        let rel = path.strip_prefix("/tmp/x").unwrap();
        let mut parts = rel.components();
        assert_eq!(
            parts.next().unwrap().as_os_str().to_string_lossy(),
            format!("v{SCHEMA_VERSION}")
        );
        assert_eq!(parts.next().unwrap().as_os_str().to_string_lossy(), "test");
        assert_eq!(parts.next().unwrap().as_os_str().to_string_lossy(), "thing");
    }
}
