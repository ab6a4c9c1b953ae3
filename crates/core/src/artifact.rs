//! Versioned, durable artifacts: the persistence layer under
//! [`crate::Engine`] and [`crate::Session`].
//!
//! PatternPaint runs produce two artifacts worth keeping across
//! processes: the trained model (expensive to reproduce) and the
//! pattern libraries (the product). An [`ArtifactStore`] is a small
//! key/value abstraction over wherever those bytes live —
//! [`DirStore`] maps keys to files in a directory, [`MemStore`] keeps
//! them in memory for tests — and the engine/session save/resume
//! methods read and write through it:
//!
//! | key | contents |
//! |---|---|
//! | `engine.meta` | `PPEG` manifest: node, config, seed, finetune flag |
//! | `model.ppck` | versioned model checkpoint (`pp_diffusion::checkpoint`) |
//! | `session-<name>.meta` | `PPSS` manifest: session config, seed, progress counters |
//! | `session-<name>.ppsq` | the session library in squish form (`PPSQ v1`) |
//! | `train-<output>.ppck` / `.state` | a train job's checkpoint and `PPTS` resume state |
//!
//! Every blob goes through the one binary codec, [`pp_geometry::codec`]
//! (re-exported here for pp-core's formats), whose decoders are total.
//!
//! Failures surface as [`ArtifactError`] (wrapped in
//! [`crate::PpError::Artifact`] at the pipeline surface), whose
//! [`std::error::Error::source`] chain reaches the underlying
//! `io::Error` so operators can tell a full disk from a corrupt file;
//! a blob that fails to decode is [`ArtifactError::Corrupt`] naming the
//! key and, in its detail, the field.

pub(crate) use pp_geometry::codec::{ByteReader, ByteWriter, CodecError};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// What went wrong talking to an [`ArtifactStore`].
#[derive(Debug)]
#[non_exhaustive]
pub enum ArtifactError {
    /// Reading or writing the backing storage failed.
    Io {
        /// The file (or store location) involved.
        path: PathBuf,
        /// The underlying failure (also exposed via
        /// [`std::error::Error::source`]).
        source: io::Error,
    },
    /// The requested key does not exist in the store.
    Missing {
        /// The absent key.
        key: String,
    },
    /// A key contains characters the store cannot represent safely.
    InvalidKey {
        /// The offending key.
        key: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// Stored bytes parsed as none of the expected formats.
    Corrupt {
        /// The artifact key holding the bad bytes.
        key: String,
        /// What failed to parse or validate.
        detail: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Io { path, source } => {
                write!(f, "artifact i/o failed at {}: {source}", path.display())
            }
            ArtifactError::Missing { key } => write!(f, "artifact {key:?} not found"),
            ArtifactError::InvalidKey { key, reason } => {
                write!(f, "invalid artifact key {key:?}: {reason}")
            }
            ArtifactError::Corrupt { key, detail } => {
                write!(f, "corrupt artifact {key:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArtifactError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ArtifactError {
    pub(crate) fn corrupt(key: &str, detail: impl Into<String>) -> ArtifactError {
        ArtifactError::Corrupt {
            key: key.to_string(),
            detail: detail.into(),
        }
    }
}

/// Rejects keys that could escape a directory store or collide with
/// its temp files: only `[A-Za-z0-9._-]`, non-empty, no leading dot.
pub(crate) fn validate_key(key: &str) -> Result<(), ArtifactError> {
    let invalid = |reason| {
        Err(ArtifactError::InvalidKey {
            key: key.to_string(),
            reason,
        })
    };
    if key.is_empty() {
        return invalid("empty key");
    }
    if key.starts_with('.') {
        return invalid("keys must not start with '.'");
    }
    if !key
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
    {
        return invalid("keys may only contain [A-Za-z0-9._-]");
    }
    Ok(())
}

/// Durable storage for engine and session artifacts.
///
/// Implementations must make `put` atomic at the key level: a reader
/// never observes a half-written value (the directory store writes to
/// a temp file and renames). Keys are flat strings validated by the
/// store; the engine uses the fixed names listed in the module docs.
pub trait ArtifactStore: Send + Sync {
    /// Stores `bytes` under `key`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::InvalidKey`] for malformed keys,
    /// [`ArtifactError::Io`] when the backing storage fails.
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError>;

    /// Retrieves the value stored under `key`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Missing`] when the key does not exist, plus the
    /// same conditions as [`ArtifactStore::put`].
    fn get(&self, key: &str) -> Result<Vec<u8>, ArtifactError>;

    /// Whether `key` currently holds a value.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ArtifactStore::put`].
    fn contains(&self, key: &str) -> Result<bool, ArtifactError>;

    /// All keys currently stored, sorted.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the backing storage fails.
    fn list(&self) -> Result<Vec<String>, ArtifactError>;
}

/// Copies every artifact whose key starts with `prefix` from `src` to
/// `dst`, returning how many were copied (possibly 0 — an absent
/// prefix is not an error). Each key is copied with one `get` + one
/// `put`, so `dst` readers inherit the store's key-level atomicity:
/// they may observe a prefix mid-copy, but never a torn value. This is
/// the fleet's affinity-migration primitive — moving a
/// `session-<name>.*` pair between replica stores when a pinned
/// replica is lost or drained.
///
/// # Errors
///
/// Whatever the underlying [`ArtifactStore`] operations raise; a
/// failed copy leaves already-copied keys in place.
pub fn copy_artifacts(
    src: &dyn ArtifactStore,
    dst: &dyn ArtifactStore,
    prefix: &str,
) -> Result<usize, ArtifactError> {
    let mut copied = 0;
    for key in src.list()? {
        if !key.starts_with(prefix) {
            continue;
        }
        dst.put(&key, &src.get(&key)?)?;
        copied += 1;
    }
    Ok(copied)
}

/// An [`ArtifactStore`] mapping each key to a file in one directory.
///
/// Writes go to a dot-prefixed temp file, which is synced to disk and
/// renamed into place before the directory is synced, so concurrent
/// readers (or a crash mid-save) never see a truncated artifact and a
/// put that returned `Ok` survives a crash. A failed put removes its
/// temp file.
#[derive(Debug)]
pub struct DirStore {
    root: PathBuf,
}

impl DirStore {
    /// Opens (creating if needed) a store rooted at `root`.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] when the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<DirStore, ArtifactError> {
        let root = root.into();
        std::fs::create_dir_all(&root).map_err(|source| ArtifactError::Io {
            path: root.clone(),
            source,
        })?;
        Ok(DirStore { root })
    }

    /// The directory backing this store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.root.join(key)
    }
}

impl ArtifactStore for DirStore {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError> {
        validate_key(key)?;
        // Unique temp name per put: a fixed `.tmp-<key>` would let two
        // concurrent puts of the same key truncate each other's temp
        // file and rename half-written bytes into place, breaking the
        // trait's key-level atomicity guarantee.
        static PUT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self
            .root
            .join(format!(".tmp-{}-{seq}-{key}", std::process::id()));
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |source| ArtifactError::Io { path, source }
        };
        let dst = self.path_for(key);
        let put = write_synced(&tmp, bytes)
            .map_err(io_err(&tmp))
            .and_then(|()| std::fs::rename(&tmp, &dst).map_err(io_err(&dst)));
        if put.is_err() {
            // The put has failed either way; a leftover temp file would
            // only accumulate (list() skips dot-prefixed names).
            let _ = std::fs::remove_file(&tmp);
        }
        put?;
        // Make the rename itself durable before reporting success.
        std::fs::File::open(&self.root)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err(&self.root))
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, ArtifactError> {
        validate_key(key)?;
        let path = self.path_for(key);
        match std::fs::read(&path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Err(ArtifactError::Missing {
                key: key.to_string(),
            }),
            Err(source) => Err(ArtifactError::Io { path, source }),
        }
    }

    fn contains(&self, key: &str) -> Result<bool, ArtifactError> {
        validate_key(key)?;
        Ok(self.path_for(key).is_file())
    }

    fn list(&self) -> Result<Vec<String>, ArtifactError> {
        let entries = std::fs::read_dir(&self.root).map_err(|source| ArtifactError::Io {
            path: self.root.clone(),
            source,
        })?;
        let mut keys = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|source| ArtifactError::Io {
                path: self.root.clone(),
                source,
            })?;
            if let Some(name) = entry.file_name().to_str() {
                if validate_key(name).is_ok() && entry.path().is_file() {
                    keys.push(name.to_string());
                }
            }
        }
        keys.sort();
        Ok(keys)
    }
}

/// Writes `bytes` to a new file at `path` and syncs it to disk, so a
/// rename that follows never publishes a partly written file.
fn write_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// An in-memory [`ArtifactStore`] for tests and ephemeral runs.
#[derive(Debug, Default)]
pub struct MemStore {
    map: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl ArtifactStore for MemStore {
    fn put(&self, key: &str, bytes: &[u8]) -> Result<(), ArtifactError> {
        validate_key(key)?;
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(key.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, ArtifactError> {
        validate_key(key)?;
        self.map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
            .cloned()
            .ok_or_else(|| ArtifactError::Missing {
                key: key.to_string(),
            })
    }

    fn contains(&self, key: &str) -> Result<bool, ArtifactError> {
        validate_key(key)?;
        Ok(self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(key))
    }

    fn list(&self) -> Result<Vec<String>, ArtifactError> {
        Ok(self
            .map
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .keys()
            .cloned()
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn mem_store_roundtrip_and_missing() {
        let store = MemStore::new();
        assert!(!store.contains("a.bin").unwrap());
        store.put("a.bin", b"hello").unwrap();
        assert_eq!(store.get("a.bin").unwrap(), b"hello");
        assert!(store.contains("a.bin").unwrap());
        assert_eq!(store.list().unwrap(), vec!["a.bin".to_string()]);
        assert!(matches!(
            store.get("b.bin").unwrap_err(),
            ArtifactError::Missing { .. }
        ));
    }

    #[test]
    fn copy_artifacts_moves_prefixed_keys_between_stores() {
        let src = MemStore::new();
        let dst = MemStore::new();
        src.put("session-a.meta", b"meta").unwrap();
        src.put("session-a.ppsq", b"lib").unwrap();
        src.put("engine.meta", b"engine").unwrap();
        let copied = copy_artifacts(&src, &dst, "session-a.").unwrap();
        assert_eq!(copied, 2, "exactly the session pair moves");
        assert_eq!(dst.get("session-a.meta").unwrap(), b"meta");
        assert_eq!(dst.get("session-a.ppsq").unwrap(), b"lib");
        assert!(!dst.contains("engine.meta").unwrap(), "prefix respected");
        // Source keeps its artifacts (copy, not move) and an absent
        // prefix is a no-op, not an error.
        assert_eq!(src.list().unwrap().len(), 3);
        assert_eq!(copy_artifacts(&src, &dst, "session-zzz.").unwrap(), 0);
    }

    #[test]
    fn keys_are_validated() {
        let store = MemStore::new();
        for bad in ["", "..", "a/b", "a\\b", ".hidden", "sp ace"] {
            assert!(
                matches!(
                    store.put(bad, b"x").unwrap_err(),
                    ArtifactError::InvalidKey { .. }
                ),
                "key {bad:?} should be rejected"
            );
        }
        store.put("ok-key_1.bin", b"x").unwrap();
    }

    #[test]
    fn dir_store_roundtrip_and_atomicity_markers() {
        let root = std::env::temp_dir().join(format!("pp-artifact-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::open(&root).unwrap();
        store.put("m.bin", b"abc").unwrap();
        store.put("m.bin", b"abcd").unwrap(); // overwrite
        assert_eq!(store.get("m.bin").unwrap(), b"abcd");
        assert_eq!(store.list().unwrap(), vec!["m.bin".to_string()]);
        // No temp residue after successful puts.
        let residue = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with('.'))
            .count();
        assert_eq!(residue, 0);
        let err = store.get("absent").unwrap_err();
        assert!(matches!(err, ArtifactError::Missing { .. }));
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A put that fails at the rename (the destination is a directory,
    /// EISDIR) reports the error and leaves no temp file behind.
    #[test]
    fn dir_store_failed_put_leaves_no_temp_file() {
        let root = std::env::temp_dir().join(format!("pp-artifact-eisdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = DirStore::open(&root).unwrap();
        std::fs::create_dir(root.join("m.bin")).unwrap();
        let err = store.put("m.bin", b"abc").unwrap_err();
        assert!(matches!(err, ArtifactError::Io { .. }), "{err}");
        let temps: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with(".tmp-"))
            .collect();
        assert!(temps.is_empty(), "temp files left: {temps:?}");
        assert!(root.join("m.bin").is_dir());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn io_errors_chain_to_source() {
        // Opening a store under a path that is a *file* must fail with
        // an Io variant whose source is the root io::Error.
        let root = std::env::temp_dir().join(format!("pp-artifact-file-{}", std::process::id()));
        std::fs::write(&root, b"not a dir").unwrap();
        let err = DirStore::open(&root).unwrap_err();
        assert!(matches!(err, ArtifactError::Io { .. }));
        assert!(err.source().is_some(), "Io must expose its source");
        let _ = std::fs::remove_file(&root);
    }
}
