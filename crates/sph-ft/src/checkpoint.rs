//! Checkpoint stores: where serialized snapshots live.
//!
//! One store interface and two stores: in memory (what the recovery
//! tests and `sph_exa::ResilientSimulation`'s default runs use — lost with
//! the process) and on disk (what the `miniapp` CLI and `sph-serve` use to
//! survive a kill). Table 4's multilevel scheme, which would write to
//! several such tiers at different cadences, is not implemented.
//!
//! Snapshots carry the codec's own magic/version/checksum framing; raw
//! blobs are *sealed* on save with an FNV-1a trailer that [`CheckpointStore::restore_blob`]
//! verifies **before** handing bytes back — a corrupt manifest is
//! reported as [`FtError::BlobCorrupted`] instead of failing late inside
//! whatever deserializer consumes it.

use crate::codec::{decode, encode, fnv1a};
use crate::error::FtError;
use sph_core::particles::ParticleSystem;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Which of a store's two namespaces an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredKind {
    /// A [`ParticleSystem`] snapshot (codec-framed).
    Snapshot,
    /// An opaque sealed blob (manifests, metadata).
    Blob,
}

/// Seal raw bytes with an FNV-1a integrity trailer.
fn seal_blob(bytes: &[u8]) -> Vec<u8> {
    let mut sealed = Vec::with_capacity(bytes.len() + 8);
    sealed.extend_from_slice(bytes);
    sealed.extend_from_slice(&fnv1a(bytes).to_le_bytes());
    sealed
}

/// Verify and strip a seal written by [`seal_blob`].
fn unseal_blob(label: &str, sealed: &[u8]) -> Result<Vec<u8>, FtError> {
    if sealed.len() < 8 {
        return Err(FtError::BlobCorrupted {
            label: label.to_string(),
            detail: format!("{} bytes is too short to carry a checksum trailer", sealed.len()),
        });
    }
    let (body, trailer) = sealed.split_at(sealed.len() - 8);
    let stored = u64::from_le_bytes([
        trailer[0], trailer[1], trailer[2], trailer[3], trailer[4], trailer[5], trailer[6],
        trailer[7],
    ]);
    let computed = fnv1a(body);
    if stored != computed {
        return Err(FtError::BlobCorrupted {
            label: label.to_string(),
            detail: format!("checksum trailer {stored:#018x} != computed {computed:#018x}"),
        });
    }
    Ok(body.to_vec())
}

/// A place checkpoints can be written to and restored from.
pub trait CheckpointStore {
    /// Persist a snapshot under `label`; returns the stored size in bytes.
    fn save(&mut self, label: &str, sys: &ParticleSystem) -> Result<usize, FtError>;
    /// Restore the snapshot stored under `label`.
    fn restore(&self, label: &str) -> Result<ParticleSystem, FtError>;
    /// Labels currently stored, sorted.
    fn labels(&self) -> Vec<String>;
    /// Drop a snapshot (e.g. when a simulated node failure wipes the tier).
    fn invalidate(&mut self, label: &str);
    /// Drop everything (tier-wide loss).
    fn invalidate_all(&mut self);

    /// Persist an opaque byte blob under `label` — metadata that travels
    /// with snapshots but is not itself a [`ParticleSystem`] (e.g. the
    /// per-rank manifest of a distributed checkpoint). Blobs live in a
    /// separate namespace from snapshots and do not appear in
    /// [`CheckpointStore::labels`]. Stores may not support blobs; the
    /// default refuses.
    fn save_blob(&mut self, _label: &str, _bytes: &[u8]) -> Result<usize, FtError> {
        Err(FtError::Unsupported { what: "raw blobs" })
    }

    /// Restore a blob saved with [`CheckpointStore::save_blob`]. The
    /// integrity trailer is verified (and stripped) before any byte is
    /// returned; corruption surfaces as [`FtError::BlobCorrupted`].
    fn restore_blob(&self, _label: &str) -> Result<Vec<u8>, FtError> {
        Err(FtError::Unsupported { what: "raw blobs" })
    }

    /// Fault-injection seam: mutate the *stored* bytes under `label` in
    /// place (bit rot, truncation). Chaos tests use this to corrupt a
    /// checkpoint after it was written and verified; production code has
    /// no reason to call it. The default refuses.
    fn corrupt_stored(
        &mut self,
        _label: &str,
        _kind: StoredKind,
        _mutate: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), FtError> {
        Err(FtError::Unsupported { what: "stored-byte corruption" })
    }
}

/// In-memory store: the "L1 node-local" tier.
#[derive(Debug, Default)]
pub struct MemoryStore {
    snapshots: BTreeMap<String, Vec<u8>>,
    raw_blobs: BTreeMap<String, Vec<u8>>,
}

impl MemoryStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryStore {
    fn save(&mut self, label: &str, sys: &ParticleSystem) -> Result<usize, FtError> {
        let bytes = encode(sys);
        let size = bytes.len();
        self.snapshots.insert(label.to_string(), bytes);
        Ok(size)
    }

    fn restore(&self, label: &str) -> Result<ParticleSystem, FtError> {
        let bytes = self
            .snapshots
            .get(label)
            .ok_or_else(|| FtError::MissingCheckpoint { label: label.to_string() })?;
        decode(bytes).map_err(FtError::from)
    }

    fn labels(&self) -> Vec<String> {
        self.snapshots.keys().cloned().collect()
    }

    fn invalidate(&mut self, label: &str) {
        self.snapshots.remove(label);
        self.raw_blobs.remove(label);
    }

    fn invalidate_all(&mut self) {
        self.snapshots.clear();
        self.raw_blobs.clear();
    }

    fn save_blob(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        let sealed = seal_blob(bytes);
        let size = sealed.len();
        self.raw_blobs.insert(label.to_string(), sealed);
        Ok(size)
    }

    fn restore_blob(&self, label: &str) -> Result<Vec<u8>, FtError> {
        let sealed = self
            .raw_blobs
            .get(label)
            .ok_or_else(|| FtError::MissingBlob { label: label.to_string() })?;
        unseal_blob(label, sealed)
    }

    fn corrupt_stored(
        &mut self,
        label: &str,
        kind: StoredKind,
        mutate: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), FtError> {
        let entry = match kind {
            StoredKind::Snapshot => self
                .snapshots
                .get_mut(label)
                .ok_or_else(|| FtError::MissingCheckpoint { label: label.to_string() })?,
            StoredKind::Blob => self
                .raw_blobs
                .get_mut(label)
                .ok_or_else(|| FtError::MissingBlob { label: label.to_string() })?,
        };
        mutate(entry);
        Ok(())
    }
}

/// On-disk store: the "L3 parallel file system" tier.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Store checkpoints under `dir` (created if missing).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, FtError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| FtError::Io { label: dir.display().to_string(), detail: e.to_string() })?;
        Ok(DiskStore { dir })
    }

    fn path_of(&self, label: &str) -> PathBuf {
        // Sanitise: labels become file names.
        let safe: String = label
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
            .collect();
        self.dir.join(format!("{safe}.sphcp"))
    }

    fn blob_path_of(&self, label: &str) -> PathBuf {
        self.path_of(label).with_extension("sphblob")
    }

    fn write_atomic(path: &PathBuf, bytes: &[u8], label: &str) -> Result<(), FtError> {
        let io_err =
            |e: std::io::Error| FtError::Io { label: label.to_string(), detail: e.to_string() };
        let tmp = path.with_extension("tmp");
        // Write-then-rename: a crash mid-write never corrupts the previous
        // checkpoint — the property rollback to an older generation
        // depends on.
        {
            let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(bytes).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, path).map_err(io_err)
    }

    fn read_all(path: &PathBuf, missing: FtError, label: &str) -> Result<Vec<u8>, FtError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .map_err(|_| missing)?
            .read_to_end(&mut bytes)
            .map_err(|e| FtError::Io { label: label.to_string(), detail: e.to_string() })?;
        Ok(bytes)
    }
}

impl CheckpointStore for DiskStore {
    fn save(&mut self, label: &str, sys: &ParticleSystem) -> Result<usize, FtError> {
        let bytes = encode(sys);
        Self::write_atomic(&self.path_of(label), &bytes, label)?;
        Ok(bytes.len())
    }

    fn restore(&self, label: &str) -> Result<ParticleSystem, FtError> {
        let bytes = Self::read_all(
            &self.path_of(label),
            FtError::MissingCheckpoint { label: label.to_string() },
            label,
        )?;
        decode(&bytes).map_err(FtError::from)
    }

    fn labels(&self) -> Vec<String> {
        let mut out: Vec<String> = std::fs::read_dir(&self.dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| {
                        let name = e.file_name().into_string().ok()?;
                        name.strip_suffix(".sphcp").map(str::to_string)
                    })
                    .collect()
            })
            .unwrap_or_default();
        out.sort();
        out
    }

    fn invalidate(&mut self, label: &str) {
        let _ = std::fs::remove_file(self.path_of(label));
        let _ = std::fs::remove_file(self.blob_path_of(label));
    }

    fn invalidate_all(&mut self) {
        for l in self.labels() {
            self.invalidate(&l);
        }
        // Blobs may exist without a same-named snapshot.
        if let Ok(rd) = std::fs::read_dir(&self.dir) {
            for e in rd.filter_map(|e| e.ok()) {
                if e.file_name().to_string_lossy().ends_with(".sphblob") {
                    let _ = std::fs::remove_file(e.path());
                }
            }
        }
    }

    fn save_blob(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        let sealed = seal_blob(bytes);
        Self::write_atomic(&self.blob_path_of(label), &sealed, label)?;
        Ok(sealed.len())
    }

    fn restore_blob(&self, label: &str) -> Result<Vec<u8>, FtError> {
        let sealed = Self::read_all(
            &self.blob_path_of(label),
            FtError::MissingBlob { label: label.to_string() },
            label,
        )?;
        unseal_blob(label, &sealed)
    }

    fn corrupt_stored(
        &mut self,
        label: &str,
        kind: StoredKind,
        mutate: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), FtError> {
        let (path, missing) = match kind {
            StoredKind::Snapshot => {
                (self.path_of(label), FtError::MissingCheckpoint { label: label.to_string() })
            }
            StoredKind::Blob => {
                (self.blob_path_of(label), FtError::MissingBlob { label: label.to_string() })
            }
        };
        let mut bytes = Self::read_all(&path, missing, label)?;
        mutate(&mut bytes);
        // Deliberately *not* atomic: this simulates in-place bit rot.
        std::fs::write(&path, &bytes)
            .map_err(|e| FtError::Io { label: label.to_string(), detail: e.to_string() })
    }
}

/// A view of another store with every label prefixed by `{namespace}__`.
///
/// Lets independent writers (e.g. sph-serve jobs, keyed by job id) share
/// one backing [`DiskStore`]/[`MemoryStore`] without label collisions:
/// each job sees only its own snapshots and blobs, and invalidating one
/// namespace cannot touch another's checkpoints. The separator is `__`
/// (not `::`) because [`DiskStore`] sanitises labels into file names and
/// only `[A-Za-z0-9_-]` survives the round trip through
/// [`CheckpointStore::labels`]; namespaces should stick to that alphabet
/// too (sph-serve's hex job ids do).
pub struct NamespacedStore<S> {
    inner: S,
    prefix: String,
}

impl<S> NamespacedStore<S> {
    pub fn new(namespace: &str, inner: S) -> NamespacedStore<S> {
        NamespacedStore { inner, prefix: format!("{namespace}__") }
    }

    fn full(&self, label: &str) -> String {
        format!("{}{label}", self.prefix)
    }

    /// The wrapped store.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: CheckpointStore> CheckpointStore for NamespacedStore<S> {
    fn save(&mut self, label: &str, sys: &ParticleSystem) -> Result<usize, FtError> {
        self.inner.save(&self.full(label), sys)
    }

    fn restore(&self, label: &str) -> Result<ParticleSystem, FtError> {
        self.inner.restore(&self.full(label))
    }

    fn labels(&self) -> Vec<String> {
        self.inner
            .labels()
            .into_iter()
            .filter_map(|l| l.strip_prefix(&self.prefix).map(str::to_string))
            .collect()
    }

    fn invalidate(&mut self, label: &str) {
        self.inner.invalidate(&self.full(label));
    }

    fn invalidate_all(&mut self) {
        for label in self.labels() {
            self.invalidate(&label);
        }
    }

    fn save_blob(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        self.inner.save_blob(&self.full(label), bytes)
    }

    fn restore_blob(&self, label: &str) -> Result<Vec<u8>, FtError> {
        self.inner.restore_blob(&self.full(label))
    }

    fn corrupt_stored(
        &mut self,
        label: &str,
        kind: StoredKind,
        mutate: &mut dyn FnMut(&mut Vec<u8>),
    ) -> Result<(), FtError> {
        self.inner.corrupt_stored(&self.full(label), kind, mutate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sph_math::{Aabb, Periodicity, Vec3};

    fn sample(tag: f64) -> ParticleSystem {
        let mut sys = ParticleSystem::new(
            vec![Vec3::splat(0.25), Vec3::splat(0.75)],
            vec![Vec3::ZERO; 2],
            vec![1.0, 1.0],
            vec![tag, tag],
            0.1,
            Periodicity::open(Aabb::unit()),
        );
        sys.time = tag;
        sys
    }

    fn exercise_store(store: &mut dyn CheckpointStore) {
        assert!(store.labels().is_empty());
        let size = store.save("step-10", &sample(1.0)).unwrap();
        assert!(size > 0);
        store.save("step-20", &sample(2.0)).unwrap();
        assert_eq!(store.labels(), vec!["step-10".to_string(), "step-20".to_string()]);
        let back = store.restore("step-20").unwrap();
        assert_eq!(back.time, 2.0);
        let back = store.restore("step-10").unwrap();
        assert_eq!(back.time, 1.0);
        assert!(matches!(
            store.restore("missing"),
            Err(FtError::MissingCheckpoint { label }) if label == "missing"
        ));
        store.invalidate("step-10");
        assert!(store.restore("step-10").is_err());
        store.invalidate_all();
        assert!(store.labels().is_empty());
    }

    fn exercise_blobs(store: &mut dyn CheckpointStore) {
        let payload = b"manifest bytes".to_vec();
        store.save_blob("m", &payload).unwrap();
        assert_eq!(store.restore_blob("m").unwrap(), payload);
        assert!(matches!(
            store.restore_blob("absent"),
            Err(FtError::MissingBlob { label }) if label == "absent"
        ));

        // Bit rot in the body is caught by the trailer, before decode.
        store
            .corrupt_stored("m", StoredKind::Blob, &mut |bytes: &mut Vec<u8>| {
                bytes[3] ^= 0x40;
            })
            .unwrap();
        assert!(matches!(store.restore_blob("m"), Err(FtError::BlobCorrupted { .. })));

        // Truncation below the trailer size is also a typed corruption.
        store.save_blob("m", &payload).unwrap();
        store
            .corrupt_stored("m", StoredKind::Blob, &mut |bytes: &mut Vec<u8>| {
                bytes.truncate(4);
            })
            .unwrap();
        assert!(matches!(store.restore_blob("m"), Err(FtError::BlobCorrupted { .. })));

        // Snapshot corruption surfaces through the codec's own framing.
        store.save("snap", &sample(3.0)).unwrap();
        store
            .corrupt_stored("snap", StoredKind::Snapshot, &mut |bytes: &mut Vec<u8>| {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            })
            .unwrap();
        assert!(matches!(store.restore("snap"), Err(FtError::Codec(_))));
        store.invalidate_all();
    }

    #[test]
    fn memory_store_contract() {
        exercise_store(&mut MemoryStore::new());
    }

    #[test]
    fn memory_store_blob_seal() {
        exercise_blobs(&mut MemoryStore::new());
    }

    #[test]
    fn disk_store_contract() {
        let dir = std::env::temp_dir().join(format!("sphft-test-{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.invalidate_all();
        exercise_store(&mut store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_blob_seal() {
        let dir = std::env::temp_dir().join(format!("sphft-test4-{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.invalidate_all();
        exercise_blobs(&mut store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_overwrites_atomically() {
        let dir = std::env::temp_dir().join(format!("sphft-test2-{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.save("ck", &sample(1.0)).unwrap();
        store.save("ck", &sample(2.0)).unwrap();
        assert_eq!(store.restore("ck").unwrap().time, 2.0);
        assert_eq!(store.labels().len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_store_sanitises_labels() {
        let dir = std::env::temp_dir().join(format!("sphft-test3-{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.save("weird/label name", &sample(1.0)).unwrap();
        assert_eq!(store.restore("weird/label name").unwrap().time, 1.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_store_refuses_blobs_with_typed_error() {
        struct Minimal;
        impl CheckpointStore for Minimal {
            fn save(&mut self, _: &str, _: &ParticleSystem) -> Result<usize, FtError> {
                Ok(0)
            }
            fn restore(&self, label: &str) -> Result<ParticleSystem, FtError> {
                Err(FtError::MissingCheckpoint { label: label.to_string() })
            }
            fn labels(&self) -> Vec<String> {
                Vec::new()
            }
            fn invalidate(&mut self, _: &str) {}
            fn invalidate_all(&mut self) {}
        }
        let mut s = Minimal;
        assert!(matches!(s.save_blob("x", b"y"), Err(FtError::Unsupported { .. })));
        assert!(matches!(s.restore_blob("x"), Err(FtError::Unsupported { .. })));
        assert!(matches!(
            s.corrupt_stored("x", StoredKind::Blob, &mut |_| {}),
            Err(FtError::Unsupported { .. })
        ));
    }

    #[test]
    fn namespaced_stores_are_isolated() {
        let backing = MemoryStore::new();
        let mut a = NamespacedStore::new("job-a", backing);
        a.save("gen0", &sample(1.0)).unwrap();
        a.save_blob("manifest", b"alpha").unwrap();

        let mut b = NamespacedStore::new("job-b", a.into_inner());
        // Namespace b sees none of a's snapshots or blobs.
        assert!(b.labels().is_empty());
        assert!(matches!(b.restore("gen0"), Err(FtError::MissingCheckpoint { .. })));
        assert!(matches!(b.restore_blob("manifest"), Err(FtError::MissingBlob { .. })));
        b.save("gen0", &sample(2.0)).unwrap();
        assert_eq!(b.labels(), vec!["gen0".to_string()]);
        // Wiping b leaves a's data intact in the backing store.
        b.invalidate_all();
        let a_again = NamespacedStore::new("job-a", b.into_inner());
        assert_eq!(a_again.restore("gen0").unwrap().time, 1.0);
        assert_eq!(a_again.restore_blob("manifest").unwrap(), b"alpha");
    }

    #[test]
    fn namespaced_labels_round_trip_through_disk_store() {
        // DiskStore reconstructs label names from sanitised file names, so the
        // namespace separator must survive sanitisation (`__` does, `::` would
        // not). labels()/invalidate_all() must keep working over a DiskStore.
        let dir = std::env::temp_dir().join(format!("sphft-test5-{}", std::process::id()));
        let mut a = NamespacedStore::new("1f2e3d4c", DiskStore::new(&dir).unwrap());
        a.invalidate_all();
        a.save("resilient-gen0", &sample(1.0)).unwrap();
        a.save("resilient-gen1", &sample(2.0)).unwrap();
        let mut labels = a.labels();
        labels.sort();
        assert_eq!(labels, vec!["resilient-gen0".to_string(), "resilient-gen1".to_string()]);
        assert_eq!(a.restore("resilient-gen1").unwrap().time, 2.0);

        let mut other = NamespacedStore::new("deadbeef", a.into_inner());
        assert!(other.labels().is_empty());
        other.save("resilient-gen0", &sample(3.0)).unwrap();
        other.invalidate_all();
        assert!(other.labels().is_empty());
        let a_back = NamespacedStore::new("1f2e3d4c", other.into_inner());
        assert_eq!(a_back.labels().len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
