//! Checkpoint stores: where stored bytes live.
//!
//! A store is an atomic byte map with one namespace: it keeps exactly the
//! bytes it is given under a label and hands them back unchanged. What
//! those bytes mean — and their integrity framing — belongs to
//! [`crate::codec`]; [`CheckpointStore::save`] / [`CheckpointStore::restore`]
//! are `put` of [`encode`] and [`decode`] of `get`, so a corrupt snapshot
//! surfaces as [`FtError::Codec`]. Which labels a checkpoint writes
//! belongs to its writer (`sph_exa`'s distributed checkpoint and
//! recovery loop).
//!
//! Two stores: in memory (what the recovery tests and
//! `sph_exa::ResilientSimulation`'s default runs use — lost with the
//! process) and on disk (what the `miniapp` CLI and `sph-serve` use to
//! survive a kill). [`NamespacedStore`] lets independent writers share
//! one. Table 4's multilevel scheme, which would write to several such
//! tiers at different cadences, is not implemented.

use crate::codec::{decode, encode};
use crate::error::FtError;
use sph_core::particles::ParticleSystem;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// A place checkpoints can be written to and restored from.
pub trait CheckpointStore {
    /// Store `bytes` under `label`, replacing what was there; returns the
    /// stored size in bytes.
    fn put(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError>;
    /// The bytes stored under `label`, exactly as they were put.
    fn get(&self, label: &str) -> Result<Vec<u8>, FtError>;
    /// Labels currently stored, sorted.
    fn labels(&self) -> Vec<String>;
    /// Drop a label (e.g. when a simulated node failure wipes the tier).
    fn invalidate(&mut self, label: &str);

    /// Persist a snapshot under `label`; returns the stored size in bytes.
    fn save(&mut self, label: &str, sys: &ParticleSystem) -> Result<usize, FtError> {
        self.put(label, &encode(sys))
    }
    /// Restore the snapshot stored under `label`.
    fn restore(&self, label: &str) -> Result<ParticleSystem, FtError> {
        Ok(decode(&self.get(label)?)?)
    }
    /// Drop everything (tier-wide loss).
    fn invalidate_all(&mut self) {
        for label in self.labels() {
            self.invalidate(&label);
        }
    }
}

fn missing(label: &str) -> FtError {
    FtError::MissingCheckpoint { label: label.to_string() }
}

/// In-memory store: the "L1 node-local" tier.
#[derive(Debug, Default)]
pub struct MemoryStore {
    entries: BTreeMap<String, Vec<u8>>,
}

impl MemoryStore {
    pub fn new() -> Self {
        Self::default()
    }
}

impl CheckpointStore for MemoryStore {
    fn put(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        self.entries.insert(label.to_string(), bytes.to_vec());
        Ok(bytes.len())
    }

    fn get(&self, label: &str) -> Result<Vec<u8>, FtError> {
        self.entries.get(label).cloned().ok_or_else(|| missing(label))
    }

    fn labels(&self) -> Vec<String> {
        self.entries.keys().cloned().collect()
    }

    fn invalidate(&mut self, label: &str) {
        self.entries.remove(label);
    }
}

/// On-disk store: the "L3 parallel file system" tier. Each label is one
/// `{label}.sphcp` file, so labels are limited to `[A-Za-z0-9_-]+` —
/// anything else is refused with [`FtError::BadLabel`] rather than
/// mapped onto a file another label could share.
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

    fn path_of(&self, label: &str) -> Result<PathBuf, FtError> {
        let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        if label.is_empty() || !label.chars().all(safe) {
            return Err(FtError::BadLabel { label: label.to_string() });
        }
        Ok(self.dir.join(format!("{label}.sphcp")))
    }
}

impl CheckpointStore for DiskStore {
    fn put(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        let path = self.path_of(label)?;
        let io_err =
            |e: std::io::Error| FtError::Io { label: label.to_string(), detail: e.to_string() };
        // Write-then-rename: a crash mid-write never corrupts the previous
        // checkpoint — the property rollback to an older generation
        // depends on.
        let tmp = path.with_extension("tmp");
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp).map_err(io_err)?;
            f.write_all(bytes).map_err(io_err)?;
            f.sync_all().map_err(io_err)?;
        }
        std::fs::rename(&tmp, &path).map_err(io_err)?;
        Ok(bytes.len())
    }

    fn get(&self, label: &str) -> Result<Vec<u8>, FtError> {
        std::fs::read(self.path_of(label)?).map_err(|e| match e.kind() {
            std::io::ErrorKind::NotFound => missing(label),
            _ => FtError::Io { label: label.to_string(), detail: e.to_string() },
        })
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
        if let Ok(path) = self.path_of(label) {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// A view of another store with every label prefixed by `{namespace}__`.
///
/// Lets independent writers (e.g. sph-serve jobs, keyed by job id) share
/// one backing [`DiskStore`]/[`MemoryStore`] without label collisions:
/// each job sees only its own labels, and invalidating one namespace
/// cannot touch another's checkpoints. The separator is `__` (not `::`)
/// because [`DiskStore`] keeps only `[A-Za-z0-9_-]` labels; namespaces
/// should stick to that alphabet too (sph-serve's hex job ids do).
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
    fn put(&mut self, label: &str, bytes: &[u8]) -> Result<usize, FtError> {
        self.inner.put(&self.full(label), bytes)
    }

    fn get(&self, label: &str) -> Result<Vec<u8>, FtError> {
        self.inner.get(&self.full(label))
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
        assert_eq!(size, encode(&sample(1.0)).len());
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

        // Stores keep exactly the bytes they are given, under one
        // namespace: snapshots and any other framed object alike.
        let payload = b"any bytes at all".to_vec();
        assert_eq!(store.put("raw", &payload).unwrap(), payload.len());
        assert_eq!(store.get("raw").unwrap(), payload);
        assert_eq!(store.labels(), vec!["raw".to_string(), "step-20".to_string()]);
        // Bit rot in a stored snapshot surfaces through the codec's frame.
        let mut rotten = store.get("step-20").unwrap();
        let mid = rotten.len() / 2;
        rotten[mid] ^= 0x01;
        store.put("step-20", &rotten).unwrap();
        assert!(matches!(store.restore("step-20"), Err(FtError::Codec(_))));

        store.invalidate_all();
        assert!(store.labels().is_empty());
    }

    #[test]
    fn memory_store_contract() {
        exercise_store(&mut MemoryStore::new());
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
    fn disk_store_rejects_labels_it_cannot_round_trip() {
        // A label outside the file-name alphabet would have to be mapped
        // onto another name ("a.b" onto "a_b"), and two labels would then
        // share one file. The store refuses it instead.
        let dir = std::env::temp_dir().join(format!("sphft-test3-{}", std::process::id()));
        let mut store = DiskStore::new(&dir).unwrap();
        store.invalidate_all();
        for bad in ["a.b", "weird/label name", ""] {
            let refused = FtError::BadLabel { label: bad.to_string() };
            assert_eq!(store.save(bad, &sample(1.0)), Err(refused.clone()));
            assert_eq!(store.put(bad, b"x"), Err(refused));
        }
        store.save("a_b", &sample(2.0)).unwrap();
        assert!(matches!(store.restore("a.b"), Err(FtError::BadLabel { .. })));
        assert_eq!(store.restore("a_b").unwrap().time, 2.0);
        assert_eq!(store.labels(), vec!["a_b".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn namespaced_stores_are_isolated() {
        let backing = MemoryStore::new();
        let mut a = NamespacedStore::new("job-a", backing);
        a.save("gen0", &sample(1.0)).unwrap();

        let mut b = NamespacedStore::new("job-b", a.into_inner());
        // Namespace b sees none of a's labels.
        assert!(b.labels().is_empty());
        assert!(matches!(b.restore("gen0"), Err(FtError::MissingCheckpoint { .. })));
        b.save("gen0", &sample(2.0)).unwrap();
        assert_eq!(b.labels(), vec!["gen0".to_string()]);
        // Wiping b leaves a's data intact in the backing store.
        b.invalidate_all();
        let a_again = NamespacedStore::new("job-a", b.into_inner());
        assert_eq!(a_again.restore("gen0").unwrap().time, 1.0);
    }

    #[test]
    fn namespaced_labels_round_trip_through_disk_store() {
        // DiskStore keeps only file-name-safe labels, so the namespace
        // separator must be one (`__` is, `::` would not be).
        // labels()/invalidate_all() must keep working over a DiskStore.
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
