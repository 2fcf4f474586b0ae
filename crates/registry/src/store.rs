//! Content-addressed sealed bundle storage with a capacity-bounded LRU.
//!
//! Verified uploads are re-sealed into a [`ProtectedFs`] under the
//! registry's root key-derivation key — one sealed file per graph
//! fingerprint at `/registry/<fp>.sealed`, so identical models uploaded
//! by different tenants collapse onto one bundle (dedup) and the host
//! only ever holds ciphertext. TEE memory and sealed capacity are the
//! scarce resources, so the store keeps at most `max_bundles` bundles
//! and evicts least-recently-used ones; evicted fingerprints are reported
//! to the caller so in-memory engines can be dropped with them.

use std::collections::BTreeMap;

use mvtee_crypto::sha256::sha256;
use mvtee_tee::ProtectedFs;

use crate::blob::key_hex;
use crate::error::{RegistryError, Result};

/// Metadata kept per stored bundle (inside the TEE).
#[derive(Debug, Clone)]
pub struct BundleMeta {
    /// SHA-256 of the plaintext blob.
    pub digest: [u8; 32],
    /// Plaintext length.
    pub len: u64,
    /// Tenant-facing routing name the bundle was first registered under.
    pub model_name: String,
}

/// Result of a store insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutOutcome {
    /// Fresh content: the bundle was sealed and stored.
    Stored,
    /// The same content was already stored — nothing written.
    Deduplicated,
}

/// The sealed, content-addressed bundle store.
#[derive(Debug)]
pub struct SealedStore {
    kdk: [u8; 32],
    fs: ProtectedFs,
    entries: BTreeMap<u64, BundleMeta>,
    /// Most-recent at the back.
    lru: Vec<u64>,
    max_bundles: usize,
    evicted: Vec<u64>,
}

impl SealedStore {
    /// Creates a store sealing under `kdk`, keeping at most `max_bundles`
    /// bundles.
    pub fn new(kdk: [u8; 32], max_bundles: usize) -> Self {
        SealedStore {
            kdk,
            fs: ProtectedFs::new(),
            entries: BTreeMap::new(),
            lru: Vec::new(),
            max_bundles: max_bundles.max(1),
            evicted: Vec::new(),
        }
    }

    fn path(fingerprint: u64) -> String {
        format!("/registry/{}.sealed", key_hex(fingerprint))
    }

    fn touch(&mut self, fingerprint: u64) {
        self.lru.retain(|&fp| fp != fingerprint);
        self.lru.push(fingerprint);
    }

    /// Inserts a verified plaintext blob under its fingerprint.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::ContentCollision`] when the fingerprint is
    /// already bound to a different digest.
    pub fn put(&mut self, fingerprint: u64, meta: BundleMeta, blob: &[u8]) -> Result<PutOutcome> {
        if let Some(existing) = self.entries.get(&fingerprint) {
            if existing.digest != meta.digest {
                return Err(RegistryError::ContentCollision { fingerprint });
            }
            self.touch(fingerprint);
            mvtee_telemetry::counter("registry.store.dedup_hits").inc();
            return Ok(PutOutcome::Deduplicated);
        }
        self.fs.write(&self.kdk, &Self::path(fingerprint), blob);
        self.entries.insert(fingerprint, meta);
        self.touch(fingerprint);
        mvtee_telemetry::counter("registry.store.bundles_sealed").inc();
        while self.entries.len() > self.max_bundles {
            // Never evict what we just inserted (it is at the LRU back).
            let victim = self.lru[0];
            self.drop_bundle(victim);
            self.evicted.push(victim);
            mvtee_telemetry::counter("registry.store.evictions").inc();
        }
        mvtee_telemetry::gauge("registry.store.bundles").set(self.entries.len() as i64);
        Ok(PutOutcome::Stored)
    }

    fn drop_bundle(&mut self, fingerprint: u64) {
        self.fs.remove(&Self::path(fingerprint));
        self.entries.remove(&fingerprint);
        self.lru.retain(|&fp| fp != fingerprint);
    }

    /// Unseals a bundle, re-verifying its digest, and marks it
    /// most-recently-used.
    ///
    /// # Errors
    ///
    /// * [`RegistryError::UnknownModel`] — absent (never stored or evicted),
    /// * [`RegistryError::ChunkAuthFailed`]-class channel errors surface as
    ///   [`RegistryError::Channel`] (sealed-blob tamper),
    /// * [`RegistryError::DigestMismatch`] — unsealed bytes fail the digest.
    pub fn get(&mut self, fingerprint: u64) -> Result<Vec<u8>> {
        let meta = self
            .entries
            .get(&fingerprint)
            .cloned()
            .ok_or_else(|| RegistryError::UnknownModel { key: key_hex(fingerprint) })?;
        let blob = self
            .fs
            .read(&self.kdk, &Self::path(fingerprint))
            .map_err(|e| RegistryError::Channel(format!("sealed bundle unreadable: {e:?}")))?;
        if sha256(&blob) != meta.digest || blob.len() as u64 != meta.len {
            return Err(RegistryError::DigestMismatch);
        }
        self.touch(fingerprint);
        Ok(blob)
    }

    /// Metadata for a stored bundle, if present.
    pub fn meta(&self, fingerprint: u64) -> Option<&BundleMeta> {
        self.entries.get(&fingerprint)
    }

    /// Whether a bundle is currently stored.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.entries.contains_key(&fingerprint)
    }

    /// Number of stored bundles.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drains the fingerprints evicted since the last call, so callers
    /// can drop the matching in-memory engines.
    pub fn drain_evictions(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.evicted)
    }

    /// Everything the untrusted host can observe of this store: the
    /// sealed blobs. The coldstart experiment scans this (plus the wire)
    /// for plaintext weight bytes.
    pub fn host_visible_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for path in self.fs.paths() {
            if let Some((salt, blob)) = self.fs.export(path) {
                out.extend_from_slice(&salt);
                out.extend_from_slice(&blob);
            }
        }
        out
    }

    /// Host-level tamper hook for tests: corrupts a byte of a stored
    /// bundle's sealed blob.
    pub fn tamper(&mut self, fingerprint: u64, byte: usize) -> bool {
        self.fs.tamper(&Self::path(fingerprint), byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(digest: [u8; 32], len: u64) -> BundleMeta {
        BundleMeta { digest, len, model_name: "m".into() }
    }

    fn put_blob(store: &mut SealedStore, fp: u64, blob: &[u8]) -> PutOutcome {
        store.put(fp, meta(sha256(blob), blob.len() as u64), blob).unwrap()
    }

    #[test]
    fn round_trips_and_dedups() {
        let mut s = SealedStore::new([7u8; 32], 4);
        assert_eq!(put_blob(&mut s, 1, b"hello"), PutOutcome::Stored);
        assert_eq!(put_blob(&mut s, 1, b"hello"), PutOutcome::Deduplicated);
        assert_eq!(s.get(1).unwrap(), b"hello");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn collisions_are_rejected() {
        let mut s = SealedStore::new([7u8; 32], 4);
        put_blob(&mut s, 1, b"hello");
        let err = s.put(1, meta(sha256(b"other"), 5), b"other").unwrap_err();
        assert_eq!(err, RegistryError::ContentCollision { fingerprint: 1 });
    }

    #[test]
    fn lru_evicts_the_coldest_bundle() {
        let mut s = SealedStore::new([7u8; 32], 2);
        put_blob(&mut s, 1, b"a");
        put_blob(&mut s, 2, b"b");
        s.get(1).unwrap(); // 2 is now coldest
        put_blob(&mut s, 3, b"c");
        assert_eq!(s.drain_evictions(), vec![2]);
        assert!(s.contains(1) && s.contains(3) && !s.contains(2));
        assert!(matches!(s.get(2), Err(RegistryError::UnknownModel { .. })));
        assert!(s.drain_evictions().is_empty());
    }

    #[test]
    fn sealed_tamper_is_detected() {
        let mut s = SealedStore::new([7u8; 32], 4);
        put_blob(&mut s, 1, b"hello sealed world");
        assert!(s.tamper(1, 20));
        assert!(matches!(s.get(1), Err(RegistryError::Channel(_))));
    }

    #[test]
    fn host_never_sees_plaintext() {
        let mut s = SealedStore::new([7u8; 32], 4);
        let needle = b"super secret weight bytes super secret weight bytes";
        put_blob(&mut s, 1, needle);
        let host = s.host_visible_bytes();
        assert!(!host.is_empty());
        assert!(
            !host.windows(needle.len()).any(|w| w == needle),
            "sealed store leaked plaintext"
        );
    }
}
