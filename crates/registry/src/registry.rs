//! The in-enclave registry state machine: `begin` / `push` / `finalize`
//! uploads, torn-upload resume, and model checkout.
//!
//! ```text
//!             begin(manifest)            push(id, i, chunk)×N
//!   idle ───────────────────▶ pending ──────────────────────▶ complete
//!    ▲                          │  ▲                             │
//!    │          disconnect      │  │ begin(same fp+digest)       │ finalize(id, digest[, pop])
//!    │          (torn upload)   ▼  │ → resume_from=verified      ▼
//!    │                        torn ┘                      verify digest,
//!    │                                                    decode, verify
//!    └──────────── evict ◀── stored ◀──────────────────── fingerprint,
//!                                                         re-seal (dedup)
//! ```
//!
//! Invariants the coldstart experiment gates on:
//!
//! * a chunk is appended only after its AEAD opens at the expected index
//!   — corrupt, truncated, dropped and reordered chunks are rejected with
//!   the precise [`RegistryError`] naming the chunk;
//! * `finalize` re-hashes the assembled plaintext, decodes it and
//!   recomputes the graph fingerprint before anything is stored — a
//!   manifest that lies about its fingerprint is rejected, so no variant
//!   ever runs a model whose content address it didn't verify;
//! * a torn upload keeps its verified prefix; a new `begin` with the same
//!   `(fingerprint, digest)` *and the same chunk cipher* resumes from the
//!   last verified chunk — a different upload key replaces the pending
//!   state and restarts from chunk 0, so a stale or hostile `begin` can
//!   never wedge a content address;
//! * pending slots are reclaimable: `abort` drops an upload explicitly,
//!   and when the table is full an upload idle past
//!   [`RegistryConfig::pending_idle_ttl`] is evicted to admit new work;
//! * a dedup admission must prove possession of the content bytes at
//!   `finalize` ([`pop_response`] over a registry-issued challenge)
//!   before its alias is bound.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mvtee_crypto::gcm::AesGcm;
use mvtee_crypto::sha256::{sha256, Sha256};
use mvtee_graph::zoo::Model;
use mvtee_runtime::graph_fingerprint;

use crate::blob::{key_hex, ModelBlob};
use crate::error::{RegistryError, Result};
use crate::framing::{open_chunk, UploadManifest};
use crate::store::{BundleMeta, PutOutcome, SealedStore};

/// Upper bound on the plaintext reserved up-front for one upload. The
/// manifest's `total_len` is tenant-controlled, so the buffer grows with
/// verified chunks instead of trusting the declaration.
const INITIAL_BUF_RESERVATION: u64 = 1 << 20;

/// Capacity knobs for a registry instance.
#[derive(Debug, Clone, Copy)]
pub struct RegistryConfig {
    /// Sealed bundles kept before LRU eviction kicks in.
    pub max_bundles: usize,
    /// Concurrent pending (in-flight or torn) uploads admitted.
    pub max_pending: usize,
    /// Largest plaintext model accepted; `begin` rejects manifests
    /// declaring more with [`RegistryError::TooLarge`].
    pub max_model_bytes: u64,
    /// A pending upload idle at least this long may be evicted to admit
    /// a new one when the pending table is full, so torn uploads whose
    /// tenants never return cannot saturate the registry forever.
    pub pending_idle_ttl: Duration,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            max_bundles: 8,
            max_pending: 4,
            max_model_bytes: 256 << 20,
            pending_idle_ttl: Duration::from_secs(300),
        }
    }
}

/// One in-flight (or torn, awaiting resume) upload.
#[derive(Debug)]
struct UploadState {
    manifest: UploadManifest,
    cipher: AesGcm,
    /// Chunks verified so far; also the next expected index.
    verified: u64,
    /// Plaintext assembled so far (TEE memory only).
    buf: Vec<u8>,
    /// Set when `begin` matched an already-stored bundle: no chunks are
    /// expected and `finalize` dedups against the stored digest.
    dedup: bool,
    /// Proof-of-possession challenge issued with a dedup admission.
    challenge: Option<[u8; 32]>,
    /// Last admission or verified chunk — the idle clock for eviction.
    last_activity: Instant,
}

/// Reply to a successful `begin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Handle for the upload's `push`/`finalize` calls.
    pub upload_id: u64,
    /// First chunk index the registry expects (> 0 when resuming a torn
    /// upload; == chunk count when the content is already stored).
    pub resume_from: u64,
    /// Present on dedup admissions: `finalize` must answer with
    /// [`pop_response`]`(challenge, plaintext)` to prove the tenant
    /// actually holds the content it wants to alias.
    pub challenge: Option<[u8; 32]>,
}

/// Reply to a successful `finalize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registered {
    /// The model's content address.
    pub fingerprint: u64,
    /// Whether the content was already stored (another tenant, or a
    /// re-upload) and no new bundle was sealed.
    pub dedup: bool,
}

/// The multi-model registry.
#[derive(Debug)]
pub struct Registry {
    store: SealedStore,
    pending: BTreeMap<u64, UploadState>,
    /// Routing name → fingerprint, set at finalize.
    aliases: BTreeMap<String, u64>,
    next_upload: u64,
    config: RegistryConfig,
    /// Secret the dedup proof-of-possession challenges are derived from.
    pop_secret: [u8; 32],
}

/// The answer a tenant must give a dedup proof-of-possession challenge:
/// SHA-256 over the challenge followed by the full plaintext blob. Only
/// a tenant that actually holds the content bytes can compute it.
pub fn pop_response(challenge: &[u8; 32], blob: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(challenge);
    h.update(blob);
    h.finalize()
}

impl Registry {
    /// Creates a registry sealing bundles under `kdk`.
    pub fn new(kdk: [u8; 32], config: RegistryConfig) -> Self {
        let mut secret = Vec::with_capacity(64);
        secret.extend_from_slice(b"mvtee.registry.pop");
        secret.extend_from_slice(&kdk);
        Registry {
            store: SealedStore::new(kdk, config.max_bundles),
            pending: BTreeMap::new(),
            aliases: BTreeMap::new(),
            next_upload: 1,
            config,
            pop_secret: sha256(&secret),
        }
    }

    /// Derives the challenge for a dedup admission — unpredictable to
    /// tenants (keyed by the registry's sealed secret), deterministic
    /// for a given registry instance and upload.
    fn pop_challenge(&self, upload_id: u64, manifest: &UploadManifest) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(&self.pop_secret);
        h.update(&upload_id.to_le_bytes());
        h.update(&manifest.fingerprint.to_le_bytes());
        h.update(&manifest.digest);
        h.finalize()
    }

    /// Admits an upload. Three outcomes:
    ///
    /// * fresh content → new upload, `resume_from == 0`;
    /// * same `(fingerprint, digest)` as a torn upload → same upload id;
    ///   `resume_from == chunks already verified` when the new manifest
    ///   carries the same chunk cipher (key, nonce seed, geometry), else
    ///   the pending state is replaced and the upload restarts at 0 — a
    ///   reconnecting tenant with a fresh upload key can always make
    ///   progress, and a third party cannot wedge a content address by
    ///   pre-beginning it with a key it then abandons;
    /// * same `(fingerprint, digest)` as a stored bundle → `resume_from ==
    ///   chunk count` plus a proof-of-possession challenge (client skips
    ///   straight to `finalize`, which dedups only on a correct answer).
    ///
    /// # Errors
    ///
    /// [`RegistryError::BadManifest`] on inconsistent geometry,
    /// [`RegistryError::TooLarge`] past the configured model-size cap,
    /// [`RegistryError::Saturated`] at the pending-upload cap (after
    /// trying to evict an idle torn upload).
    pub fn begin(&mut self, manifest: UploadManifest) -> Result<Admission> {
        manifest.validate()?;
        if manifest.total_len > self.config.max_model_bytes {
            return Err(RegistryError::TooLarge {
                len: manifest.total_len,
                limit: self.config.max_model_bytes,
            });
        }
        // Resume path: a torn upload with identical content identity.
        if let Some((&id, state)) = self
            .pending
            .iter_mut()
            .find(|(_, s)| s.manifest.fingerprint == manifest.fingerprint && s.manifest.digest == manifest.digest && !s.dedup)
        {
            let same_cipher = state.manifest.upload_key == manifest.upload_key
                && state.manifest.nonce_seed == manifest.nonce_seed
                && state.manifest.chunk_len == manifest.chunk_len
                && state.manifest.total_len == manifest.total_len;
            state.last_activity = Instant::now();
            if same_cipher {
                state.manifest = manifest;
                let resume_from = state.verified;
                mvtee_telemetry::counter("registry.upload.resumes").inc();
                return Ok(Admission { upload_id: id, resume_from, challenge: None });
            }
            // New chunk cipher: the verified prefix was sealed under the
            // old key and cannot be extended — restart from chunk 0 with
            // the new manifest instead of wedging the address.
            state.cipher = manifest.cipher();
            state.manifest = manifest;
            state.verified = 0;
            state.buf.clear();
            mvtee_telemetry::counter("registry.upload.restarts").inc();
            return Ok(Admission { upload_id: id, resume_from: 0, challenge: None });
        }
        // Dedup path: content already stored under this address.
        if let Some(meta) = self.store.meta(manifest.fingerprint) {
            if meta.digest == manifest.digest {
                let challenge = self.pop_challenge(self.next_upload, &manifest);
                let resume_from = manifest.chunk_count();
                let id = self.admit(manifest, Some(challenge))?;
                return Ok(Admission { upload_id: id, resume_from, challenge: Some(challenge) });
            }
            return Err(RegistryError::ContentCollision { fingerprint: manifest.fingerprint });
        }
        let id = self.admit(manifest, None)?;
        Ok(Admission { upload_id: id, resume_from: 0, challenge: None })
    }

    /// Evicts the longest-idle pending upload that has been inactive at
    /// least `pending_idle_ttl`, freeing a slot for a new admission.
    fn evict_stale_pending(&mut self) {
        let ttl = self.config.pending_idle_ttl;
        let victim = self
            .pending
            .iter()
            .filter(|(_, s)| s.last_activity.elapsed() >= ttl)
            .min_by_key(|(_, s)| s.last_activity)
            .map(|(&id, _)| id);
        if let Some(id) = victim {
            self.pending.remove(&id);
            mvtee_telemetry::counter("registry.upload.expired").inc();
        }
    }

    fn admit(&mut self, manifest: UploadManifest, challenge: Option<[u8; 32]>) -> Result<u64> {
        if self.pending.len() >= self.config.max_pending {
            self.evict_stale_pending();
        }
        if self.pending.len() >= self.config.max_pending {
            mvtee_telemetry::counter("registry.upload.sheds").inc();
            return Err(RegistryError::Saturated);
        }
        let id = self.next_upload;
        self.next_upload += 1;
        let cipher = manifest.cipher();
        let dedup = challenge.is_some();
        // `total_len` is tenant-controlled: never reserve more than the
        // bounded initial slice; the buffer grows with verified chunks.
        let reserve = if dedup { 0 } else { manifest.total_len.min(INITIAL_BUF_RESERVATION) as usize };
        self.pending.insert(
            id,
            UploadState {
                buf: Vec::with_capacity(reserve),
                manifest,
                cipher,
                verified: 0,
                dedup,
                challenge,
                last_activity: Instant::now(),
            },
        );
        mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
        Ok(id)
    }

    /// Drops a pending upload, freeing its slot and buffered plaintext.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownUpload`] when no such upload is pending.
    pub fn abort(&mut self, upload_id: u64) -> Result<()> {
        self.pending.remove(&upload_id).ok_or(RegistryError::UnknownUpload { upload_id })?;
        mvtee_telemetry::counter("registry.upload.aborts").inc();
        mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
        Ok(())
    }

    /// Verifies and appends one chunk.
    ///
    /// # Errors
    ///
    /// The precise rejection for every fault class — see
    /// [`RegistryError`]. A rejected chunk does not advance the stream:
    /// the tenant may retry the same index with a good frame.
    pub fn push(&mut self, upload_id: u64, index: u64, sealed: &[u8]) -> Result<()> {
        let state = self.pending.get_mut(&upload_id).ok_or(RegistryError::UnknownUpload { upload_id })?;
        let expected = state.verified;
        if state.dedup || expected >= state.manifest.chunk_count() {
            mvtee_telemetry::counter("registry.upload.rejected_chunks").inc();
            return Err(RegistryError::BadChunkIndex { expected: state.manifest.chunk_count(), actual: index });
        }
        if index != expected {
            mvtee_telemetry::counter("registry.upload.rejected_chunks").inc();
            return Err(RegistryError::BadChunkIndex { expected, actual: index });
        }
        let plain = open_chunk(&state.cipher, &state.manifest, index, sealed).inspect_err(|_| {
            mvtee_telemetry::counter("registry.upload.rejected_chunks").inc();
        })?;
        state.buf.extend_from_slice(&plain);
        state.verified += 1;
        state.last_activity = Instant::now();
        mvtee_telemetry::counter("registry.upload.chunks").inc();
        mvtee_telemetry::counter("registry.upload.bytes").add(plain.len() as u64);
        Ok(())
    }

    /// Completes an upload: digest, decode and fingerprint checks, then
    /// re-seal into content-addressed storage. A dedup upload must answer
    /// its admission challenge with `pop` =
    /// [`pop_response`]`(challenge, plaintext)` — presenting a known
    /// `(fingerprint, digest)` alone never grants access to stored
    /// content.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Incomplete`] on a torn/short stream,
    /// [`RegistryError::DigestMismatch`] /
    /// [`RegistryError::FingerprintMismatch`] /
    /// [`RegistryError::DecodeFailed`] on content that fails verification
    /// — in every case nothing is stored and no alias is bound. A dedup
    /// finalize fails [`RegistryError::PossessionProofFailed`] on a wrong
    /// or missing proof, and [`RegistryError::UnknownModel`] when the
    /// bundle was evicted between `begin` and `finalize` (re-`begin` to
    /// upload the content for real) — both end the admission.
    pub fn finalize(&mut self, upload_id: u64, digest: [u8; 32], pop: Option<[u8; 32]>) -> Result<Registered> {
        let state = self.pending.get(&upload_id).ok_or(RegistryError::UnknownUpload { upload_id })?;
        let manifest = &state.manifest;
        let fingerprint = manifest.fingerprint;
        if digest != manifest.digest {
            return Err(RegistryError::DigestMismatch);
        }
        if state.dedup {
            let name = manifest.model_name.clone();
            let challenge = state.challenge.expect("dedup admission carries a challenge");
            // The LRU may have evicted the bundle since `begin`: binding
            // the alias anyway would dangle it. End the admission so the
            // tenant can re-begin as a fresh upload.
            if !self.store.contains(fingerprint) {
                self.pending.remove(&upload_id);
                mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
                return Err(RegistryError::UnknownModel { key: key_hex(fingerprint) });
            }
            let blob = self.store.get(fingerprint)?;
            if pop != Some(pop_response(&challenge, &blob)) {
                self.pending.remove(&upload_id);
                mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
                mvtee_telemetry::counter("registry.upload.pop_failures").inc();
                return Err(RegistryError::PossessionProofFailed);
            }
            self.pending.remove(&upload_id);
            self.aliases.insert(name, fingerprint);
            mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
            mvtee_telemetry::counter("registry.dedup_uploads").inc();
            return Ok(Registered { fingerprint, dedup: true });
        }
        let total = manifest.chunk_count();
        if state.verified < total {
            return Err(RegistryError::Incomplete { verified: state.verified, total });
        }
        if state.buf.len() as u64 != manifest.total_len || sha256(&state.buf) != digest {
            return Err(RegistryError::DigestMismatch);
        }
        let blob = ModelBlob::from_bytes(&state.buf)?;
        let actual = graph_fingerprint(&blob.graph);
        if actual != fingerprint {
            return Err(RegistryError::FingerprintMismatch { declared: fingerprint, actual });
        }
        // All checks passed — take ownership and commit.
        let state = self.pending.remove(&upload_id).expect("state present");
        let meta = BundleMeta {
            digest,
            len: state.manifest.total_len,
            model_name: state.manifest.model_name.clone(),
        };
        let outcome = self.store.put(fingerprint, meta, &state.buf)?;
        self.aliases.insert(state.manifest.model_name, fingerprint);
        mvtee_telemetry::gauge("registry.upload.pending").set(self.pending.len() as i64);
        Ok(Registered { fingerprint, dedup: outcome == PutOutcome::Deduplicated })
    }

    /// Unseals and reconstructs a model by fingerprint, re-verifying the
    /// digest and the fingerprint of what was unsealed.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] for absent/evicted bundles; the
    /// verification errors of [`SealedStore::get`]; and
    /// [`RegistryError::FingerprintMismatch`] if the unsealed graph does
    /// not fingerprint to its own content address.
    pub fn checkout(&mut self, fingerprint: u64) -> Result<Model> {
        let blob = self.store.get(fingerprint)?;
        let model = ModelBlob::from_bytes(&blob)?.into_model();
        let actual = graph_fingerprint(&model.graph);
        if actual != fingerprint {
            return Err(RegistryError::FingerprintMismatch { declared: fingerprint, actual });
        }
        mvtee_telemetry::counter("registry.checkouts").inc();
        Ok(model)
    }

    /// Resolves a tenant routing name to its fingerprint.
    ///
    /// # Errors
    ///
    /// [`RegistryError::UnknownModel`] when the name was never registered.
    pub fn resolve(&self, name: &str) -> Result<u64> {
        self.aliases.get(name).copied().ok_or_else(|| RegistryError::UnknownModel { key: name.into() })
    }

    /// Checkout by routing name.
    ///
    /// # Errors
    ///
    /// As [`Registry::resolve`] and [`Registry::checkout`].
    pub fn checkout_named(&mut self, name: &str) -> Result<Model> {
        let fp = self.resolve(name)?;
        self.checkout(fp)
    }

    /// Whether a bundle is currently stored for this fingerprint.
    pub fn contains(&self, fingerprint: u64) -> bool {
        self.store.contains(fingerprint)
    }

    /// Registered routing names.
    pub fn names(&self) -> Vec<&str> {
        self.aliases.keys().map(String::as_str).collect()
    }

    /// Number of stored bundles.
    pub fn stored(&self) -> usize {
        self.store.len()
    }

    /// Pending (in-flight or torn) upload count.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Whether the registry cannot admit another upload right now.
    pub fn saturated(&self) -> bool {
        self.pending.len() >= self.config.max_pending
    }

    /// Fingerprints evicted by the LRU since the last call — callers drop
    /// the matching in-memory engines
    /// ([`EngineCache::evict`](mvtee_runtime::EngineCache::evict)).
    pub fn drain_evictions(&mut self) -> Vec<u64> {
        self.store.drain_evictions()
    }

    /// Everything the host can see of the registry (sealed blobs only).
    pub fn host_visible_bytes(&self) -> Vec<u8> {
        self.store.host_visible_bytes()
    }

    /// Host-level tamper hook for tests.
    pub fn tamper(&mut self, fingerprint: u64, byte: usize) -> bool {
        self.store.tamper(fingerprint, byte)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::encode_model;
    use crate::framing::{seal_all, seal_chunk};
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};

    fn model() -> Model {
        zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap()
    }

    fn manifest_for(model: &Model, chunk_len: u32) -> (UploadManifest, Vec<u8>) {
        let (bytes, fp, digest) = encode_model(model).unwrap();
        let manifest = UploadManifest {
            model_name: "tenant-a/mnasnet".into(),
            fingerprint: fp,
            digest,
            total_len: bytes.len() as u64,
            chunk_len,
            upload_key: [3u8; 32],
            nonce_seed: 77,
        };
        (manifest, bytes)
    }

    fn upload_all(reg: &mut Registry, manifest: &UploadManifest, blob: &[u8]) -> Registered {
        let adm = reg.begin(manifest.clone()).unwrap();
        for (i, chunk) in seal_all(manifest, blob).into_iter().enumerate().skip(adm.resume_from as usize) {
            reg.push(adm.upload_id, i as u64, &chunk).unwrap();
        }
        let pop = adm.challenge.map(|c| pop_response(&c, blob));
        reg.finalize(adm.upload_id, manifest.digest, pop).unwrap()
    }

    /// SHA-256 of the concatenated `parts`: how `pop_response` and
    /// `pop_challenge` used to hash.
    fn concatenated_digest(parts: &[&[u8]]) -> [u8; 32] {
        sha256(&parts.concat())
    }

    #[test]
    fn pop_response_equals_the_concatenating_form() {
        let challenge: [u8; 32] = std::array::from_fn(|i| (i * 13 + 5) as u8);
        let blob: Vec<u8> = (0..16_384u32).map(|i| (i * 31 + 7) as u8).collect();
        for n in [0, 1, 15, 16, 17, 16_384] {
            let expected = concatenated_digest(&[&challenge, &blob[..n]]);
            assert_eq!(pop_response(&challenge, &blob[..n]), expected, "{n} bytes");
        }
    }

    #[test]
    fn pop_challenge_equals_the_concatenating_form() {
        let reg = Registry::new([9u8; 32], RegistryConfig::default());
        let (mut manifest, _) = manifest_for(&model(), 4096);
        for (upload_id, fingerprint) in [(0, 0), (1, manifest.fingerprint), (u64::MAX, u64::MAX)] {
            manifest.fingerprint = fingerprint;
            let expected = concatenated_digest(&[
                &reg.pop_secret,
                &upload_id.to_le_bytes(),
                &fingerprint.to_le_bytes(),
                &manifest.digest,
            ]);
            assert_eq!(reg.pop_challenge(upload_id, &manifest), expected, "upload {upload_id}");
        }
    }

    #[test]
    fn full_upload_checkout_round_trip() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 4096);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let r = upload_all(&mut reg, &manifest, &blob);
        assert!(!r.dedup);
        let back = reg.checkout_named("tenant-a/mnasnet").unwrap();
        assert_eq!(back.kind, m.kind);
        assert_eq!(crate::blob::key_for(&back), r.fingerprint);
    }

    #[test]
    fn second_tenant_dedups_without_pushing_a_byte() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 4096);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        upload_all(&mut reg, &manifest, &blob);
        let mut second = manifest.clone();
        second.model_name = "tenant-b/same-model".into();
        second.upload_key = [9u8; 32];
        let adm = reg.begin(second.clone()).unwrap();
        assert_eq!(adm.resume_from, second.chunk_count(), "dedup admission skips all chunks");
        let challenge = adm.challenge.expect("dedup admission issues a challenge");
        let r = reg
            .finalize(adm.upload_id, second.digest, Some(pop_response(&challenge, &blob)))
            .unwrap();
        assert!(r.dedup);
        assert_eq!(reg.stored(), 1);
        assert!(reg.checkout_named("tenant-b/same-model").is_ok());
    }

    #[test]
    fn dedup_without_possession_proof_is_rejected() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 4096);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        upload_all(&mut reg, &manifest, &blob);
        // A tenant that learned the (fingerprint, digest) pair but never
        // held the bytes: wrong/missing proof must not bind an alias.
        let mut freeloader = manifest.clone();
        freeloader.model_name = "tenant-x/stolen".into();
        let adm = reg.begin(freeloader.clone()).unwrap();
        let err = reg.finalize(adm.upload_id, freeloader.digest, None).unwrap_err();
        assert_eq!(err, RegistryError::PossessionProofFailed);
        assert!(reg.resolve("tenant-x/stolen").is_err(), "no alias without possession");
        assert_eq!(reg.pending(), 0, "failed proof ends the admission");
        let adm = reg.begin(freeloader.clone()).unwrap();
        let wrong = [0xeeu8; 32];
        let err = reg.finalize(adm.upload_id, freeloader.digest, Some(wrong)).unwrap_err();
        assert_eq!(err, RegistryError::PossessionProofFailed);
    }

    #[test]
    fn dedup_finalize_after_eviction_is_not_a_dangling_alias() {
        let m1 = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let m2 = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let mut reg = Registry::new([1u8; 32], RegistryConfig { max_bundles: 1, ..RegistryConfig::default() });
        let (manifest, blob) = manifest_for(&m1, 4096);
        upload_all(&mut reg, &manifest, &blob);
        // Dedup-admit m1, then let m2's upload evict its bundle before
        // the dedup finalize lands.
        let mut dup = manifest.clone();
        dup.model_name = "tenant-b/dup".into();
        let adm = reg.begin(dup.clone()).unwrap();
        let challenge = adm.challenge.unwrap();
        let (bytes2, fp2, digest2) = encode_model(&m2).unwrap();
        let man2 = UploadManifest {
            model_name: "tenant-c/other".into(),
            fingerprint: fp2,
            digest: digest2,
            total_len: bytes2.len() as u64,
            chunk_len: 8192,
            upload_key: [5u8; 32],
            nonce_seed: 9,
        };
        upload_all(&mut reg, &man2, &bytes2);
        assert!(!reg.contains(manifest.fingerprint), "m1 must have been evicted");
        let err = reg
            .finalize(adm.upload_id, dup.digest, Some(pop_response(&challenge, &blob)))
            .unwrap_err();
        assert!(matches!(err, RegistryError::UnknownModel { .. }), "got {err:?}");
        assert!(reg.resolve("tenant-b/dup").is_err(), "no alias to an evicted bundle");
    }

    #[test]
    fn oversize_manifest_is_rejected_before_any_allocation() {
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let manifest = UploadManifest {
            model_name: "giant".into(),
            fingerprint: 1,
            digest: [0u8; 32],
            total_len: u64::MAX - 7,
            chunk_len: 1 << 20,
            upload_key: [1u8; 32],
            nonce_seed: 1,
        };
        let err = reg.begin(manifest).unwrap_err();
        assert!(
            matches!(err, RegistryError::TooLarge { len, .. } if len == u64::MAX - 7),
            "got {err:?}"
        );
        assert_eq!(reg.pending(), 0);
    }

    #[test]
    fn resume_with_a_fresh_upload_key_restarts_instead_of_wedging() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 1024);
        let chunks = seal_all(&manifest, &blob);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        // A stale (or hostile) begin claims the content address with a
        // key whose chunks will never arrive.
        let mut stale = manifest.clone();
        stale.upload_key = [0xbd; 32];
        let first = reg.begin(stale).unwrap();
        // The honest tenant begins with its own fresh key: same address,
        // different cipher — must restart from 0 under the new manifest,
        // not resume a prefix sealed under the abandoned key.
        let adm = reg.begin(manifest.clone()).unwrap();
        assert_eq!(adm.upload_id, first.upload_id, "the pending slot is reused");
        assert_eq!(adm.resume_from, 0, "a new cipher cannot extend the old prefix");
        for (i, c) in chunks.iter().enumerate() {
            reg.push(adm.upload_id, i as u64, c).unwrap();
        }
        reg.finalize(adm.upload_id, manifest.digest, None).unwrap();
        assert!(reg.checkout_named("tenant-a/mnasnet").is_ok());
    }

    #[test]
    fn abort_frees_the_pending_slot() {
        let m = model();
        let (manifest, _blob) = manifest_for(&m, 1024);
        let mut reg = Registry::new([1u8; 32], RegistryConfig { max_pending: 1, ..RegistryConfig::default() });
        let adm = reg.begin(manifest.clone()).unwrap();
        assert!(reg.saturated());
        reg.abort(adm.upload_id).unwrap();
        assert_eq!(reg.pending(), 0);
        assert!(!reg.saturated());
        assert_eq!(
            reg.abort(adm.upload_id).unwrap_err(),
            RegistryError::UnknownUpload { upload_id: adm.upload_id }
        );
        // The slot is usable again.
        reg.begin(manifest).unwrap();
    }

    #[test]
    fn idle_torn_uploads_are_evicted_when_the_table_is_full() {
        let m = model();
        let (manifest, _blob) = manifest_for(&m, 1024);
        let mut reg = Registry::new(
            [1u8; 32],
            RegistryConfig {
                max_pending: 1,
                pending_idle_ttl: Duration::ZERO,
                ..RegistryConfig::default()
            },
        );
        reg.begin(manifest.clone()).unwrap();
        assert!(reg.saturated());
        // A different upload arrives at the full table: the idle torn
        // upload is evicted instead of shedding forever.
        let mut other = manifest.clone();
        other.fingerprint ^= 1;
        other.digest[0] ^= 1;
        reg.begin(other).unwrap();
        assert_eq!(reg.pending(), 1, "the stale upload made room");
    }

    #[test]
    fn torn_upload_resumes_from_last_verified_chunk() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 1024);
        let chunks = seal_all(&manifest, &blob);
        assert!(chunks.len() >= 3, "test model must span several chunks");
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let adm = reg.begin(manifest.clone()).unwrap();
        let torn_after = chunks.len() as u64 / 2;
        for i in 0..torn_after {
            reg.push(adm.upload_id, i, &chunks[i as usize]).unwrap();
        }
        // Tenant disconnects; later reconnects with the same manifest.
        let resumed = reg.begin(manifest.clone()).unwrap();
        assert_eq!(resumed.upload_id, adm.upload_id);
        assert_eq!(resumed.resume_from, torn_after, "resume starts at the last verified chunk");
        for i in torn_after..chunks.len() as u64 {
            reg.push(resumed.upload_id, i, &chunks[i as usize]).unwrap();
        }
        reg.finalize(resumed.upload_id, manifest.digest, None).unwrap();
        assert!(reg.checkout_named("tenant-a/mnasnet").is_ok());
    }

    #[test]
    fn early_finalize_is_a_precise_torn_error() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 1024);
        let chunks = seal_all(&manifest, &blob);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let adm = reg.begin(manifest.clone()).unwrap();
        reg.push(adm.upload_id, 0, &chunks[0]).unwrap();
        let err = reg.finalize(adm.upload_id, manifest.digest, None).unwrap_err();
        assert_eq!(err, RegistryError::Incomplete { verified: 1, total: chunks.len() as u64 });
    }

    #[test]
    fn fingerprint_lie_is_rejected_at_finalize() {
        let m = model();
        let (mut manifest, blob) = manifest_for(&m, 4096);
        let honest_fp = manifest.fingerprint;
        manifest.fingerprint ^= 0xdead_beef; // claim someone else's address
        let chunks = seal_all(&manifest, &blob);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let adm = reg.begin(manifest.clone()).unwrap();
        for (i, c) in chunks.iter().enumerate() {
            reg.push(adm.upload_id, i as u64, c).unwrap();
        }
        let err = reg.finalize(adm.upload_id, manifest.digest, None).unwrap_err();
        assert_eq!(
            err,
            RegistryError::FingerprintMismatch { declared: manifest.fingerprint, actual: honest_fp }
        );
        assert_eq!(reg.stored(), 0, "nothing may be stored after a rejected finalize");
        assert!(reg.names().is_empty());
    }

    #[test]
    fn dropped_and_reordered_chunks_are_precise_index_errors() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 1024);
        let chunks = seal_all(&manifest, &blob);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let adm = reg.begin(manifest.clone()).unwrap();
        reg.push(adm.upload_id, 0, &chunks[0]).unwrap();
        // Drop chunk 1: chunk 2 shows up next.
        assert_eq!(
            reg.push(adm.upload_id, 2, &chunks[2]).unwrap_err(),
            RegistryError::BadChunkIndex { expected: 1, actual: 2 }
        );
        // The stream did not advance: the right chunk still lands.
        reg.push(adm.upload_id, 1, &chunks[1]).unwrap();
    }

    #[test]
    fn saturation_sheds_new_uploads() {
        let m = model();
        let (manifest, _blob) = manifest_for(&m, 1024);
        let mut reg = Registry::new([1u8; 32], RegistryConfig { max_bundles: 8, max_pending: 1, ..RegistryConfig::default() });
        reg.begin(manifest.clone()).unwrap();
        let mut other = manifest.clone();
        other.fingerprint ^= 1;
        other.digest[0] ^= 1;
        assert!(reg.saturated());
        assert_eq!(reg.begin(other).unwrap_err(), RegistryError::Saturated);
    }

    #[test]
    fn eviction_reports_fingerprints_for_engine_drop() {
        let mut reg = Registry::new([1u8; 32], RegistryConfig { max_bundles: 1, max_pending: 4, ..RegistryConfig::default() });
        let m1 = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let m2 = zoo::build(ModelKind::ResNet50, ScaleProfile::Test, 4).unwrap();
        let (man1, blob1) = {
            let (bytes, fp, digest) = encode_model(&m1).unwrap();
            (
                UploadManifest {
                    model_name: "m1".into(),
                    fingerprint: fp,
                    digest,
                    total_len: bytes.len() as u64,
                    chunk_len: 8192,
                    upload_key: [3u8; 32],
                    nonce_seed: 1,
                },
                bytes,
            )
        };
        let (man2, blob2) = {
            let (bytes, fp, digest) = encode_model(&m2).unwrap();
            (
                UploadManifest {
                    model_name: "m2".into(),
                    fingerprint: fp,
                    digest,
                    total_len: bytes.len() as u64,
                    chunk_len: 8192,
                    upload_key: [4u8; 32],
                    nonce_seed: 2,
                },
                bytes,
            )
        };
        upload_all(&mut reg, &man1, &blob1);
        upload_all(&mut reg, &man2, &blob2);
        assert_eq!(reg.drain_evictions(), vec![man1.fingerprint]);
        assert!(!reg.contains(man1.fingerprint));
        assert!(reg.contains(man2.fingerprint));
    }

    #[test]
    fn corrupt_chunk_never_advances_the_stream() {
        let m = model();
        let (manifest, blob) = manifest_for(&m, 1024);
        let chunks = seal_all(&manifest, &blob);
        let mut reg = Registry::new([1u8; 32], RegistryConfig::default());
        let adm = reg.begin(manifest.clone()).unwrap();
        let mut bad = chunks[0].clone();
        bad[0] ^= 0x01;
        assert_eq!(
            reg.push(adm.upload_id, 0, &bad).unwrap_err(),
            RegistryError::ChunkAuthFailed { index: 0 }
        );
        // Retry with the honest frame succeeds at the same index.
        reg.push(adm.upload_id, 0, &chunks[0]).unwrap();
        let cipher = manifest.cipher();
        let _ = seal_chunk(&cipher, &manifest, 1, b"x"); // exercise single-chunk sealing path
    }
}
