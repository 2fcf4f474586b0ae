//! The Gramine-like TEE OS: manifest enforcement, the two-stage bootstrap
//! state machine, and the key-protected filesystem.
//!
//! MVTEE's §5.2 extensions to Gramine are all modelled:
//!
//! * **Two-stage manifests** — a second-stage manifest can be installed
//!   exactly once, only from the init stage, only when the active manifest
//!   opted in (`two_stage`); the install interface is disabled afterwards
//!   and in the main stage.
//! * **One-way `exec()` transition** — the first `exec()` switches to the
//!   second-stage manifest and resets state "as thoroughly as possible"
//!   (the simulation clears the syscall record, host environment view and
//!   pending host args).
//! * **Key management** — the variant-specific key installed by the
//!   init-variant acts as a *key-derivation key*; per-file one-time keys
//!   are derived via HKDF (the paper's ciphertext-volume argument for key
//!   rotation). Key installation is prohibited in the main stage.
//! * **Protected FS** — encrypted files are sealed with AES-GCM-256 and
//!   fail closed on any tampering; trusted files verify against manifest
//!   reference hashes.

use crate::manifest::{Manifest, Syscall};
use crate::{Result, TeeError};
use mvtee_crypto::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use mvtee_crypto::sha256::hkdf;
use mvtee_crypto::{random_array, random_bytes};
use std::collections::{HashMap, VecDeque};
use std::fmt;

/// Bootstrap stage of a variant TEE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Running the public init-variant.
    Init,
    /// Running the decrypted main variant (post-`exec`).
    Main,
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Init => write!(f, "init"),
            Stage::Main => write!(f, "main"),
        }
    }
}

/// The encrypted filesystem: sealed blobs on (untrusted) host storage,
/// per-file one-time keys derived from the key-derivation key.
///
/// Rollback mitigation (§6.5): every write bumps a per-file freshness
/// version that is bound into the AEAD associated data. While the instance
/// lives, re-importing an older sealed blob (a rollback/replay attack)
/// fails authentication on the next read. A complete defense across
/// restarts would need monotonic counters, which the paper also notes.
#[derive(Debug, Default)]
pub struct ProtectedFs {
    /// path → (salt, sealed bytes). The host sees only this.
    sealed: HashMap<String, ([u8; 16], Vec<u8>)>,
    /// path → freshness version (runtime metadata, inside the TEE).
    versions: HashMap<String, u64>,
}

impl ProtectedFs {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn file_key(kdk: &[u8; 32], path: &str, salt: &[u8; 16]) -> [u8; 32] {
        let mut info = Vec::with_capacity(path.len() + 24);
        info.extend_from_slice(b"mvtee-file-key:");
        info.extend_from_slice(path.as_bytes());
        let okm = hkdf(salt, kdk, &info, 32);
        let mut key = [0u8; 32];
        key.copy_from_slice(&okm);
        key
    }

    fn aad(path: &str, version: u64) -> Vec<u8> {
        let mut aad = Vec::with_capacity(path.len() + 8);
        aad.extend_from_slice(path.as_bytes());
        aad.extend_from_slice(&version.to_le_bytes());
        aad
    }

    /// Seals `plaintext` under a fresh one-time key derived from `kdk`,
    /// bumping the file's freshness version.
    ///
    /// Blob layout: `version:u64le ‖ nonce ‖ ciphertext ‖ tag`. The version
    /// also rides in cleartext so [`ProtectedFs::import`] can adopt it, but
    /// authenticity comes from its copy inside the AEAD associated data —
    /// editing the cleartext version fails authentication.
    pub fn write(&mut self, kdk: &[u8; 32], path: &str, plaintext: &[u8]) {
        let version = self.versions.get(path).copied().unwrap_or(0) + 1;
        let salt: [u8; 16] = random_array();
        let key = Self::file_key(kdk, path, &salt);
        let mut nonce = [0u8; NONCE_LEN];
        random_bytes(&mut nonce);
        let cipher = AesGcm::new_256(&key);
        let mut blob = Vec::with_capacity(8 + NONCE_LEN + plaintext.len() + TAG_LEN);
        blob.extend_from_slice(&version.to_le_bytes());
        blob.extend_from_slice(&nonce);
        cipher.seal_into(&nonce, plaintext, &Self::aad(path, version), &mut blob);
        self.sealed.insert(path.to_string(), (salt, blob));
        self.versions.insert(path.to_string(), version);
    }

    /// Opens and verifies a sealed file.
    ///
    /// # Errors
    ///
    /// * [`TeeError::FileNotFound`] when absent,
    /// * [`TeeError::Crypto`] when the blob was tampered with or the key is
    ///   wrong.
    pub fn read(&self, kdk: &[u8; 32], path: &str) -> Result<Vec<u8>> {
        let (salt, blob) =
            self.sealed.get(path).ok_or_else(|| TeeError::FileNotFound { path: path.into() })?;
        if blob.len() < 8 + NONCE_LEN {
            return Err(TeeError::Crypto(mvtee_crypto::CryptoError::MalformedFrame));
        }
        let key = Self::file_key(kdk, path, salt);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(&blob[8..8 + NONCE_LEN]);
        let cipher = AesGcm::new_256(&key);
        // Freshness: authenticate against the *runtime* version, not the
        // blob's cleartext claim — a reverted blob carries an old version
        // in its AAD and fails.
        let version = self.versions.get(path).copied().unwrap_or(1);
        Ok(cipher.open(&nonce, &blob[8 + NONCE_LEN..], &Self::aad(path, version))?)
    }

    /// Imports an externally sealed blob (the deployment path: the offline
    /// tool seals variant bundles, the orchestrator places them on host
    /// storage). `blob` must have been produced by [`ProtectedFs::export`]
    /// or [`ProtectedFs::write`]'s on-disk format.
    ///
    /// The runtime freshness floor never decreases: the adopted version is
    /// `max(current, blob's claimed version)`, so importing a blob older
    /// than the newest state this instance has seen leaves it unreadable
    /// (rollback protection), while first placements of any version work.
    pub fn import(&mut self, path: &str, salt: [u8; 16], blob: Vec<u8>) {
        let claimed = blob
            .get(..8)
            .and_then(|b| b.try_into().ok())
            .map(u64::from_le_bytes)
            .unwrap_or(1);
        let entry = self.versions.entry(path.to_string()).or_insert(claimed);
        *entry = (*entry).max(claimed);
        self.sealed.insert(path.to_string(), (salt, blob));
    }

    /// Exports the sealed representation of a file (what the untrusted
    /// host would see / ship around).
    pub fn export(&self, path: &str) -> Option<([u8; 16], Vec<u8>)> {
        self.sealed.get(path).cloned()
    }

    /// Host-level tampering hook for tests: flips a byte of the sealed
    /// blob.
    pub fn tamper(&mut self, path: &str, byte: usize) -> bool {
        if let Some((_, blob)) = self.sealed.get_mut(path) {
            if let Some(b) = blob.get_mut(byte) {
                *b ^= 0xff;
                return true;
            }
        }
        false
    }

    /// Removes a sealed file, returning whether it existed. The freshness
    /// version is kept, so a host re-importing the removed blob later (an
    /// eviction-replay attack) still fails the rollback check once the
    /// path has been re-written.
    pub fn remove(&mut self, path: &str) -> bool {
        self.sealed.remove(path).is_some()
    }

    /// Lists sealed paths.
    pub fn paths(&self) -> Vec<&str> {
        self.sealed.keys().map(String::as_str).collect()
    }

    /// Current freshness version of a file (0 = never written).
    pub fn version(&self, path: &str) -> u64 {
        self.versions.get(path).copied().unwrap_or(0)
    }
}

/// How many of the most recent allowed syscalls a [`TeeOs`] keeps.
pub const RECENT_SYSCALLS: usize = 64;

/// What the TEE OS remembers of the syscalls it allowed: a count per
/// syscall and the [`RECENT_SYSCALLS`] latest in order. A variant issues
/// two per batch for as long as it serves, so nothing here grows with
/// uptime.
#[derive(Debug, Default)]
struct SyscallRecord {
    counts: [u64; Syscall::ALL.len()],
    recent: VecDeque<Syscall>,
}

impl SyscallRecord {
    fn push(&mut self, call: Syscall) {
        self.counts[call as usize] += 1;
        if self.recent.len() == RECENT_SYSCALLS {
            self.recent.pop_front();
        }
        self.recent.push_back(call);
    }
}

/// The TEE OS instance backing one enclave.
#[derive(Debug)]
pub struct TeeOs {
    stage: Stage,
    active: Manifest,
    second_stage: Option<Manifest>,
    install_locked: bool,
    kdk: Option<[u8; 32]>,
    fs: ProtectedFs,
    /// Untrusted host files (plaintext, integrity unprotected).
    host_files: HashMap<String, Vec<u8>>,
    syscalls: SyscallRecord,
}

impl TeeOs {
    /// Boots a TEE OS with a first-stage manifest.
    pub fn new(manifest: Manifest) -> Self {
        TeeOs {
            stage: Stage::Init,
            active: manifest,
            second_stage: None,
            install_locked: false,
            kdk: None,
            fs: ProtectedFs::new(),
            host_files: HashMap::new(),
            syscalls: SyscallRecord::default(),
        }
    }

    /// Current bootstrap stage.
    pub fn stage(&self) -> Stage {
        self.stage
    }

    /// The currently enforced manifest.
    pub fn active_manifest(&self) -> &Manifest {
        &self.active
    }

    /// Hash of the enforced manifest (for attestation evidence).
    pub fn manifest_hash(&self) -> [u8; 32] {
        self.active.hash()
    }

    /// Hash of the installed-but-not-yet-active second-stage manifest, if
    /// any (sent to the monitor as installation evidence, step ⑥ of
    /// Fig 6).
    pub fn second_stage_hash(&self) -> Option<[u8; 32]> {
        self.second_stage.as_ref().map(Manifest::hash)
    }

    /// Issues a syscall through the manifest policy.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::SyscallDenied`] when the active manifest does
    /// not allow it.
    pub fn syscall(&mut self, call: Syscall) -> Result<()> {
        if !self.active.allows(call) {
            return Err(TeeError::SyscallDenied {
                syscall: call.to_string(),
                stage: self.stage.to_string(),
            });
        }
        self.syscalls.push(call);
        Ok(())
    }

    /// How many times `call` was allowed since boot / the last stage
    /// transition.
    pub fn syscall_count(&self, call: Syscall) -> u64 {
        self.syscalls.counts[call as usize]
    }

    /// The last (up to [`RECENT_SYSCALLS`]) allowed syscalls since boot /
    /// the last stage transition, oldest first.
    pub fn recent_syscalls(&self) -> impl Iterator<Item = Syscall> + '_ {
        self.syscalls.recent.iter().copied()
    }

    /// Provisions a plaintext file on the untrusted host side.
    pub fn provision_host_file(&mut self, path: impl Into<String>, content: Vec<u8>) {
        self.host_files.insert(path.into(), content);
    }

    /// Opens a trusted file, verifying its hash against the manifest.
    ///
    /// # Errors
    ///
    /// * [`TeeError::SyscallDenied`] when `open` is not allowed,
    /// * [`TeeError::FileAccessDenied`] for unlisted or modified files,
    /// * [`TeeError::FileNotFound`] when missing on the host.
    pub fn open_trusted(&mut self, path: &str) -> Result<Vec<u8>> {
        self.syscall(Syscall::Open)?;
        let expected = *self.active.trusted_files.get(path).ok_or_else(|| {
            TeeError::FileAccessDenied { path: path.into(), reason: "not a trusted file".into() }
        })?;
        let content = self
            .host_files
            .get(path)
            .ok_or_else(|| TeeError::FileNotFound { path: path.into() })?;
        let actual = mvtee_crypto::sha256::sha256(content);
        if actual != expected {
            return Err(TeeError::FileAccessDenied {
                path: path.into(),
                reason: "hash mismatch".into(),
            });
        }
        Ok(content.clone())
    }

    /// Installs the variant-specific key-derivation key.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::KeyInstallDenied`] outside the init stage — the
    /// paper "prohibits any key manipulation in the second stage".
    pub fn install_key(&mut self, kdk: [u8; 32]) -> Result<()> {
        if self.stage != Stage::Init {
            return Err(TeeError::KeyInstallDenied(
                "key manipulation is prohibited in the main-variant stage".into(),
            ));
        }
        self.kdk = Some(kdk);
        Ok(())
    }

    /// Whether a key-derivation key has been installed.
    pub fn has_key(&self) -> bool {
        self.kdk.is_some()
    }

    /// Writes a file through the encrypted filesystem.
    ///
    /// # Errors
    ///
    /// Fails when `write` is denied, the path is not in the manifest's
    /// encrypted set, or no key is installed.
    pub fn write_encrypted(&mut self, path: &str, plaintext: &[u8]) -> Result<()> {
        self.syscall(Syscall::Write)?;
        if !self.active.encrypted_files.contains(path) {
            return Err(TeeError::FileAccessDenied {
                path: path.into(),
                reason: "not in the encrypted-files set".into(),
            });
        }
        let kdk = self.kdk.ok_or_else(|| {
            TeeError::FileAccessDenied { path: path.into(), reason: "no key installed".into() }
        })?;
        self.fs.write(&kdk, path, plaintext);
        Ok(())
    }

    /// Reads and verifies a file from the encrypted filesystem.
    ///
    /// # Errors
    ///
    /// Fails like [`TeeOs::write_encrypted`], plus on tampering.
    pub fn read_encrypted(&mut self, path: &str) -> Result<Vec<u8>> {
        self.syscall(Syscall::Read)?;
        if !self.active.encrypted_files.contains(path) {
            return Err(TeeError::FileAccessDenied {
                path: path.into(),
                reason: "not in the encrypted-files set".into(),
            });
        }
        let kdk = self.kdk.ok_or_else(|| {
            TeeError::FileAccessDenied { path: path.into(), reason: "no key installed".into() }
        })?;
        self.fs.read(&kdk, path)
    }

    /// Direct access to the protected filesystem (deployment and test
    /// tooling; the untrusted host can see/tamper sealed blobs anyway).
    pub fn fs_mut(&mut self) -> &mut ProtectedFs {
        &mut self.fs
    }

    /// Installs the one-time second-stage manifest via the pseudo-fs
    /// interface.
    ///
    /// # Errors
    ///
    /// Returns [`TeeError::ManifestInstallDenied`] when: the active
    /// manifest did not opt into two-stage mode, the install interface is
    /// locked (already installed), or the enclave is already in the main
    /// stage.
    pub fn install_second_stage(&mut self, manifest: Manifest) -> Result<()> {
        if self.stage != Stage::Init {
            return Err(TeeError::ManifestInstallDenied(
                "interface disabled during variant execution stage".into(),
            ));
        }
        if !self.active.two_stage {
            return Err(TeeError::ManifestInstallDenied(
                "active manifest does not enable two-stage mode".into(),
            ));
        }
        if self.install_locked {
            return Err(TeeError::ManifestInstallDenied(
                "second-stage manifest already installed and locked".into(),
            ));
        }
        self.second_stage = Some(manifest);
        self.install_locked = true;
        Ok(())
    }

    /// The one-way stage transition, triggered by the first `exec()`.
    ///
    /// Switches enforcement to the second-stage manifest and resets state:
    /// clears the syscall log and the host file view (simulating the
    /// paper's memory zeroing / fd closing / TLS clearing list).
    ///
    /// # Errors
    ///
    /// * [`TeeError::SyscallDenied`] when the active manifest forbids
    ///   `exec`,
    /// * [`TeeError::ManifestInstallDenied`] when no second-stage manifest
    ///   was installed first.
    pub fn exec(&mut self) -> Result<()> {
        // One-way at the state-machine level, independent of whether a
        // (malicious) second-stage manifest happens to allow `exec`.
        if self.stage == Stage::Main {
            return Err(TeeError::ManifestInstallDenied(
                "stage transition is one-way; already in the main stage".into(),
            ));
        }
        self.syscall(Syscall::Exec)?;
        let next = self.second_stage.clone().ok_or_else(|| {
            TeeError::ManifestInstallDenied("no second-stage manifest installed".into())
        })?;
        self.active = next;
        self.stage = Stage::Main;
        // State reset "as thoroughly as possible".
        self.syscalls = SyscallRecord::default();
        self.host_files.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_stage_os() -> TeeOs {
        let mut init = Manifest::init_variant("init");
        init.encrypt_file("/enc/bundle");
        TeeOs::new(init)
    }

    #[test]
    fn syscall_policy_enforced() {
        let mut os = TeeOs::new(Manifest::main_variant("m"));
        os.syscall(Syscall::Read).unwrap();
        assert!(matches!(os.syscall(Syscall::Ioctl), Err(TeeError::SyscallDenied { .. })));
        assert_eq!(os.recent_syscalls().collect::<Vec<_>>(), [Syscall::Read]);
        assert_eq!(os.syscall_count(Syscall::Read), 1);
        assert_eq!(os.syscall_count(Syscall::Ioctl), 0);
    }

    #[test]
    fn syscall_record_stays_bounded() {
        let mut os = TeeOs::new(Manifest::main_variant("m"));
        for i in 0..100_000 {
            let call = if i % 2 == 0 { Syscall::Read } else { Syscall::Write };
            os.syscall(call).unwrap();
        }
        assert_eq!(os.syscall_count(Syscall::Read), 50_000);
        assert_eq!(os.syscall_count(Syscall::Write), 50_000);
        assert_eq!(os.syscall_count(Syscall::Open), 0);
        let recent: Vec<_> = os.recent_syscalls().collect();
        assert_eq!(recent.len(), RECENT_SYSCALLS);
        assert_eq!(recent.first(), Some(&Syscall::Read));
        assert_eq!(recent.last(), Some(&Syscall::Write));
        assert!(os.syscalls.recent.capacity() < 2 * RECENT_SYSCALLS);
    }

    #[test]
    fn trusted_file_verification() {
        let mut m = Manifest::init_variant("init");
        m.trust_file("/bin/init", b"init-code");
        let mut os = TeeOs::new(m);
        os.provision_host_file("/bin/init", b"init-code".to_vec());
        assert_eq!(os.open_trusted("/bin/init").unwrap(), b"init-code");
        // Host swaps the file: detected.
        os.provision_host_file("/bin/init", b"evil-code".to_vec());
        assert!(matches!(
            os.open_trusted("/bin/init"),
            Err(TeeError::FileAccessDenied { .. })
        ));
        // Unlisted file: denied.
        os.provision_host_file("/bin/other", b"x".to_vec());
        assert!(os.open_trusted("/bin/other").is_err());
    }

    #[test]
    fn encrypted_fs_round_trip_and_tamper() {
        let mut os = two_stage_os();
        os.install_key([9u8; 32]).unwrap();
        os.write_encrypted("/enc/bundle", b"variant bytes").unwrap();
        assert_eq!(os.read_encrypted("/enc/bundle").unwrap(), b"variant bytes");
        // Tamper at the host level.
        assert!(os.fs_mut().tamper("/enc/bundle", 20));
        assert!(matches!(os.read_encrypted("/enc/bundle"), Err(TeeError::Crypto(_))));
    }

    #[test]
    fn encrypted_fs_requires_key_and_listing() {
        let mut os = two_stage_os();
        assert!(os.write_encrypted("/enc/bundle", b"x").is_err()); // no key
        os.install_key([1u8; 32]).unwrap();
        assert!(os.write_encrypted("/enc/other", b"x").is_err()); // unlisted
        os.write_encrypted("/enc/bundle", b"x").unwrap();
    }

    #[test]
    fn wrong_key_fails_closed() {
        let mut os = two_stage_os();
        os.install_key([1u8; 32]).unwrap();
        os.write_encrypted("/enc/bundle", b"secret").unwrap();
        let exported = os.fs_mut().export("/enc/bundle").unwrap();
        // A second OS with a different key cannot read the blob.
        let mut other = two_stage_os();
        other.install_key([2u8; 32]).unwrap();
        other.fs_mut().import("/enc/bundle", exported.0, exported.1);
        assert!(matches!(other.read_encrypted("/enc/bundle"), Err(TeeError::Crypto(_))));
    }

    #[test]
    fn rollback_to_older_blob_is_detected() {
        // §6.5: "encrypted files can suffer from rollback/replay attacks,
        // where an attacker reverts files to an older state. We partially
        // mitigate this by maintaining freshness metadata at runtime."
        let kdk = [5u8; 32];
        let mut fs = ProtectedFs::new();
        fs.write(&kdk, "/enc/state", b"version 1");
        let old = fs.export("/enc/state").unwrap();
        fs.write(&kdk, "/enc/state", b"version 2");
        assert_eq!(fs.read(&kdk, "/enc/state").unwrap(), b"version 2");
        assert_eq!(fs.version("/enc/state"), 2);
        // The untrusted host reverts the blob to the old state.
        fs.import("/enc/state", old.0, old.1);
        assert!(
            matches!(fs.read(&kdk, "/enc/state"), Err(TeeError::Crypto(_))),
            "rolled-back blob must fail freshness authentication"
        );
    }

    #[test]
    fn blob_is_version_nonce_ciphertext_tag() {
        let kdk = [3u8; 32];
        let mut fs = ProtectedFs::new();
        fs.write(&kdk, "/enc/f", b"first");
        fs.write(&kdk, "/enc/f", b"second write");
        let (salt, blob) = fs.export("/enc/f").unwrap();
        assert_eq!(blob.len(), 8 + NONCE_LEN + b"second write".len() + TAG_LEN);
        assert_eq!(blob[..8], 2u64.to_le_bytes());
        // Opened by hand from the parsed fields, and through `read`.
        let nonce: [u8; NONCE_LEN] = blob[8..8 + NONCE_LEN].try_into().unwrap();
        let cipher = AesGcm::new_256(&ProtectedFs::file_key(&kdk, "/enc/f", &salt));
        let opened = cipher.open(&nonce, &blob[8 + NONCE_LEN..], &ProtectedFs::aad("/enc/f", 2));
        assert_eq!(opened.unwrap(), b"second write");
        assert_eq!(fs.read(&kdk, "/enc/f").unwrap(), b"second write");
        // The cleartext version is only a hint: its authentic copy is in
        // the AAD, so an importer adopting an edited one cannot open the blob.
        let mut edited = blob;
        edited[0] ^= 1;
        let mut other = ProtectedFs::new();
        other.import("/enc/f", salt, edited);
        assert!(matches!(other.read(&kdk, "/enc/f"), Err(TeeError::Crypto(_))));
    }

    #[test]
    fn export_after_multiple_writes_imports_cleanly() {
        // A blob exported at version N must be readable after import into a
        // fresh instance (the deployment/rotation path).
        let kdk = [8u8; 32];
        let mut fs = ProtectedFs::new();
        fs.write(&kdk, "/enc/f", b"one");
        fs.write(&kdk, "/enc/f", b"two");
        fs.write(&kdk, "/enc/f", b"three");
        let (salt, blob) = fs.export("/enc/f").unwrap();
        let mut fresh = ProtectedFs::new();
        fresh.import("/enc/f", salt, blob);
        assert_eq!(fresh.read(&kdk, "/enc/f").unwrap(), b"three");
        assert_eq!(fresh.version("/enc/f"), 3);
    }

    #[test]
    fn exec_is_one_way_even_if_second_manifest_allows_exec() {
        // A malicious second-stage manifest that re-enables exec must not
        // reopen the transition.
        let mut os = TeeOs::new(Manifest::init_variant("init"));
        let mut second = Manifest::main_variant("evil");
        second.allowed_syscalls.insert(Syscall::Exec);
        os.install_second_stage(second).unwrap();
        os.exec().unwrap();
        assert_eq!(os.stage(), Stage::Main);
        assert!(matches!(os.exec(), Err(TeeError::ManifestInstallDenied(_))));
    }

    #[test]
    fn two_stage_happy_path() {
        let mut os = two_stage_os();
        assert_eq!(os.stage(), Stage::Init);
        let mut second = Manifest::main_variant("main");
        second.encrypt_file("/enc/bundle");
        os.install_second_stage(second.clone()).unwrap();
        assert_eq!(os.second_stage_hash(), Some(second.hash()));
        os.exec().unwrap();
        assert_eq!(os.stage(), Stage::Main);
        assert_eq!(os.manifest_hash(), second.hash());
        // State was reset.
        assert_eq!(os.recent_syscalls().count(), 0);
        assert!(Syscall::ALL.iter().all(|&call| os.syscall_count(call) == 0));
    }

    #[test]
    fn second_stage_install_is_one_time() {
        let mut os = two_stage_os();
        os.install_second_stage(Manifest::main_variant("a")).unwrap();
        assert!(matches!(
            os.install_second_stage(Manifest::main_variant("b")),
            Err(TeeError::ManifestInstallDenied(_))
        ));
    }

    #[test]
    fn install_denied_in_main_stage() {
        let mut os = two_stage_os();
        os.install_second_stage(Manifest::main_variant("a")).unwrap();
        os.exec().unwrap();
        assert!(matches!(
            os.install_second_stage(Manifest::main_variant("b")),
            Err(TeeError::ManifestInstallDenied(_))
        ));
    }

    #[test]
    fn install_requires_two_stage_manifest() {
        let mut os = TeeOs::new(Manifest::main_variant("not-two-stage"));
        assert!(matches!(
            os.install_second_stage(Manifest::main_variant("x")),
            Err(TeeError::ManifestInstallDenied(_))
        ));
    }

    #[test]
    fn exec_requires_installed_second_stage() {
        let mut os = two_stage_os();
        assert!(matches!(os.exec(), Err(TeeError::ManifestInstallDenied(_))));
    }

    #[test]
    fn exec_denied_by_main_manifest() {
        // After transition, exec is refused by the one-way state machine
        // itself (before the manifest's syscall policy is even consulted).
        let mut os = two_stage_os();
        os.install_second_stage(Manifest::main_variant("m")).unwrap();
        os.exec().unwrap();
        assert!(matches!(os.exec(), Err(TeeError::ManifestInstallDenied(_))));
    }

    #[test]
    fn key_install_prohibited_in_main_stage() {
        let mut os = two_stage_os();
        os.install_key([1u8; 32]).unwrap();
        let mut second = Manifest::main_variant("m");
        second.encrypt_file("/enc/bundle");
        os.install_second_stage(second).unwrap();
        os.exec().unwrap();
        assert!(matches!(os.install_key([2u8; 32]), Err(TeeError::KeyInstallDenied(_))));
        // But the previously installed key still decrypts.
        assert!(os.has_key());
    }

    #[test]
    fn encrypted_files_survive_exec() {
        let mut os = two_stage_os();
        os.install_key([7u8; 32]).unwrap();
        os.write_encrypted("/enc/bundle", b"model-part").unwrap();
        let mut second = Manifest::main_variant("m");
        second.encrypt_file("/enc/bundle");
        os.install_second_stage(second).unwrap();
        os.exec().unwrap();
        assert_eq!(os.read_encrypted("/enc/bundle").unwrap(), b"model-part");
    }
}
