//! Gramine-style manifests.
//!
//! A manifest regulates everything an application inside the TEE may do:
//! which files it can open (with reference hashes for trusted files),
//! which files are transparently encrypted, which syscalls it may issue,
//! and which environment variables / command-line arguments pass through
//! from the untrusted host. MVTEE's two-stage bootstrap installs a second,
//! stricter manifest before `exec()`ing into the main variant (§5.2).

use mvtee_crypto::sha256::sha256;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The syscall surface the simulated TEE OS mediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Syscall {
    /// Open a file.
    Open,
    /// Read from a file descriptor.
    Read,
    /// Write to a file descriptor.
    Write,
    /// Replace the process image (stage transition trigger).
    Exec,
    /// Open an outbound network connection.
    Connect,
    /// Accept an inbound connection.
    Accept,
    /// Map memory.
    Mmap,
    /// Change page protections.
    Mprotect,
    /// Device control.
    Ioctl,
    /// Spawn a thread.
    Clone,
    /// Query time.
    ClockGetTime,
    /// Exit the process.
    Exit,
}

impl Syscall {
    /// Every syscall, in declaration order (`call as usize` indexes it).
    pub const ALL: [Syscall; 12] = [
        Syscall::Open,
        Syscall::Read,
        Syscall::Write,
        Syscall::Exec,
        Syscall::Connect,
        Syscall::Accept,
        Syscall::Mmap,
        Syscall::Mprotect,
        Syscall::Ioctl,
        Syscall::Clone,
        Syscall::ClockGetTime,
        Syscall::Exit,
    ];
}

impl fmt::Display for Syscall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Syscall::Open => "open",
            Syscall::Read => "read",
            Syscall::Write => "write",
            Syscall::Exec => "exec",
            Syscall::Connect => "connect",
            Syscall::Accept => "accept",
            Syscall::Mmap => "mmap",
            Syscall::Mprotect => "mprotect",
            Syscall::Ioctl => "ioctl",
            Syscall::Clone => "clone",
            Syscall::ClockGetTime => "clock_gettime",
            Syscall::Exit => "exit",
        };
        write!(f, "{name}")
    }
}

/// A TEE OS manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Manifest {
    /// Manifest name (diagnostics only; not part of enforcement).
    pub name: String,
    /// Trusted files: path → SHA-256 reference hash, verified on open.
    pub trusted_files: BTreeMap<String, [u8; 32]>,
    /// Paths served through the encrypted filesystem.
    pub encrypted_files: BTreeSet<String>,
    /// Allowed syscalls (everything else is denied).
    pub allowed_syscalls: BTreeSet<Syscall>,
    /// Environment variables allowed through from the untrusted host.
    pub allowed_env: BTreeSet<String>,
    /// Whether untrusted command-line arguments pass through (MVTEE
    /// variant manifests default to `false`).
    pub allow_host_args: bool,
    /// Whether this manifest permits installing a second-stage manifest
    /// (only init-variant manifests set this).
    pub two_stage: bool,
}

impl Manifest {
    /// Creates an empty (deny-everything) manifest.
    pub fn new(name: impl Into<String>) -> Self {
        Manifest { name: name.into(), ..Default::default() }
    }

    /// The canonical manifest for an MVTEE *init-variant*: permissive
    /// enough to attest, fetch and decrypt the variant bundle, and exec.
    pub fn init_variant(name: impl Into<String>) -> Self {
        let mut m = Manifest::new(name);
        m.two_stage = true;
        m.allowed_syscalls.extend([
            Syscall::Open,
            Syscall::Read,
            Syscall::Write,
            Syscall::Connect,
            Syscall::Mmap,
            Syscall::Exec,
            Syscall::ClockGetTime,
            Syscall::Exit,
        ]);
        m
    }

    /// The canonical second-stage manifest for a main variant: no exec, no
    /// ioctl, no further manifest installs; network plus encrypted-file
    /// reads only.
    pub fn main_variant(name: impl Into<String>) -> Self {
        let mut m = Manifest::new(name);
        m.allowed_syscalls.extend([
            Syscall::Read,
            Syscall::Write,
            Syscall::Connect,
            Syscall::Accept,
            Syscall::Mmap,
            Syscall::Clone,
            Syscall::ClockGetTime,
            Syscall::Exit,
        ]);
        m
    }

    /// Registers a trusted file by content.
    pub fn trust_file(&mut self, path: impl Into<String>, content: &[u8]) {
        self.trusted_files.insert(path.into(), sha256(content));
    }

    /// Registers an encrypted file path.
    pub fn encrypt_file(&mut self, path: impl Into<String>) {
        self.encrypted_files.insert(path.into());
    }

    /// Is `syscall` allowed?
    pub fn allows(&self, syscall: Syscall) -> bool {
        self.allowed_syscalls.contains(&syscall)
    }

    /// The manifest's measurement-relevant hash (bound into attestation
    /// evidence so manifest tampering is detectable, property (vii) of the
    /// paper's §6.5).
    pub fn hash(&self) -> [u8; 32] {
        let bytes = mvtee_codec::to_bytes(self).expect("manifest serialisation cannot fail");
        sha256(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_syscalls_are_indexed_by_discriminant() {
        for (i, call) in Syscall::ALL.into_iter().enumerate() {
            assert_eq!(call as usize, i, "{call}");
        }
    }

    #[test]
    fn empty_manifest_denies_everything() {
        let m = Manifest::new("deny");
        assert!(!m.allows(Syscall::Open));
        assert!(!m.allows(Syscall::Exec));
        assert!(!m.allow_host_args);
    }

    #[test]
    fn init_manifest_allows_exec_but_main_does_not() {
        let init = Manifest::init_variant("init");
        let main = Manifest::main_variant("main");
        assert!(init.allows(Syscall::Exec));
        assert!(init.two_stage);
        assert!(!main.allows(Syscall::Exec));
        assert!(!main.allows(Syscall::Ioctl));
        assert!(!main.two_stage);
        assert!(main.allows(Syscall::Accept));
    }

    #[test]
    fn hash_changes_with_content() {
        let mut a = Manifest::init_variant("m");
        let h1 = a.hash();
        a.trust_file("/bin/init", b"code");
        let h2 = a.hash();
        assert_ne!(h1, h2);
        a.allowed_syscalls.remove(&Syscall::Exec);
        assert_ne!(a.hash(), h2);
    }

    #[test]
    fn hash_is_deterministic() {
        let mk = || {
            let mut m = Manifest::main_variant("x");
            m.trust_file("/a", b"1");
            m.encrypt_file("/enc/model");
            m
        };
        assert_eq!(mk().hash(), mk().hash());
    }

    #[test]
    fn trusted_file_hash_recorded() {
        let mut m = Manifest::new("m");
        m.trust_file("/f", b"hello");
        assert_eq!(m.trusted_files["/f"], mvtee_crypto::sha256::sha256(b"hello"));
    }

    #[test]
    fn syscall_display() {
        assert_eq!(Syscall::Exec.to_string(), "exec");
        assert_eq!(Syscall::ClockGetTime.to_string(), "clock_gettime");
    }
}
