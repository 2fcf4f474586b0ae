//! Cryptographic primitives for the MVTEE reproduction, written from
//! scratch in safe Rust — bar four one-line shims: three dispatch AES-GCM
//! to the CPU's AES and carry-less-multiply instructions, one dispatches
//! SHA-256 to its SHA extensions, where it has them.
//!
//! The paper's runtime encrypts *all* monitor–variant and variant–variant
//! traffic with AES-GCM-256 over RA-TLS-established channels, seals variant
//! bundles with per-variant keys, and authenticates attestation reports.
//! This crate supplies those building blocks:
//!
//! * [`sha256`] — SHA-256, HMAC-SHA-256 and HKDF (RFC 5869) for
//!   measurements, report MACs and key derivation: on x86-64 with the SHA
//!   extensions a hardware core (~1.5 GB/s), elsewhere the portable core
//!   (~270 MB/s), same digests either way; [`sha256::core_name`] says
//!   which,
//! * [`aes`] — the AES-128/AES-256 block cipher (FIPS 197), portable
//!   table form,
//! * [`gcm`] — AES-GCM authenticated encryption (NIST SP 800-38D): on
//!   x86-64 with AES-NI and PCLMULQDQ a hardware core (~3 GB/s), elsewhere
//!   the portable table core (~170 MB/s), same bytes either way;
//!   [`gcm::core_name`] says which,
//! * [`x25519`] — the X25519 Diffie-Hellman function (RFC 7748) used by the
//!   attested channel handshake and every variant bootstrap: five 51-bit
//!   limbs with `u128` products, one safe-Rust core on every target
//!   (~76 µs per scalar multiplication on a 2.1 GHz x86-64 Xeon),
//! * [`channel`] — sequence-numbered, AEAD-framed secure channels
//!   (the paper's "encrypted and authenticated with unique sequence numbers
//!   for freshness" transport, §4.3),
//! * [`tcp`] — a loopback/remote TCP frame transport so the same secure
//!   channels run in the paper's distributed setting.
//!
//! # Security note
//!
//! These implementations are validated against published test vectors
//! (FIPS 197, RFC 7748, RFC 4231, RFC 5869, FIPS 180-4, the McGrew–Viega
//! GCM spec cases — the SHA-2 and GCM ones on both of their cores) plus
//! extensive round-trip/tamper property tests, but they are *not*
//! constant-time and are intended for the simulated TEE substrate of this
//! reproduction, not for production use.
//!
//! # Example
//!
//! ```
//! use mvtee_crypto::gcm::AesGcm;
//!
//! let key = [7u8; 32];
//! let cipher = AesGcm::new_256(&key);
//! let nonce = [1u8; 12];
//! let ct = cipher.seal(&nonce, b"checkpoint tensor", b"aad");
//! let pt = cipher.open(&nonce, &ct, b"aad").expect("authentic");
//! assert_eq!(pt, b"checkpoint tensor");
//! ```

// `deny`, not `forbid`: the three dispatch shims in `aesni.rs` and the one
// in `shani.rs` are the only places in the workspace that lift it.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
#[cfg(target_arch = "x86_64")]
mod aesni;
pub mod channel;
pub mod gcm;
pub mod mux;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
mod shani;
pub mod tcp;
pub mod x25519;

mod error;

pub use error::CryptoError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CryptoError>;

/// Fills `buf` with bytes from the thread-local CSPRNG.
///
/// Centralised so the simulated TEE substrate has one place to source
/// entropy (and tests can observe that distinct invocations differ).
pub fn random_bytes(buf: &mut [u8]) {
    use rand::RngCore;
    rand::thread_rng().fill_bytes(buf);
}

/// Convenience: a fresh random array of `N` bytes.
pub fn random_array<const N: usize>() -> [u8; N] {
    let mut out = [0u8; N];
    random_bytes(&mut out);
    out
}

/// Constant-shape byte comparison that does not early-exit.
///
/// Not strictly constant-time at the instruction level, but avoids the
/// obvious length-dependent early return.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_arrays_differ() {
        let a: [u8; 32] = random_array();
        let b: [u8; 32] = random_array();
        assert_ne!(a, b, "256-bit collisions do not happen");
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(!ct_eq(b"abc", b"abd"));
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }
}
