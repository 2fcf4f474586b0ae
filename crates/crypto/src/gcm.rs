//! AES-GCM authenticated encryption (NIST SP 800-38D).
//!
//! All inter-TEE traffic in MVTEE — checkpoint tensors, bootstrap keys,
//! encrypted variant bundles — is sealed with AES-GCM-256. The 16-byte tag
//! is appended to the ciphertext, mirroring common wire formats.
//!
//! Nonces are fixed at 96 bits (the GCM fast path); the secure channel layer
//! derives them from per-direction counters so they never repeat under a key.
//!
//! A key runs on one of two cores, decided when it is built and by nothing
//! but the CPU: the *hardware* core (`aesni.rs`: AES-NI + PCLMULQDQ, x86-64
//! with the instructions detected) or the *portable* core in this file
//! (T-box AES + Shoup-table GHASH, everywhere else). Both produce the same
//! bytes; [`core_name`] says which one this host runs.

use crate::aes::{Aes, BLOCK_LEN};
#[cfg(target_arch = "x86_64")]
use crate::aesni::HwKey;
use crate::{ct_eq, CryptoError, Result};

/// Length of the GCM authentication tag in bytes.
pub const TAG_LEN: usize = 16;
/// Length of the GCM nonce in bytes (96-bit fast path only).
pub const NONCE_LEN: usize = 12;

/// Precomputed Shoup byte tables for multiplication by a fixed `H`:
/// `table[i][b]` is the product of `H` with the field element whose byte
/// `i` (most-significant first) equals `b`. Built once per portable key
/// (64 KiB); makes GHASH run at a few cycles per byte, the throughput class
/// of table-driven software GHASH.
struct HTable {
    table: Box<[[u128; 256]; 16]>,
}

/// Multiplies a field element by `x` (one-bit shift with reduction).
fn mul_x(a: u128) -> u128 {
    const R: u128 = 0xe1000000_00000000_00000000_00000000;
    let out = a >> 1;
    if a & 1 == 1 {
        out ^ R
    } else {
        out
    }
}

impl HTable {
    fn new(h: [u8; 16]) -> Self {
        let h = u128::from_be_bytes(h);
        // e[j] = H · x^j.
        let mut e = [0u128; 128];
        let mut cur = h;
        for entry in e.iter_mut() {
            *entry = cur;
            cur = mul_x(cur);
        }
        let mut table = Box::new([[0u128; 256]; 16]);
        for i in 0..16 {
            for b in 0..256usize {
                let mut acc = 0u128;
                for k in 0..8 {
                    if b & (0x80 >> k) != 0 {
                        acc ^= e[8 * i + k];
                    }
                }
                table[i][b] = acc;
            }
        }
        HTable { table }
    }

    /// Computes `y · H`.
    fn mul(&self, y: u128) -> u128 {
        let mut z = 0u128;
        for i in 0..16 {
            let byte = (y >> (8 * (15 - i))) as u8;
            z ^= self.table[i][byte as usize];
        }
        z
    }
}

impl std::fmt::Debug for HTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "HTable {{ .. }}") // never print key-derived material
    }
}

/// GHASH state over a precomputed [`HTable`].
struct GHash<'a> {
    h: &'a HTable,
    acc: u128,
}

impl<'a> GHash<'a> {
    fn new(h: &'a HTable) -> Self {
        GHash { h, acc: 0 }
    }

    /// Reference bitwise multiplication in GF(2^128) modulo
    /// x^128 + x^7 + x^2 + x + 1 with GCM's bit order (kept for
    /// cross-validation in tests).
    #[cfg(test)]
    fn gf_mul(x: u128, y: u128) -> u128 {
        const R: u128 = 0xe1000000_00000000_00000000_00000000;
        let mut z = 0u128;
        let mut v = x;
        for i in 0..128 {
            if (y >> (127 - i)) & 1 == 1 {
                z ^= v;
            }
            let lsb = v & 1;
            v >>= 1;
            if lsb == 1 {
                v ^= R;
            }
        }
        z
    }

    fn update_block(&mut self, block: &[u8; 16]) {
        self.acc ^= u128::from_be_bytes(*block);
        self.acc = self.h.mul(self.acc);
    }

    /// Absorbs `data`, zero-padding the trailing partial block.
    fn update_padded(&mut self, data: &[u8]) {
        let mut chunks = data.chunks_exact(16);
        for c in chunks.by_ref() {
            let mut b = [0u8; 16];
            b.copy_from_slice(c);
            self.update_block(&b);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut b = [0u8; 16];
            b[..rem.len()].copy_from_slice(rem);
            self.update_block(&b);
        }
    }

    fn finalize(mut self, aad_len: usize, ct_len: usize) -> [u8; 16] {
        let mut lens = [0u8; 16];
        lens[..8].copy_from_slice(&((aad_len as u64) * 8).to_be_bytes());
        lens[8..].copy_from_slice(&((ct_len as u64) * 8).to_be_bytes());
        self.update_block(&lens);
        self.acc.to_be_bytes()
    }
}

/// Payload-size bucket labels for the seal/open latency histograms.
///
/// AEAD cost is dominated by payload length, so one flat histogram
/// would bury the registry's megabyte-class re-seals under the data
/// plane's kilobyte-class checkpoint traffic. Four decade-ish buckets
/// keep both visible in the telemetry report.
const SIZE_BUCKETS: [(&str, usize); 4] = [
    ("le_1k", 1 << 10),
    ("le_64k", 1 << 16),
    ("le_1m", 1 << 20),
    ("gt_1m", usize::MAX),
];

/// The per-bucket histograms, resolved once per process (registry
/// lookups are lock-protected; the hot seal path must not pay them per
/// call).
fn size_histograms(op: &str) -> &'static [mvtee_telemetry::Histogram; 4] {
    use std::sync::OnceLock;
    static SEAL: OnceLock<[mvtee_telemetry::Histogram; 4]> = OnceLock::new();
    static OPEN: OnceLock<[mvtee_telemetry::Histogram; 4]> = OnceLock::new();
    let cell = if op == "seal" { &SEAL } else { &OPEN };
    cell.get_or_init(|| {
        SIZE_BUCKETS
            .map(|(label, _)| mvtee_telemetry::histogram(&format!("crypto.{op}_ns.{label}")))
    })
}

/// The histogram recording an `op` of `len` payload bytes.
fn size_histogram(op: &str, len: usize) -> &'static mvtee_telemetry::Histogram {
    let idx = SIZE_BUCKETS.iter().position(|&(_, cap)| len <= cap).unwrap_or(3);
    &size_histograms(op)[idx]
}

/// An AES-GCM AEAD cipher bound to one key.
///
/// # Example
///
/// ```
/// use mvtee_crypto::gcm::AesGcm;
///
/// let cipher = AesGcm::new_256(&[0u8; 32]);
/// let sealed = cipher.seal(&[0u8; 12], b"secret", b"");
/// assert_eq!(cipher.open(&[0u8; 12], &sealed, b"").unwrap(), b"secret");
/// assert!(cipher.open(&[1u8; 12], &sealed, b"").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AesGcm {
    core: Core,
}

/// The key material, in the form the core that runs it wants.
// The large variant is the common one; boxing it would put a pointer chase
// in front of every seal to shrink a variant most hosts never build.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Core {
    #[cfg(target_arch = "x86_64")]
    Hardware(HwKey),
    Portable { aes: Aes, h: std::sync::Arc<HTable> },
}

/// Whether keys built on this host get the hardware core.
fn hardware() -> bool {
    #[cfg(target_arch = "x86_64")]
    return crate::aesni::available();
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The core that keys built on this host run on: `"aesni-pclmul"` or
/// `"portable"`. For logs and reports; it selects nothing.
pub fn core_name() -> &'static str {
    if hardware() {
        "aesni-pclmul"
    } else {
        "portable"
    }
}

impl AesGcm {
    /// Creates a cipher from a 256-bit key.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::from_aes(Aes::new_256(key))
    }

    /// Creates a cipher from a 128-bit key.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::from_aes(Aes::new_128(key))
    }

    /// Creates a cipher from a 16- or 32-byte key slice.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> Result<Self> {
        Ok(Self::from_aes(Aes::new(key)?))
    }

    fn from_aes(aes: Aes) -> Self {
        static REPORTED: std::sync::Once = std::sync::Once::new();
        REPORTED.call_once(|| {
            mvtee_telemetry::gauge("crypto.gcm.hw_core").set(i64::from(hardware()));
        });
        #[cfg(target_arch = "x86_64")]
        if let Some(key) = HwKey::new(&aes) {
            return AesGcm { core: Core::Hardware(key) };
        }
        Self::portable(aes)
    }

    /// A key on the portable core, whatever the CPU offers.
    fn portable(aes: Aes) -> Self {
        let h = aes.encrypt(&[0u8; 16]);
        AesGcm { core: Core::Portable { aes, h: std::sync::Arc::new(HTable::new(h)) } }
    }

    pub(crate) fn counter_block(nonce: &[u8; NONCE_LEN], counter: u32) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..NONCE_LEN].copy_from_slice(nonce);
        block[12..].copy_from_slice(&counter.to_be_bytes());
        block
    }

    /// Maximum GCM payload under one nonce: (2^32 − 2) 16-byte blocks
    /// (SP 800-38D); beyond it the 32-bit counter would wrap and reuse
    /// keystream.
    const MAX_PAYLOAD: usize = ((u32::MAX as usize) - 2) * BLOCK_LEN;

    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        assert!(
            data.len() <= Self::MAX_PAYLOAD,
            "gcm payload exceeds the single-nonce limit"
        );
        let aes = match &self.core {
            #[cfg(target_arch = "x86_64")]
            Core::Hardware(key) => return key.ctr_xor(nonce, data),
            Core::Portable { aes, .. } => aes,
        };
        let mut counter = 2u32; // counter 1 is reserved for the tag mask
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = aes.encrypt(&Self::counter_block(nonce, counter));
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= k;
            }
            counter = counter.wrapping_add(1);
        }
    }

    fn compute_tag(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let (aes, h) = match &self.core {
            #[cfg(target_arch = "x86_64")]
            Core::Hardware(key) => return key.tag(nonce, ciphertext, aad),
            Core::Portable { aes, h } => (aes, h),
        };
        let mut ghash = GHash::new(h);
        ghash.update_padded(aad);
        ghash.update_padded(ciphertext);
        let s = ghash.finalize(aad.len(), ciphertext.len());
        let mask = aes.encrypt(&Self::counter_block(nonce, 1));
        let mut tag = [0u8; TAG_LEN];
        for i in 0..TAG_LEN {
            tag[i] = s[i] ^ mask[i];
        }
        tag
    }

    /// Encrypts `plaintext` with associated data `aad`, returning
    /// `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, plaintext, aad, &mut out);
        out
    }

    /// Like [`AesGcm::seal`], but appends `ciphertext || tag` to `out`, so
    /// a caller framing the sealed bytes (a sequence number, a nonce) builds
    /// the whole frame in one buffer. What `out` already holds is untouched.
    pub fn seal_into(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
        out: &mut Vec<u8>,
    ) {
        let timer = size_histogram("seal", plaintext.len()).start();
        let start = out.len();
        out.reserve(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        self.ctr_xor(nonce, &mut out[start..]);
        let tag = self.compute_tag(nonce, &out[start..], aad);
        out.extend_from_slice(&tag);
        timer.finish();
    }

    /// Decrypts and authenticates `ciphertext || tag`.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::CiphertextTooShort`] when the input cannot contain a
    ///   tag.
    /// * [`CryptoError::AuthenticationFailed`] when the tag does not verify
    ///   (tampered ciphertext, AAD or nonce).
    pub fn open(&self, nonce: &[u8; NONCE_LEN], sealed: &[u8], aad: &[u8]) -> Result<Vec<u8>> {
        if sealed.len() < TAG_LEN {
            return Err(CryptoError::CiphertextTooShort { len: sealed.len() });
        }
        let timer = size_histogram("open", sealed.len() - TAG_LEN).start();
        let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let expected = self.compute_tag(nonce, ct, aad);
        if !ct_eq(&expected, tag) {
            timer.cancel(); // rejected opens must not skew the latency curve
            return Err(CryptoError::AuthenticationFailed);
        }
        let mut out = ct.to_vec();
        self.ctr_xor(nonce, &mut out);
        timer.finish();
        Ok(out)
    }
}

/// Builds a deterministic 96-bit nonce from a 4-byte channel id and a
/// 64-bit sequence number. Unique per (key, direction, sequence).
pub fn nonce_from_sequence(channel_id: u32, sequence: u64) -> [u8; NONCE_LEN] {
    let mut nonce = [0u8; NONCE_LEN];
    nonce[..4].copy_from_slice(&channel_id.to_be_bytes());
    nonce[4..].copy_from_slice(&sequence.to_be_bytes());
    nonce
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_various_lengths() {
        let cipher = AesGcm::new_256(&[3u8; 32]);
        let nonce = [5u8; NONCE_LEN];
        for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = cipher.seal(&nonce, &pt, b"aad");
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(cipher.open(&nonce, &sealed, b"aad").unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tamper_detection_every_byte() {
        let cipher = AesGcm::new_128(&[9u8; 16]);
        let nonce = [0u8; NONCE_LEN];
        let sealed = cipher.seal(&nonce, b"the checkpoint tensor bytes", b"hdr");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert!(
                matches!(cipher.open(&nonce, &bad, b"hdr"), Err(CryptoError::AuthenticationFailed)),
                "flip at byte {i} must fail"
            );
        }
    }

    #[test]
    fn aad_is_authenticated() {
        let cipher = AesGcm::new_256(&[1u8; 32]);
        let nonce = [2u8; NONCE_LEN];
        let sealed = cipher.seal(&nonce, b"payload", b"seq=1");
        assert!(cipher.open(&nonce, &sealed, b"seq=2").is_err());
        assert!(cipher.open(&nonce, &sealed, b"seq=1").is_ok());
    }

    #[test]
    fn wrong_key_or_nonce_fails() {
        let a = AesGcm::new_256(&[1u8; 32]);
        let b = AesGcm::new_256(&[2u8; 32]);
        let sealed = a.seal(&[0u8; 12], b"x", b"");
        assert!(b.open(&[0u8; 12], &sealed, b"").is_err());
        assert!(a.open(&[1u8; 12], &sealed, b"").is_err());
    }

    #[test]
    fn too_short_rejected() {
        let cipher = AesGcm::new_128(&[0u8; 16]);
        assert!(matches!(
            cipher.open(&[0u8; 12], &[0u8; 8], b""),
            Err(CryptoError::CiphertextTooShort { len: 8 })
        ));
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let cipher = AesGcm::new_256(&[4u8; 32]);
        let pt = vec![0u8; 64];
        let sealed = cipher.seal(&[7u8; 12], &pt, b"");
        assert_ne!(&sealed[..64], &pt[..]);
    }

    #[test]
    fn nonce_uniqueness_changes_ciphertext() {
        let cipher = AesGcm::new_256(&[4u8; 32]);
        let s1 = cipher.seal(&nonce_from_sequence(1, 1), b"msg", b"");
        let s2 = cipher.seal(&nonce_from_sequence(1, 2), b"msg", b"");
        assert_ne!(s1, s2);
    }

    #[test]
    fn nonce_from_sequence_layout() {
        let n = nonce_from_sequence(0x01020304, 0x05060708090a0b0c);
        assert_eq!(n, [1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c]);
    }

    #[test]
    fn table_mul_matches_bitwise_mul() {
        for h_val in [1u128 << 127, 0xdeadbeefu128, u128::MAX, 0x0123_4567_89ab_cdefu128 << 64] {
            let table = HTable::new(h_val.to_be_bytes());
            for y in [0u128, 1, 1 << 127, 0xffff, u128::MAX, 0x5555_aaaa << 32] {
                assert_eq!(table.mul(y), GHash::gf_mul(y, h_val), "h={h_val:x} y={y:x}");
            }
        }
    }

    #[test]
    fn gf_mul_identity_and_commutativity() {
        // The GCM "1" element is the reflected MSB-first 1: 0x80...0.
        let one: u128 = 1u128 << 127;
        for x in [0x1234u128, u128::MAX, 1u128 << 127, 0x0f0f0f0fu128] {
            assert_eq!(GHash::gf_mul(x, one), x);
            assert_eq!(GHash::gf_mul(one, x), x);
        }
        let (a, b) = (0xdeadbeefu128, 0xc0ffeeu128 << 64);
        assert_eq!(GHash::gf_mul(a, b), GHash::gf_mul(b, a));
    }

    #[test]
    fn gf_mul_distributes_over_xor() {
        let (a, b, c) = (0x1111u128, 0x2222u128 << 32, 0xff00ff00u128 << 90);
        assert_eq!(
            GHash::gf_mul(a ^ b, c),
            GHash::gf_mul(a, c) ^ GHash::gf_mul(b, c)
        );
    }

    include!("../tests/data/gcm_spec_cases.rs");

    /// `key` on the portable core always, and on the hardware core when
    /// this CPU has it: every two-core test runs on whatever is present.
    fn cores(key: &[u8]) -> Vec<(&'static str, AesGcm)> {
        let mut cores = vec![("portable", AesGcm::portable(Aes::new(key).unwrap()))];
        if hardware() {
            cores.push((core_name(), AesGcm::new(key).unwrap()));
        }
        cores
    }

    #[test]
    fn core_name_matches_the_core_keys_are_built_on() {
        println!("aes-gcm core: {}", core_name());
        let built = match AesGcm::new_256(&[0u8; 32]).core {
            #[cfg(target_arch = "x86_64")]
            Core::Hardware(_) => "aesni-pclmul",
            Core::Portable { .. } => "portable",
        };
        assert_eq!(core_name(), built);
        let gauge = mvtee_telemetry::gauge("crypto.gcm.hw_core").get();
        assert_eq!(gauge, i64::from(built == "aesni-pclmul"));
    }

    #[test]
    fn spec_cases_hold_on_each_core() {
        for [case, key, iv, aad, plain, cipher, tag] in SPEC_CASES {
            let iv: [u8; 12] = unhex(iv).try_into().unwrap();
            let (aad, plain) = (unhex(aad), unhex(plain));
            for (core, gcm) in cores(&unhex(key)) {
                let sealed = gcm.seal(&iv, &plain, &aad);
                assert_eq!(crate::sha256::hex(&sealed), format!("{cipher}{tag}"), "{case} {core}");
                assert_eq!(gcm.open(&iv, &sealed, &aad).unwrap(), plain, "{case} {core}");
            }
        }
    }

    /// No spec vector is longer than 64 bytes; the hardware core's 128-byte
    /// batches, their 16-byte tail and the partial last block are reached
    /// only here.
    #[test]
    fn cores_agree_byte_for_byte_and_reject_the_same_flips() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let mut key = [0u8; 32];
        rng.fill(&mut key);
        let cores = cores(&key);
        let mut data = vec![0u8; 65_537 + 300];
        rng.fill(&mut data[..]);
        for len in (0..=1100).chain([4096, 5000, 65_536, 65_537]) {
            for aad_len in [0usize, 1, 12, 16, 17, 129, 300] {
                let (plain, aad) = (&data[..len], &data[len..len + aad_len]);
                let mut nonce = [0u8; NONCE_LEN];
                rng.fill(&mut nonce);
                let sealed = cores[0].1.seal(&nonce, plain, aad);
                // One seeded bit flipped in the ciphertext, the tag, the AAD
                // or the nonce — whichever of them this case has.
                let (mut bad, mut bad_aad, mut bad_nonce) = (sealed.clone(), aad.to_vec(), nonce);
                let (bad_ct, bad_tag) = bad.split_at_mut(len);
                let mut targets: Vec<&mut [u8]> = vec![bad_ct, bad_tag, &mut bad_aad, &mut bad_nonce];
                targets.retain(|t| !t.is_empty());
                let pick = rng.gen_range(0..targets.len());
                let target = &mut targets[pick];
                target[rng.gen_range(0..target.len())] ^= 1u8 << rng.gen_range(0..8u32);
                for (core, gcm) in &cores {
                    let at = format!("{core}, {len} bytes, {aad_len} of aad");
                    assert!(gcm.seal(&nonce, plain, aad) == sealed, "seal differs: {at}");
                    assert!(gcm.open(&nonce, &sealed, aad).unwrap() == plain, "open: {at}");
                    assert_eq!(
                        gcm.open(&bad_nonce, &bad, &bad_aad),
                        Err(CryptoError::AuthenticationFailed),
                        "flip accepted: {at}"
                    );
                }
            }
        }
    }

    /// Digests of what the table core sealed *before* the hardware core
    /// existed (recorded at the parent commit), so a host without AES-NI
    /// still pins the portable core and one with it pins both.
    #[test]
    fn golden_digests_from_the_former_table_cipher() {
        const GOLDEN: [(usize, &str); 5] = [
            (127, "635060c68884eb943d26b27561e635744e8a68bc3b7bb3aff3b3db686580188d"),
            (128, "7faac900f7b0e1b7bcfff1dd3072ffdbd35b4f8e8bb4700b3229e0a047a45d27"),
            (129, "5f4521d81d0b6b161430d158047e5f82af30a36f84aa45b3f7909b2142f0069d"),
            (4096, "0f1dba204fffbb98a0d09f523ffd9b734de3d84e126ff768f0045d2f7f1b6d87"),
            (65_537, "ec5cc5fd11c5a53258baaf99a1b1ed4a2c89d02f0f74c3bcb32f19254810ff58"),
        ];
        for (core, gcm) in cores(&[0x5a; 32]) {
            for (n, digest) in GOLDEN {
                let plain: Vec<u8> = (0..n).map(|i| ((i * 31 + 7) % 256) as u8).collect();
                let sealed = gcm.seal(&[7; NONCE_LEN], &plain, b"mvtee-golden");
                assert_eq!(
                    crate::sha256::hex(&crate::sha256::sha256(&sealed)),
                    digest,
                    "{core}, {n} bytes"
                );
            }
        }
    }

    /// The tag recomputed with nothing but the bitwise `gf_mul`. A message
    /// of n ≤ 8 blocks multiplies its first block by the stored Hⁿ, so
    /// lengths of 1..=8 blocks check the hardware multiply and every stored
    /// power; the longer, ragged ones check aggregation across batches.
    #[test]
    fn tags_match_the_bitwise_reference() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        for case in 0..64usize {
            let mut key = [0u8; 32];
            rng.fill(&mut key);
            let key = if case % 2 == 0 { &key[..] } else { &key[..16] };
            let ct_len = if case < 32 { 16 * (case % 8 + 1) } else { rng.gen_range(1..=400) };
            let (mut ct, mut aad) = (vec![0u8; ct_len], vec![0u8; rng.gen_range(0..40)]);
            let mut nonce = [0u8; NONCE_LEN];
            rng.fill(&mut ct[..]);
            rng.fill(&mut aad[..]);
            rng.fill(&mut nonce);

            let aes = Aes::new(key).unwrap();
            let h = u128::from_be_bytes(aes.encrypt(&[0u8; 16]));
            let mut y = 0u128;
            for block in aad.chunks(16).chain(ct.chunks(16)) {
                let mut padded = [0u8; 16];
                padded[..block.len()].copy_from_slice(block);
                y = GHash::gf_mul(y ^ u128::from_be_bytes(padded), h);
            }
            let lens = ((aad.len() as u128 * 8) << 64) | (ct.len() as u128 * 8);
            y = GHash::gf_mul(y ^ lens, h);
            let mask = u128::from_be_bytes(aes.encrypt(&AesGcm::counter_block(&nonce, 1)));
            let expected = (y ^ mask).to_be_bytes();

            for (core, gcm) in cores(key) {
                assert_eq!(gcm.compute_tag(&nonce, &ct, &aad), expected, "{core}, case {case}");
            }
        }
    }

    #[test]
    fn seal_into_appends_and_leaves_the_prefix_alone() {
        for (core, gcm) in cores(&[6u8; 32]) {
            for len in [0usize, 5, 128, 1000] {
                let plain = vec![0xabu8; len];
                let mut out = b"prefix".to_vec();
                gcm.seal_into(&[1; NONCE_LEN], &plain, b"aad", &mut out);
                assert_eq!(&out[..6], b"prefix", "{core}");
                assert_eq!(out.len(), 6 + len + TAG_LEN, "{core}");
                assert_eq!(out[6..], gcm.seal(&[1; NONCE_LEN], &plain, b"aad"), "{core}");
            }
        }
    }

    #[test]
    fn empty_plaintext_produces_tag_only() {
        let cipher = AesGcm::new_128(&[0u8; 16]);
        let sealed = cipher.seal(&[0u8; 12], b"", b"");
        assert_eq!(sealed.len(), TAG_LEN);
        assert_eq!(cipher.open(&[0u8; 12], &sealed, b"").unwrap(), b"");
    }
}
