//! SHA-256 (FIPS 180-4), HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869).
//!
//! Used throughout the TEE substrate: enclave measurements are SHA-256
//! digests of code identity and manifest contents; attestation reports are
//! MAC'd with a simulated hardware key; per-variant file keys are derived
//! from the variant key-derivation key via HKDF (the paper notes the variant
//! key "acts as a key derivation key for the TEE OS's encrypted filesystem").
//!
//! A hasher runs on one of two cores, decided by nothing but the CPU: the
//! *hardware* core (`shani.rs`: the SHA extensions, x86-64 with them
//! detected) or the *portable* core in this file (everywhere else). Both
//! produce the same digests; [`core_name`] says which one this host runs.
//! HMAC, HKDF and every caller inherit the choice.

#[cfg(target_arch = "x86_64")]
use crate::shani::ShaNi;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use mvtee_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), mvtee_crypto::sha256::sha256(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    core: Core,
}

/// The compression function a hasher runs.
#[derive(Debug, Clone, Copy)]
enum Core {
    #[cfg(target_arch = "x86_64")]
    ShaNi(ShaNi),
    Portable,
}

/// The core of this host, detected once; the first call also reports it
/// on the `crypto.sha256.hw_core` gauge.
fn host_core() -> Core {
    static CORE: std::sync::OnceLock<Core> = std::sync::OnceLock::new();
    *CORE.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        let core = ShaNi::detect().map_or(Core::Portable, Core::ShaNi);
        #[cfg(not(target_arch = "x86_64"))]
        let core = Core::Portable;
        mvtee_telemetry::gauge("crypto.sha256.hw_core")
            .set(i64::from(!matches!(core, Core::Portable)));
        core
    })
}

/// The core hashers on this host run on: `"sha-ni"` or `"portable"`. For
/// logs and reports; it selects nothing.
pub fn core_name() -> &'static str {
    match host_core() {
        #[cfg(target_arch = "x86_64")]
        Core::ShaNi(_) => "sha-ni",
        Core::Portable => "portable",
    }
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::on(host_core())
    }

    fn on(core: Core) -> Self {
        Sha256 { state: H0, buffer: [0u8; 64], buffer_len: 0, total_len: 0, core }
    }

    /// Feeds more input into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let take = (64 - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress_blocks(&[block]);
                self.buffer_len = 0;
            }
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            self.compress_blocks(blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros up to 56 mod 64, the 64-bit big-endian
        // length of the unpadded message.
        let zeros = (64 + 55 - self.buffer_len) % 64;
        let mut padding = [0u8; 1 + 63 + 8];
        padding[0] = 0x80;
        padding[1 + zeros..9 + zeros].copy_from_slice(&bit_len.to_be_bytes());
        self.update(&padding[..9 + zeros]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Runs `blocks` through this hasher's core, in order.
    fn compress_blocks(&mut self, blocks: &[[u8; 64]]) {
        match self.core {
            #[cfg(target_arch = "x86_64")]
            Core::ShaNi(core) => core.compress(&mut self.state, blocks),
            Core::Portable => blocks.iter().for_each(|block| self.compress(block)),
        }
    }

    fn compress(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().expect("sliced"));
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// HMAC-SHA-256 (RFC 2104).
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    hmac(&Sha256::new(), key, message)
}

/// HMAC-SHA-256 on the core of `fresh`, a hasher nothing was fed yet.
fn hmac(fresh: &Sha256, key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut key_block = [0u8; 64];
    if key.len() > 64 {
        let mut h = fresh.clone();
        h.update(key);
        key_block[..32].copy_from_slice(&h.finalize());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    for i in 0..64 {
        ipad[i] ^= key_block[i];
        opad[i] ^= key_block[i];
    }
    let mut inner = fresh.clone();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();
    let mut outer = fresh.clone();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3).
///
/// # Panics
///
/// Panics if `len > 255 * 32` (outside the RFC's allowed range).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    expand(&Sha256::new(), prk, info, len)
}

/// HKDF-Expand on the core of `fresh`.
fn expand(fresh: &Sha256, prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "hkdf output length out of range");
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut msg = Vec::with_capacity(t.len() + info.len() + 1);
        msg.extend_from_slice(&t);
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac(fresh, prk, &msg);
        t = block.to_vec();
        out.extend_from_slice(&block);
        counter = counter.wrapping_add(1);
    }
    out.truncate(len);
    out
}

/// Full HKDF: extract-then-expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, len)
}

/// Derives a fixed 32-byte key with a domain-separation label.
pub fn derive_key32(ikm: &[u8], label: &str) -> [u8; 32] {
    let okm = hkdf(b"mvtee-kdf-v1", ikm, label.as_bytes(), 32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&okm);
    out
}

/// Hex-encodes a byte slice (for measurement display and logs).
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh hasher on the portable core always, and on the hardware core
    /// when this CPU has it: every two-core test runs on whatever is present.
    fn cores() -> Vec<(&'static str, Sha256)> {
        let mut cores = vec![("portable", Sha256::on(Core::Portable))];
        if !matches!(host_core(), Core::Portable) {
            cores.push((core_name(), Sha256::new()));
        }
        cores
    }

    fn digest(fresh: &Sha256, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = fresh.clone();
        h.update(data);
        h.finalize()
    }

    #[test]
    fn core_name_matches_the_core_hashers_run_on() {
        println!("sha-256 core: {}", core_name());
        let built = match Sha256::new().core {
            #[cfg(target_arch = "x86_64")]
            Core::ShaNi(_) => "sha-ni",
            Core::Portable => "portable",
        };
        assert_eq!(core_name(), built);
        let gauge = mvtee_telemetry::gauge("crypto.sha256.hw_core").get();
        assert_eq!(gauge, i64::from(built == "sha-ni"));
    }

    #[test]
    fn fips_180_4_vectors_hold_on_each_core() {
        const VECTORS: [(&[u8], &str); 3] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
        ];
        for (core, fresh) in cores() {
            for (message, expected) in VECTORS {
                assert_eq!(hex(&digest(&fresh, message)), expected, "{core}");
            }
            let mut h = fresh.clone();
            for _ in 0..1000 {
                h.update(&[b'a'; 1000]);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{core}: a million 'a'"
            );
        }
    }

    #[test]
    fn rfc_4231_hmac_vectors_hold_on_each_core() {
        let cases: [(&[u8], &[u8], &str); 3] = [
            (
                &[0x0b; 20],
                b"Hi There",
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe",
                b"what do ya want for nothing?",
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            // Case 6: a key longer than a block is hashed first.
            (
                &[0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First",
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
        ];
        for (core, fresh) in cores() {
            for (i, (key, message, expected)) in cases.iter().enumerate() {
                assert_eq!(hex(&hmac(&fresh, key, message)), *expected, "{core}, case {i}");
            }
        }
        assert_eq!(hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")), cases[1].2);
    }

    #[test]
    fn rfc_5869_hkdf_vectors_hold_on_each_core() {
        let case1 = (
            (0x00..=0x0c).collect::<Vec<u8>>(),
            vec![0x0b; 22],
            (0xf0..=0xf9).collect::<Vec<u8>>(),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865",
        );
        let case2 = (
            (0x60..=0xaf).collect(),
            (0x00..=0x4f).collect(),
            (0xb0..=0xff).collect(),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87",
        );
        // Empty salt and info.
        let case3 = (
            vec![],
            vec![0x0b; 22],
            vec![],
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8",
        );
        for (core, fresh) in cores() {
            for (i, (salt, ikm, info, expected)) in [&case1, &case2, &case3].iter().enumerate() {
                let okm = expand(&fresh, &hmac(&fresh, salt, ikm), info, expected.len() / 2);
                assert_eq!(hex(&okm), *expected, "{core}, case {}", i + 1);
            }
        }
        assert_eq!(hex(&hkdf(&case1.0, &case1.1, &case1.2, 42)), case1.3);
    }

    /// The hardware core takes every run of whole blocks in one call; these
    /// lengths reach a run of every size up to 17 blocks plus the 64- and
    /// 1024-block runs, each with every possible tail.
    #[test]
    fn cores_agree_at_every_length_and_split_point() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(27);
        let mut data = vec![0u8; 65_537];
        rng.fill(&mut data[..]);
        let cores = cores();
        let (_, portable) = &cores[0];
        for n in (0..=1100).chain([4095, 4096, 4097, 65_536, 65_537]) {
            let expected = digest(portable, &data[..n]);
            for (core, fresh) in &cores[1..] {
                assert_eq!(digest(fresh, &data[..n]), expected, "{core}, {n} bytes");
            }
        }
        for n in 0..=200 {
            let expected = digest(portable, &data[..n]);
            for split in 0..=n {
                for (core, fresh) in &cores {
                    let mut h = fresh.clone();
                    h.update(&data[..split]);
                    h.update(&data[split..n]);
                    assert_eq!(h.finalize(), expected, "{core}, {n} bytes split at {split}");
                }
            }
        }
    }

    /// Digests the portable core computed *before* the hardware core
    /// existed (recorded at the parent commit), so a host without the SHA
    /// extensions still pins the portable core and one with them pins both.
    #[test]
    fn golden_digests_from_the_former_portable_core() {
        const GOLDEN: [(usize, &str); 9] = [
            (55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"),
            (56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"),
            (63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"),
            (64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"),
            (65, "788367c73c7ddf4c53f65e68cc0d943e6227ab55b0e78ba63ace822b1c6301c0"),
            (119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"),
            (120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"),
            (4096, "d41d438c379110c7f7b2c561b1f04f26c1b4549110791f8e022f48974280c13e"),
            (65_537, "74f3260f4a9adaf7271c910ba2d111dbae7a176afb487e1b7f655897eadf1093"),
        ];
        for (core, fresh) in cores() {
            for (n, expected) in GOLDEN {
                let data: Vec<u8> = (0..n).map(|i| ((i * 31 + 7) % 256) as u8).collect();
                assert_eq!(hex(&digest(&fresh, &data)), expected, "{core}, {n} bytes");
            }
        }
    }

    #[test]
    fn derive_key32_domain_separation() {
        let a = derive_key32(b"secret", "file-key");
        let b = derive_key32(b"secret", "channel-key");
        assert_ne!(a, b);
        assert_eq!(a, derive_key32(b"secret", "file-key"));
    }

    #[test]
    fn hex_encoding() {
        assert_eq!(hex(&[0x00, 0xff, 0x10]), "00ff10");
        assert_eq!(hex(&[]), "");
    }
}
