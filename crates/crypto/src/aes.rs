//! The AES block cipher (FIPS 197), supporting 128- and 256-bit keys.
//!
//! This is the portable block cipher behind [`crate::gcm::AesGcm`]: a
//! one-table T-box formulation, cross-checked in tests against a table-free
//! reference. On x86-64 hosts with AES-NI, `AesGcm` takes only the key
//! schedule from here and runs the rounds in hardware. No other mode is
//! exposed.

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// The AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 15] = [
    0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36, 0x6c, 0xd8, 0xab, 0x4d, 0x9a,
];

#[cfg(test)]
fn xtime(x: u8) -> u8 {
    (x << 1) ^ (if x & 0x80 != 0 { 0x1b } else { 0x00 })
}

#[cfg(test)]
fn mul(x: u8, y: u8) -> u8 {
    // GF(2^8) multiply, used by MixColumns (y is 1, 2 or 3 there).
    let mut acc = 0u8;
    let mut a = x;
    let mut b = y;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    acc
}

/// An AES key schedule ready for encryption.
///
/// Only the *encrypt* direction is implemented: GCM is a CTR-based mode and
/// never needs the inverse cipher. Block encryption uses the classic
/// T-table formulation (one 256-entry table plus rotations): the
/// throughput class of table-driven software AES, roughly twenty times
/// slower than the AES instructions the hardware GCM core uses.
#[derive(Clone)]
pub struct Aes {
    /// Byte-wise round keys: what the hardware GCM core loads, and what the
    /// reference (table-free) path that cross-validates the T-table path
    /// in tests runs on.
    round_keys: Vec<[u8; 16]>,
    round_key_words: Vec<[u32; 4]>,
    rounds: usize,
}

/// The combined SubBytes+MixColumns table: `Te0[x] = (2·S, S, S, 3·S)`
/// packed big-endian.
static TE0: [u32; 256] = build_te0();

const fn build_te0() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i] as u32;
        let s2 = ((s << 1) ^ (if s & 0x80 != 0 { 0x1b } else { 0 })) & 0xff;
        let s3 = s2 ^ s;
        table[i] = (s2 << 24) | (s << 16) | (s << 8) | s3;
        i += 1;
    }
    table
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Aes {{ rounds: {} }}", self.rounds)
    }
}

impl Aes {
    /// Expands a 128-bit key.
    pub fn new_128(key: &[u8; 16]) -> Self {
        Self::expand(key, 4, 10)
    }

    /// Expands a 256-bit key.
    pub fn new_256(key: &[u8; 32]) -> Self {
        Self::expand(key, 8, 14)
    }

    /// Expands a key of 16 or 32 bytes.
    ///
    /// # Errors
    ///
    /// Returns [`crate::CryptoError::InvalidKeyLength`] for other lengths.
    pub fn new(key: &[u8]) -> crate::Result<Self> {
        match key.len() {
            16 => {
                let mut k = [0u8; 16];
                k.copy_from_slice(key);
                Ok(Self::new_128(&k))
            }
            32 => {
                let mut k = [0u8; 32];
                k.copy_from_slice(key);
                Ok(Self::new_256(&k))
            }
            len => Err(crate::CryptoError::InvalidKeyLength { len }),
        }
    }

    fn expand(key: &[u8], nk: usize, rounds: usize) -> Self {
        let total_words = 4 * (rounds + 1);
        let mut w: Vec<[u8; 4]> = Vec::with_capacity(total_words);
        for i in 0..nk {
            w.push([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        for i in nk..total_words {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / nk - 1];
            } else if nk > 6 && i % nk == 4 {
                for b in &mut temp {
                    *b = SBOX[*b as usize];
                }
            }
            let prev = w[i - nk];
            w.push([
                prev[0] ^ temp[0],
                prev[1] ^ temp[1],
                prev[2] ^ temp[2],
                prev[3] ^ temp[3],
            ]);
        }
        let mut round_keys = Vec::with_capacity(rounds + 1);
        let mut round_key_words = Vec::with_capacity(rounds + 1);
        for r in 0..=rounds {
            let mut rk = [0u8; 16];
            let mut rkw = [0u32; 4];
            for c in 0..4 {
                rk[4 * c..4 * c + 4].copy_from_slice(&w[4 * r + c]);
                rkw[c] = u32::from_be_bytes(w[4 * r + c]);
            }
            round_keys.push(rk);
            round_key_words.push(rkw);
        }
        Aes { round_keys, round_key_words, rounds }
    }

    /// The expanded key, one 16-byte round key per round plus the initial
    /// one (11 for AES-128, 15 for AES-256).
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    pub(crate) fn round_keys(&self) -> &[[u8; 16]] {
        &self.round_keys
    }

    /// Encrypts a single 16-byte block in place (T-table fast path).
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        let mut s = [0u32; 4];
        for c in 0..4 {
            s[c] = u32::from_be_bytes(block[4 * c..4 * c + 4].try_into().expect("sliced"))
                ^ self.round_key_words[0][c];
        }
        for r in 1..self.rounds {
            let rk = &self.round_key_words[r];
            let mut t = [0u32; 4];
            for c in 0..4 {
                t[c] = TE0[(s[c] >> 24) as usize]
                    ^ TE0[((s[(c + 1) & 3] >> 16) & 0xff) as usize].rotate_right(8)
                    ^ TE0[((s[(c + 2) & 3] >> 8) & 0xff) as usize].rotate_right(16)
                    ^ TE0[(s[(c + 3) & 3] & 0xff) as usize].rotate_right(24)
                    ^ rk[c];
            }
            s = t;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let rk = &self.round_key_words[self.rounds];
        let mut out = [0u32; 4];
        for c in 0..4 {
            out[c] = ((SBOX[(s[c] >> 24) as usize] as u32) << 24)
                | ((SBOX[((s[(c + 1) & 3] >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[((s[(c + 2) & 3] >> 8) & 0xff) as usize] as u32) << 8)
                | (SBOX[(s[(c + 3) & 3] & 0xff) as usize] as u32);
            out[c] ^= rk[c];
        }
        for c in 0..4 {
            block[4 * c..4 * c + 4].copy_from_slice(&out[c].to_be_bytes());
        }
    }

    /// Reference (table-free) block encryption, kept for cross-validation
    /// in tests.
    #[cfg(test)]
    fn encrypt_block_reference(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[0]);
        for r in 1..self.rounds {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[r]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[self.rounds]);
    }

    /// Encrypts a block and returns the result.
    pub fn encrypt(&self, block: &[u8; BLOCK_LEN]) -> [u8; BLOCK_LEN] {
        let mut out = *block;
        self.encrypt_block(&mut out);
        out
    }
}

#[cfg(test)]
fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= rk[i];
    }
}

#[cfg(test)]
fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

#[cfg(test)]
fn shift_rows(state: &mut [u8; 16]) {
    // State is column-major: state[4*c + r].
    let s = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = s[4 * ((c + r) % 4) + r];
        }
    }
}

#[cfg(test)]
fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [state[4 * c], state[4 * c + 1], state[4 * c + 2], state[4 * c + 3]];
        state[4 * c] = mul(col[0], 2) ^ mul(col[1], 3) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ mul(col[1], 2) ^ mul(col[2], 3) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ mul(col[2], 2) ^ mul(col[3], 3);
        state[4 * c + 3] = mul(col[0], 3) ^ col[1] ^ col[2] ^ mul(col[3], 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::hex;

    #[test]
    fn fips197_aes128_example() {
        // FIPS 197 Appendix C.1.
        let key: [u8; 16] = (0x00..=0x0f).collect::<Vec<u8>>().try_into().unwrap();
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes::new_128(&key);
        assert_eq!(hex(&aes.encrypt(&pt)), "69c4e0d86a7b0430d8cdb78070b4c55a");
    }

    #[test]
    fn fips197_aes256_example() {
        // FIPS 197 Appendix C.3.
        let key: [u8; 32] = (0x00..=0x1f).collect::<Vec<u8>>().try_into().unwrap();
        let pt: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let aes = Aes::new_256(&key);
        assert_eq!(hex(&aes.encrypt(&pt)), "8ea2b7ca516745bfeafc49904b496089");
    }

    #[test]
    fn aes128_all_zero_vector() {
        // Well-known NIST vector: AES-128(key=0, pt=0).
        let aes = Aes::new_128(&[0u8; 16]);
        assert_eq!(hex(&aes.encrypt(&[0u8; 16])), "66e94bd4ef8a2c3b884cfa59ca342b2e");
    }

    #[test]
    fn new_validates_key_length() {
        assert!(Aes::new(&[0u8; 16]).is_ok());
        assert!(Aes::new(&[0u8; 32]).is_ok());
        assert!(matches!(
            Aes::new(&[0u8; 24]),
            Err(crate::CryptoError::InvalidKeyLength { len: 24 })
        ));
    }

    #[test]
    fn encrypt_is_deterministic_and_key_dependent() {
        let a = Aes::new_128(&[1u8; 16]);
        let b = Aes::new_128(&[2u8; 16]);
        let pt = [7u8; 16];
        assert_eq!(a.encrypt(&pt), a.encrypt(&pt));
        assert_ne!(a.encrypt(&pt), b.encrypt(&pt));
    }

    #[test]
    fn table_path_matches_reference_path() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..50 {
            let mut key = [0u8; 32];
            rng.fill(&mut key);
            let mut block = [0u8; 16];
            rng.fill(&mut block);
            let aes = Aes::new_256(&key);
            let mut fast = block;
            let mut slow = block;
            aes.encrypt_block(&mut fast);
            aes.encrypt_block_reference(&mut slow);
            assert_eq!(fast, slow);
            let aes128 = Aes::new_128(&key[..16].try_into().unwrap());
            let mut fast = block;
            let mut slow = block;
            aes128.encrypt_block(&mut fast);
            aes128.encrypt_block_reference(&mut slow);
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn debug_hides_keys() {
        let a = Aes::new_128(&[9u8; 16]);
        let s = format!("{a:?}");
        assert!(!s.contains('9'), "debug output must not leak key bytes: {s}");
        assert!(s.contains("rounds"));
    }
}
