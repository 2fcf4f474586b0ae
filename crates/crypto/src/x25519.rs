//! X25519 Diffie-Hellman (RFC 7748) over Curve25519.
//!
//! The attested secure channels of the TEE substrate perform an ephemeral
//! X25519 handshake whose public keys are bound into the attestation
//! evidence (the RA-TLS pattern of Knauth et al., which the paper implements
//! "at the socket level"). Field arithmetic uses five 51-bit limbs held in
//! `u64`s with `u128` products — the standard radix-2^51 formulation, one
//! safe-Rust core on every target (~76 µs per scalar multiplication in a
//! release build on a 2.1 GHz x86-64 Xeon).

/// A Curve25519 field element in five limbs, radix 2^51. Every operation
/// returns it weakly reduced: each limb below 2^51 + 2^18.
#[derive(Clone, Copy, Debug)]
struct Fe([u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Loads the low 255 bits (bit 255 is ignored).
    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |i: usize| u64::from_le_bytes(bytes[i..i + 8].try_into().expect("sliced"));
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// The canonical encoding, in [0, p). Branch-free: `q` is 1 exactly
    /// when the weakly reduced value h is ≥ p (h + 19 reaches 2^255), and
    /// h + 19q with bit 255 dropped is h − qp.
    fn to_bytes(self) -> [u8; 32] {
        let mut h = self.carry().0;
        let mut q = (h[0] + 19) >> 51;
        for limb in &h[1..] {
            q = (limb + q) >> 51;
        }
        h[0] += 19 * q;
        for i in 0..4 {
            h[i + 1] += h[i] >> 51;
            h[i] &= MASK51;
        }
        h[4] &= MASK51;
        let words = [
            h[0] | (h[1] << 51),
            (h[1] >> 13) | (h[2] << 38),
            (h[2] >> 26) | (h[3] << 25),
            (h[3] >> 39) | (h[4] << 12),
        ];
        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// One weak carry pass: limbs below 2^54 come back below 2^51 + 2^18.
    fn carry(self) -> Fe {
        let mut h = self.0;
        for i in 0..4 {
            h[i + 1] += h[i] >> 51;
            h[i] &= MASK51;
        }
        h[0] += 19 * (h[4] >> 51);
        h[4] &= MASK51;
        Fe(h)
    }

    fn add(self, other: Fe) -> Fe {
        let (a, b) = (self.0, other.0);
        Fe([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]]).carry()
    }

    /// `self − other`, with 4p of slack added first so any weakly reduced
    /// subtrahend leaves every limb non-negative.
    fn sub(self, other: Fe) -> Fe {
        const FOUR_P: [u64; 5] =
            [4 * ((1 << 51) - 19), 4 * MASK51, 4 * MASK51, 4 * MASK51, 4 * MASK51];
        let (a, b) = (self.0, other.0);
        Fe(std::array::from_fn(|i| a[i] + FOUR_P[i] - b[i])).carry()
    }

    /// Folds five column sums below 2^110 back into limbs (2^255 ≡ 19).
    fn reduce_wide(c: [u128; 5]) -> Fe {
        let mut h = [0u64; 5];
        let mut carry = 0u128;
        for (limb, column) in h.iter_mut().zip(c) {
            let v = column + carry;
            *limb = v as u64 & MASK51;
            carry = v >> 51;
        }
        h[0] += 19 * carry as u64;
        h[1] += h[0] >> 51;
        h[0] &= MASK51;
        Fe(h)
    }

    /// 25 products, the 19·b terms folded in up front.
    fn mul(self, other: Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (b1_19, b2_19, b3_19, b4_19) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
        Fe::reduce_wide([
            m(a0, b0) + m(a1, b4_19) + m(a2, b3_19) + m(a3, b2_19) + m(a4, b1_19),
            m(a0, b1) + m(a1, b0) + m(a2, b4_19) + m(a3, b3_19) + m(a4, b2_19),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, b4_19) + m(a4, b3_19),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, b4_19),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// 15 products: each cross term once, doubled.
    fn square(self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let m = |x: u64, y: u64| x as u128 * y as u128;
        let (d0, d1, d2, d3) = (2 * a0, 2 * a1, 2 * a2, 2 * a3);
        let (a3_19, a4_19) = (19 * a3, 19 * a4);
        Fe::reduce_wide([
            m(a0, a0) + m(d1, a4_19) + m(d2, a3_19),
            m(d0, a1) + m(d2, a4_19) + m(a3, a3_19),
            m(d0, a2) + m(a1, a1) + m(d3, a4_19),
            m(d0, a3) + m(d1, a2) + m(a4, a4_19),
            m(d0, a4) + m(d1, a3) + m(a2, a2),
        ])
    }

    fn square_n(self, n: u32) -> Fe {
        (0..n).fold(self, |x, _| x.square())
    }

    fn mul_small(self, k: u32) -> Fe {
        Fe::reduce_wide(self.0.map(|limb| limb as u128 * k as u128))
    }

    /// Inversion via Fermat's little theorem, a^(p−2) with p − 2 =
    /// 2^255 − 21: the standard chain of 254 squarings and 11
    /// multiplications.
    fn invert(self) -> Fe {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(z2);
        let z_5 = z11.square().mul(z9); // z^(2^5 - 1)
        let z_10 = z_5.square_n(5).mul(z_5);
        let z_20 = z_10.square_n(10).mul(z_10);
        let z_40 = z_20.square_n(20).mul(z_20);
        let z_50 = z_40.square_n(10).mul(z_10);
        let z_100 = z_50.square_n(50).mul(z_50);
        let z_200 = z_100.square_n(100).mul(z_100);
        let z_250 = z_200.square_n(50).mul(z_50);
        z_250.square_n(5).mul(z11)
    }

    fn cswap(a: &mut Fe, b: &mut Fe, swap: u64) {
        let mask = 0u64.wrapping_sub(swap);
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }
}

/// Length of X25519 keys and shared secrets.
pub const KEY_LEN: usize = 32;

/// Clamps a 32-byte scalar per RFC 7748.
fn clamp(mut scalar: [u8; 32]) -> [u8; 32] {
    scalar[0] &= 248;
    scalar[31] &= 127;
    scalar[31] |= 64;
    scalar
}

/// The X25519 function: scalar multiplication on Curve25519.
///
/// `scalar` is clamped internally. Returns the shared point's u-coordinate.
pub fn x25519(scalar: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = clamp(*scalar);
    // Mask the top bit of u per RFC 7748.
    let mut u_bytes = *u;
    u_bytes[31] &= 127;
    let x1 = Fe::from_bytes(&u_bytes);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = ((k[t / 8] >> (t % 8)) & 1) as u64;
        swap ^= k_t;
        Fe::cswap(&mut x2, &mut x3, swap);
        Fe::cswap(&mut z2, &mut z3, swap);
        swap = k_t;

        let a = x2.add(z2);
        let aa = a.square();
        let b = x2.sub(z2);
        let bb = b.square();
        let e = aa.sub(bb);
        let c = x3.add(z3);
        let d = x3.sub(z3);
        let da = d.mul(a);
        let cb = c.mul(b);
        let t0 = da.add(cb);
        x3 = t0.square();
        let t1 = da.sub(cb);
        z3 = x1.mul(t1.square());
        x2 = aa.mul(bb);
        // z2 = E * (AA + a24 * E), a24 = 121665.
        z2 = e.mul(aa.add(e.mul_small(121_665)));
    }
    Fe::cswap(&mut x2, &mut x3, swap);
    Fe::cswap(&mut z2, &mut z3, swap);

    x2.mul(z2.invert()).to_bytes()
}

/// The canonical Curve25519 base point (u = 9).
pub const BASE_POINT: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

/// Computes the public key for a secret scalar.
pub fn public_key(secret: &[u8; 32]) -> [u8; 32] {
    x25519(secret, &BASE_POINT)
}

/// An ephemeral X25519 keypair.
#[derive(Clone)]
pub struct EphemeralKeypair {
    secret: [u8; 32],
    /// The public u-coordinate, safe to transmit.
    pub public: [u8; 32],
}

impl std::fmt::Debug for EphemeralKeypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EphemeralKeypair {{ public: {} }}", crate::sha256::hex(&self.public))
    }
}

impl EphemeralKeypair {
    /// Generates a fresh keypair from the CSPRNG.
    pub fn generate() -> Self {
        let secret: [u8; 32] = crate::random_array();
        let public = public_key(&secret);
        EphemeralKeypair { secret, public }
    }

    /// Creates a keypair from a fixed secret (for deterministic tests).
    pub fn from_secret(secret: [u8; 32]) -> Self {
        let public = public_key(&secret);
        EphemeralKeypair { secret, public }
    }

    /// Computes the shared secret with a peer public key.
    pub fn diffie_hellman(&self, peer_public: &[u8; 32]) -> [u8; 32] {
        x25519(&self.secret, peer_public)
    }

    /// [`diffie_hellman`](Self::diffie_hellman) for a key exchange that
    /// keys anything: rejects the all-zero secret a low-order peer point
    /// yields (RFC 7748 §6.1), which anyone could derive. Every byte is
    /// OR-folded, with no early exit.
    ///
    /// # Errors
    ///
    /// [`CryptoError::HandshakeFailed`](crate::CryptoError::HandshakeFailed)
    /// on a low-order peer point.
    pub fn agree(&self, peer_public: &[u8; 32]) -> crate::Result<[u8; 32]> {
        let shared = self.diffie_hellman(peer_public);
        if shared.iter().fold(0u8, |acc, b| acc | b) == 0 {
            return Err(crate::CryptoError::HandshakeFailed("low-order peer point".into()));
        }
        Ok(shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::{hex, sha256};

    fn from_hex(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..32 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    /// p + k for small k, as 32 little-endian bytes.
    fn p_plus(k: u8) -> [u8; 32] {
        let mut out = [0xffu8; 32];
        out[0] = 0xed + k;
        out[31] = 0x7f;
        out
    }

    #[test]
    fn rfc7748_vector_1() {
        let scalar = from_hex("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = from_hex("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&scalar, &u);
        assert_eq!(hex(&out), "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
    }

    #[test]
    fn rfc7748_vector_2() {
        let scalar = from_hex("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = from_hex("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(&scalar, &u);
        assert_eq!(hex(&out), "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
    }

    #[test]
    fn rfc7748_iterated_once() {
        // RFC 7748 §5.2: after one iteration of k = X25519(k, u) with
        // k = u = base point encoding.
        let mut k = BASE_POINT;
        let u = BASE_POINT;
        k = x25519(&k, &u);
        assert_eq!(hex(&k), "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
    }

    fn iterate(rounds: usize) -> [u8; 32] {
        let mut k = BASE_POINT;
        let mut u = BASE_POINT;
        for _ in 0..rounds {
            let next = x25519(&k, &u);
            u = k;
            k = next;
        }
        k
    }

    #[test]
    fn rfc7748_iterated_1000() {
        assert_eq!(
            hex(&iterate(1000)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    /// About a minute in release: `cargo test -p mvtee-crypto --release
    /// -- --ignored rfc7748`.
    #[test]
    #[ignore]
    fn rfc7748_iterated_1000000() {
        assert_eq!(
            hex(&iterate(1_000_000)),
            "7c3911e0ab2586fd864497297e575e6f3bc601c0883c30df5f4dd2d24f665424"
        );
    }

    #[test]
    fn rfc7748_diffie_hellman_vector() {
        // RFC 7748 §6.1.
        let alice = EphemeralKeypair::from_secret(from_hex(
            "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
        ));
        let bob = EphemeralKeypair::from_secret(from_hex(
            "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
        ));
        assert_eq!(
            hex(&alice.public),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        assert_eq!(
            hex(&bob.public),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
        assert_eq!(hex(&alice.agree(&bob.public).expect("full order")), shared);
        assert_eq!(hex(&bob.agree(&alice.public).expect("full order")), shared);
    }

    /// Outputs of the former ten-limb (radix 2^25.5) field, recorded before
    /// it was replaced: the new field must reproduce them byte for byte,
    /// non-canonical and small-order inputs included.
    #[test]
    fn matches_recorded_outputs() {
        let mut nine_top_bit = BASE_POINT;
        nine_top_bit[31] = 0x80;
        let mut one = [0u8; 32];
        one[0] = 1;
        let special = [
            [0u8; 32],
            one,
            BASE_POINT,
            from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // p − 1
            p_plus(0),
            p_plus(1),
            p_plus(18), // 2^255 − 1
            [0xff; 32], // 2^256 − 1: top bit set, and ≥ p once masked
            nine_top_bit,
        ];
        let pair = |i: u8| {
            let scalar = match i {
                0 => [0u8; 32],
                1 => [0xff; 32],
                2 => BASE_POINT,
                _ => sha256(&[b"x25519 golden scalar ".as_slice(), &[i]].concat()),
            };
            let u = special.get(i as usize).copied().unwrap_or_else(|| {
                let mut u = sha256(&[b"x25519 golden u ".as_slice(), &[i]].concat());
                u[31] |= (i % 2) << 7;
                u
            });
            (scalar, u)
        };
        const RECORDED: [&str; 32] = [
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "0000000000000000000000000000000000000000000000000000000000000000",
            "f3e3fb8d3cfd4f5c6089b929c66bdac2aeb8b8a2231260d7dd9e251e11742116",
            "dae47742d3ef1b2969a3a82a394722985c038e2a4fa0a5ed7e01cce45125095c",
            "9bd63ffcebe5bef5fc5c6f7d86f66e422d5593f1bad9eddf98aaa96ddf8e7a0e",
            "a67e5801f8b006339e4fce5c81bc6409edae20cd381e41b5888880cff4b15c5c",
            "9bd7d261374748d98fc97af081cbdf8ed0960fb00a9d92ce45ea6993ab22b07d",
            "2f5da9ff2d659578c7a37e1f65456096892bc287858aa664d2e9505211fc2c05",
            "a6558b44d73ce4d2bf539f9bf15b849fc1f1a99d4fc6e9c5be026aa9c08b2635",
            "18f0533ee85b345768225dc33af7c6b25c0d607d11bbec808d2188d181338003",
            "43086a2193a35e34993f4a77fea8fdf8b8ab25b3e54c62ac6e1a1bff609f4832",
            "06f6541e3e5e8386c3a339764dda9f38c2cf4c83c0a7d36de498bc2ade6dca2f",
            "9d88398bca4d29393b80c9e8394abe87c6c9ef85b0db375417878c1d3c632d47",
            "843383376ea57b8bf0b7bcb9911ee24806c811e7b0f764dd6156fb76da29d30c",
            "44ca54b3dbc8d10c37fffdbd2eb4a5113375c12d7028ae3bdf4a9fc086a03d73",
            "0db0d7df777b04a27e205e0e2bf661603e7522d9b9ea634168bb34ba4935a27d",
            "3573310535b7e0dc07b74ac0522fa9e8f6da379bd9e830cbbf641faadd075266",
            "fb688f1c623fc2dbfefe209b884fbae30543829984ec39a8360d78c129685c5b",
            "f5c69ba478346154288cd6cb79be80336eb4d5505b2a9f325891eb9611c1d237",
            "16772a9d7e3e4827139a004e6a6d1a3e3fa3ced98668954ff38c7419b55d8158",
            "eb84ebf9cd0ee8873513edd1fd6fc420e9d91ec078960acf58aa1ec7a3867248",
            "13848e3566a3b2e597b3e7c91f3e007ff51988abbcbb78bbf3a8f26702f0322a",
            "b474386e6496b6af5742becdc1235fb338e3f5fc8b92462a537bd463d6faf079",
            "f1aa5fbd077e95e6ca999b07014b5a68798f4ed7bd9fcd9af932c6645d030578",
            "462dc58331d092cd9356c5dd8d54a13ae0882dbab05adfbfdb69dd0e8de7991d",
            "9f73db1a31e99404f369b9cd8f1b529412b018a8fc174a5c8c9d29a485530b13",
            "c80467ce78ae6f43217b769cd1bb759a19711971fbdde1d423aab0f4bb19164a",
            "e34099b6d688458e8328c8abc8eaea618d2cfa8c4d8b2b955406e2349c81d878",
        ];
        for (i, expected) in (0u8..).zip(RECORDED) {
            let (scalar, u) = pair(i);
            assert_eq!(hex(&x25519(&scalar, &u)), expected, "pair {i}");
        }
    }

    #[test]
    fn diffie_hellman_agreement() {
        let alice = EphemeralKeypair::generate();
        let bob = EphemeralKeypair::generate();
        let s1 = alice.diffie_hellman(&bob.public);
        let s2 = bob.diffie_hellman(&alice.public);
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u8; 32]);
    }

    #[test]
    fn agree_rejects_low_order_points() {
        let mut one = [0u8; 32];
        one[0] = 1;
        let low_order = [
            [0u8; 32],
            one,
            from_hex("e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
            from_hex("5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
            from_hex("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"), // p − 1
            p_plus(0),
            p_plus(1),
        ];
        let kp = EphemeralKeypair::generate();
        for u in low_order {
            let err = kp.agree(&u).expect_err("a low-order point must be rejected");
            assert!(err.to_string().contains("low-order peer point"), "{}: {err}", hex(&u));
        }
        let peer = EphemeralKeypair::generate();
        assert_eq!(kp.agree(&peer.public), Ok(peer.diffie_hellman(&kp.public)));
    }

    #[test]
    fn distinct_keypairs_distinct_secrets() {
        let a = EphemeralKeypair::generate();
        let b = EphemeralKeypair::generate();
        assert_ne!(a.public, b.public);
        let c = EphemeralKeypair::generate();
        assert_ne!(a.diffie_hellman(&c.public), b.diffie_hellman(&c.public));
    }

    #[test]
    fn debug_hides_secret() {
        let kp = EphemeralKeypair::from_secret([0x42; 32]);
        let dbg = format!("{kp:?}");
        assert!(dbg.contains("public"));
        assert!(!dbg.contains("4242424242"), "secret must not appear: {dbg}");
    }

    #[test]
    fn field_invert() {
        let one = hex(&Fe::ONE.to_bytes());
        for i in 0u32..1000 {
            let a = Fe::from_bytes(&sha256(&i.to_le_bytes()));
            assert_eq!(hex(&a.mul(a.invert()).to_bytes()), one, "element {i}");
        }
    }

    #[test]
    fn to_bytes_is_canonical_above_p() {
        // Every value in [p, 2^255) is p + k for k < 19 and encodes as k.
        for k in 0u8..19 {
            let mut expected = [0u8; 32];
            expected[0] = k;
            assert_eq!(Fe::from_bytes(&p_plus(k)).to_bytes(), expected, "p + {k}");
        }
        // So does p + 2 with 2^51 moved from limb 1 down into limb 0.
        let unnormalized = Fe([MASK51 - 16 + (1 << 51), MASK51 - 1, MASK51, MASK51, MASK51]);
        let mut two = [0u8; 32];
        two[0] = 2;
        assert_eq!(unnormalized.to_bytes(), two);
    }
}
