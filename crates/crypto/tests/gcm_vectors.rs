//! AES-GCM against the published McGrew–Viega GCM-spec test cases: the
//! round-trip and tamper tests in `gcm.rs` pass for any self-consistent
//! GHASH, these pass only for the right one. This file goes through the
//! public API, so it checks the core this host selects; the unit tests of
//! `gcm.rs` run the same cases on each core by name.

use mvtee_crypto::gcm::AesGcm;
use mvtee_crypto::sha256::hex;

include!("data/gcm_spec_cases.rs");

/// `seal(iv, P, A)` must be `C ‖ T` exactly, and `open` must give `P` back.
#[test]
fn spec_test_cases_1_to_4_and_13_to_16() {
    for [case, key, iv, aad, plain, cipher, tag] in SPEC_CASES {
        let gcm = AesGcm::new(&unhex(key)).expect("key length");
        let iv: [u8; 12] = unhex(iv).try_into().expect("96-bit IV");
        let (aad, plain) = (unhex(aad), unhex(plain));
        let sealed = gcm.seal(&iv, &plain, &aad);
        assert_eq!(hex(&sealed), format!("{cipher}{tag}"), "{case}: seal");
        assert_eq!(gcm.open(&iv, &sealed, &aad).expect("authentic"), plain, "{case}: open");
    }
}
