//! AES-GCM against the published McGrew–Viega GCM-spec test cases: the
//! round-trip and tamper tests in `gcm.rs` pass for any self-consistent
//! GHASH, these pass only for the right one.

use mvtee_crypto::gcm::AesGcm;
use mvtee_crypto::sha256::hex;

fn unhex(s: &str) -> Vec<u8> {
    let digits = s.as_bytes().chunks_exact(2);
    assert!(digits.remainder().is_empty(), "odd hex length");
    digits
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).expect("ascii"), 16).expect("hex"))
        .collect()
}

/// `seal(iv, P, A)` must be `C ‖ T` exactly, and `open` must give `P` back.
fn check(case: &str, key: &str, iv: &str, aad: &str, plain: &str, cipher: &str, tag: &str) {
    let gcm = AesGcm::new(&unhex(key)).expect("key length");
    let iv: [u8; 12] = unhex(iv).try_into().expect("96-bit IV");
    let (aad, plain) = (unhex(aad), unhex(plain));
    let sealed = gcm.seal(&iv, &plain, &aad);
    assert_eq!(hex(&sealed), format!("{cipher}{tag}"), "{case}: seal");
    assert_eq!(gcm.open(&iv, &sealed, &aad).expect("authentic"), plain, "{case}: open");
}

const ZERO_IV: &str = "000000000000000000000000";
const ZERO_BLOCK: &str = "00000000000000000000000000000000";
const KEY_4: &str = "feffe9928665731c6d6a8f9467308308";
const IV_4: &str = "cafebabefacedbaddecaf888";
const AAD_4: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
/// 60 bytes: not a block multiple.
const PLAIN_4: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";

#[test]
fn aes128_test_cases_1_2_4() {
    check("TC1", ZERO_BLOCK, ZERO_IV, "", "", "", "58e2fccefa7e3061367f1d57a4e7455a");
    check(
        "TC2",
        ZERO_BLOCK,
        ZERO_IV,
        "",
        ZERO_BLOCK,
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    );
    check(
        "TC4",
        KEY_4,
        IV_4,
        AAD_4,
        PLAIN_4,
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    );
}

#[test]
fn aes256_test_cases_13_14_16() {
    let zero_key = ZERO_BLOCK.repeat(2);
    check("TC13", &zero_key, ZERO_IV, "", "", "", "530f8afbc74536b9a963b4f1c4cb738b");
    check(
        "TC14",
        &zero_key,
        ZERO_IV,
        "",
        ZERO_BLOCK,
        "cea7403d4d606b6e074ec5d3baf39d18",
        "d0d1c8a799996bf0265b98b5d48ab919",
    );
    check(
        "TC16",
        &KEY_4.repeat(2),
        IV_4,
        AAD_4,
        PLAIN_4,
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    );
}
