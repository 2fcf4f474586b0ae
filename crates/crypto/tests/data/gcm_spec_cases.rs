// McGrew–Viega GCM-spec test cases, as hex: (case, key, iv, aad, plaintext,
// ciphertext, tag). `include!`d by `tests/gcm_vectors.rs` (public API) and by
// the unit tests of `src/gcm.rs` (each core separately).

const ZERO_IV: &str = "000000000000000000000000";
const ZERO_BLOCK: &str = "00000000000000000000000000000000";
const ZERO_KEY_256: &str = "0000000000000000000000000000000000000000000000000000000000000000";
const KEY_3: &str = "feffe9928665731c6d6a8f9467308308";
const KEY_15: &str = "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
const IV_3: &str = "cafebabefacedbaddecaf888";
const AAD_4: &str = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
/// 64 bytes: four whole blocks.
const PLAIN_3: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
/// 60 bytes: not a block multiple.
const PLAIN_4: &str = "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                       1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39";

const SPEC_CASES: [[&str; 7]; 8] = [
    ["TC1", ZERO_BLOCK, ZERO_IV, "", "", "", "58e2fccefa7e3061367f1d57a4e7455a"],
    [
        "TC2",
        ZERO_BLOCK,
        ZERO_IV,
        "",
        ZERO_BLOCK,
        "0388dace60b6a392f328c2b971b2fe78",
        "ab6e47d42cec13bdf53a67b21257bddf",
    ],
    [
        "TC3",
        KEY_3,
        IV_3,
        "",
        PLAIN_3,
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        "4d5c2af327cd64a62cf35abd2ba6fab4",
    ],
    [
        "TC4",
        KEY_3,
        IV_3,
        AAD_4,
        PLAIN_4,
        "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
         21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
        "5bc94fbc3221a5db94fae95ae7121a47",
    ],
    ["TC13", ZERO_KEY_256, ZERO_IV, "", "", "", "530f8afbc74536b9a963b4f1c4cb738b"],
    [
        "TC14",
        ZERO_KEY_256,
        ZERO_IV,
        "",
        ZERO_BLOCK,
        "cea7403d4d606b6e074ec5d3baf39d18",
        "d0d1c8a799996bf0265b98b5d48ab919",
    ],
    [
        "TC15",
        KEY_15,
        IV_3,
        "",
        PLAIN_3,
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad",
        "b094dac5d93471bdec1a502270e3cc6c",
    ],
    [
        "TC16",
        KEY_15,
        IV_3,
        AAD_4,
        PLAIN_4,
        "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa\
         8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662",
        "76fc6ece0f4e1768cddf8853bb2d551b",
    ],
];

fn unhex(s: &str) -> Vec<u8> {
    let digits = s.as_bytes().chunks_exact(2);
    assert!(digits.remainder().is_empty(), "odd hex length");
    digits
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).expect("ascii"), 16).expect("hex"))
        .collect()
}
