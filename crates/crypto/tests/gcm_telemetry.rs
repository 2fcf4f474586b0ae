//! Exact deltas on the process-global telemetry registry: an integration
//! test has the process to itself, so no sibling test seals or opens
//! while the counts are read.

use mvtee_crypto::gcm::{AesGcm, NONCE_LEN};

#[test]
fn seal_open_latency_lands_in_the_size_bucket() {
    let cipher = AesGcm::new_256(&[8u8; 32]);
    let nonce = [3u8; NONCE_LEN];
    let small = vec![0u8; 100];
    let large = vec![0u8; 70_000];
    let count = |name: &str| {
        mvtee_telemetry::snapshot().histograms.get(name).map_or(0, |h| h.count)
    };
    let (s0, l0, o0) = (
        count("crypto.seal_ns.le_1k"),
        count("crypto.seal_ns.le_1m"),
        count("crypto.open_ns.le_1k"),
    );
    let sealed = cipher.seal(&nonce, &small, b"");
    cipher.seal(&nonce, &large, b"");
    cipher.open(&nonce, &sealed, b"").unwrap();
    assert_eq!(count("crypto.seal_ns.le_1k") - s0, 1);
    assert_eq!(count("crypto.seal_ns.le_1m") - l0, 1);
    assert_eq!(count("crypto.open_ns.le_1k") - o0, 1);
    // A rejected open is cancelled, not recorded.
    let mut bad = sealed.clone();
    bad[0] ^= 1;
    let before = count("crypto.open_ns.le_1k");
    assert!(cipher.open(&nonce, &bad, b"").is_err());
    assert_eq!(count("crypto.open_ns.le_1k"), before);
}
