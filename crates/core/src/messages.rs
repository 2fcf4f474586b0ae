//! Wire protocol between the monitor TEE and variant TEEs.
//!
//! Two phases share the transports: the bootstrap/attestation protocol of
//! Fig 6 (plaintext transport + report-bound DH handshake) and the data
//! plane (encrypted, sequence-numbered frames carrying checkpoint
//! tensors). All messages are encoded with `mvtee-codec`.

use mvtee_codec::Bytes;
use mvtee_tee::AttestationReport;
use mvtee_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Monitor → init-variant bootstrap messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BootstrapRequest {
    /// Step ②/⑤ of Fig 6: challenge with a fresh nonce.
    Challenge {
        /// Anti-replay nonce the report must bind.
        nonce: [u8; 32],
        /// The monitor's ephemeral X25519 public key.
        monitor_dh_public: [u8; 32],
    },
    /// Step ⑤: key + identity release, sealed under the session key
    /// (`payload = seal(KeyRelease)`).
    SealedKeyRelease {
        /// AES-GCM-256-sealed [`KeyRelease`] (nonce ‖ ciphertext ‖ tag).
        payload: Bytes,
    },
}

/// The plaintext of the sealed key-release message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KeyRelease {
    /// The variant-specific key-derivation key.
    pub variant_key: [u8; 32],
    /// The assigned variant identifier.
    pub variant_id: u64,
    /// Path of the sealed bundle on the variant's host storage.
    pub bundle_path: String,
    /// Expected hash of the second-stage manifest the variant must
    /// install (from the offline tool).
    pub expected_manifest_hash: [u8; 32],
}

/// Init-variant → monitor bootstrap messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum BootstrapResponse {
    /// Reply to a challenge: attestation report binding
    /// `H(nonce) ‖ H(dh_publics)` plus the variant's DH public key.
    Evidence {
        /// The hardware-signed report.
        report: AttestationReport,
        /// The variant's ephemeral X25519 public key.
        variant_dh_public: [u8; 32],
    },
    /// Step ⑥: manifest installed, exec'd; evidence of the enforced
    /// second-stage manifest, sealed under the session key.
    SealedInstallEvidence {
        /// AES-GCM-256-sealed [`InstallEvidence`].
        payload: Bytes,
    },
    /// Bootstrap failed on the variant side.
    Failed {
        /// Reason.
        reason: String,
    },
}

/// The plaintext of the sealed install-evidence message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstallEvidence {
    /// Variant id echoed back.
    pub variant_id: u64,
    /// Hash of the now-enforced second-stage manifest.
    pub manifest_hash: [u8; 32],
    /// Post-exec enclave measurement.
    pub measurement: [u8; 32],
}

/// Data-plane message from a stage coordinator to a variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageRequest {
    /// Run inference on one batch.
    Input {
        /// Monotone batch id.
        batch: u64,
        /// Propagated trace context as a raw `(trace, span)` pair
        /// (`(0, 0)` when tracing is off); see
        /// [`mvtee_telemetry::trace::TraceCtx`].
        trace: (u64, u64),
        /// Input tensors in the partition subgraph's input order.
        tensors: Vec<Tensor>,
    },
    /// Terminate the variant TEE.
    Shutdown,
}

/// Data-plane message from a variant back to its stage coordinator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StageResponse {
    /// Inference result for a batch.
    Output {
        /// Batch id echoed back.
        batch: u64,
        /// Output tensors in the subgraph's output order.
        tensors: Vec<Tensor>,
    },
    /// The variant crashed while processing a batch (the process would be
    /// dead; the message models the monitor's crash observation).
    Crashed {
        /// Batch id that triggered the crash.
        batch: u64,
        /// Reason string.
        reason: String,
    },
}

/// Derives the bootstrap session secret from the DH shared secret and the
/// challenge nonce. Both protocol sides call this one function so the
/// derivation can never drift apart.
pub fn bootstrap_session_secret(shared: &[u8; 32], nonce: &[u8; 32]) -> [u8; 32] {
    let mut ikm = Vec::with_capacity(64);
    ikm.extend_from_slice(shared);
    ikm.extend_from_slice(nonce);
    mvtee_crypto::sha256::derive_key32(&ikm, "mvtee-bootstrap-session")
}

/// The handshake transcript hash binding both DH public keys
/// (monitor-first order), mirrored by both protocol sides.
pub fn bootstrap_transcript_hash(monitor_pub: &[u8; 32], variant_pub: &[u8; 32]) -> [u8; 32] {
    let mut transcript = Vec::with_capacity(64);
    transcript.extend_from_slice(monitor_pub);
    transcript.extend_from_slice(variant_pub);
    mvtee_crypto::sha256::sha256(&transcript)
}

/// Encodes any protocol message.
pub fn encode<T: Serialize>(msg: &T) -> crate::Result<Vec<u8>> {
    mvtee_codec::to_bytes(msg).map_err(|e| crate::MvxError::Codec(e.to_string()))
}

/// Decodes any protocol message.
pub fn decode<T: serde::de::DeserializeOwned>(bytes: &[u8]) -> crate::Result<T> {
    mvtee_codec::from_bytes(bytes).map_err(|e| crate::MvxError::Codec(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::WorkerPlacement;
    use mvtee_tee::{CodeIdentity, Enclave, Manifest, Platform, TeeKind};
    use proptest::prelude::*;

    #[test]
    fn bootstrap_messages_round_trip() {
        let req = BootstrapRequest::Challenge {
            nonce: [7u8; 32],
            monitor_dh_public: [9u8; 32],
        };
        let bytes = encode(&req).unwrap();
        assert_eq!(decode::<BootstrapRequest>(&bytes).unwrap(), req);

        let release = KeyRelease {
            variant_key: [1u8; 32],
            variant_id: 42,
            bundle_path: "/enc/p2/v1".into(),
            expected_manifest_hash: [3u8; 32],
        };
        let bytes = encode(&release).unwrap();
        assert_eq!(decode::<KeyRelease>(&bytes).unwrap(), release);
    }

    #[test]
    fn stage_messages_round_trip() {
        let msg = stage_input();
        let bytes = encode(&msg).unwrap();
        assert_eq!(decode::<StageRequest>(&bytes).unwrap(), msg);

        let resp = StageResponse::Crashed { batch: 9, reason: "CVE".into() };
        let bytes = encode(&resp).unwrap();
        assert_eq!(decode::<StageResponse>(&bytes).unwrap(), resp);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode::<StageRequest>(b"nope").is_err());
    }

    // The first frame on a worker's bootstrap lane comes from the
    // *untrusted* orchestrator, the bootstrap exchange runs over a
    // plaintext transport, and a data lane's far end may be a compromised
    // variant holding valid channel keys: none of it may be able to crash
    // the peer.

    fn placement() -> WorkerPlacement {
        WorkerPlacement {
            partition: 1,
            variant_index: 2,
            tee_kind: TeeKind::Sgx,
            platform_root: [7u8; 32],
            init_code: Bytes(b"mvtee init-variant binary v1.0".to_vec()),
            init_manifest: Manifest::init_variant("init-p1-v2"),
            bundle_path: "/enc/p1/v2".into(),
            sealed_salt: [9u8; 16],
            sealed_blob: Bytes((0..200).collect()),
            encrypt: true,
            heartbeat_interval_ms: 100,
        }
    }

    /// Valid encodings of every message type a bootstrap or data lane
    /// carries.
    fn valid_encodings() -> Vec<Vec<u8>> {
        let enclave = Enclave::launch(
            TeeKind::Sgx,
            CodeIdentity::from_content("mvtee-init-variant", "1.0", b"init"),
            Manifest::init_variant("init"),
            Platform::new(),
        );
        vec![
            encode(&placement()).unwrap(),
            encode(&BootstrapRequest::Challenge { nonce: [1; 32], monitor_dh_public: [2; 32] })
                .unwrap(),
            encode(&BootstrapRequest::SealedKeyRelease { payload: Bytes(vec![3; 60]) }).unwrap(),
            encode(&BootstrapResponse::Evidence {
                report: enclave.report_for_channel(&[4; 32], &[5; 32]),
                variant_dh_public: [6; 32],
            })
            .unwrap(),
            encode(&BootstrapResponse::SealedInstallEvidence { payload: Bytes(vec![7; 90]) })
                .unwrap(),
            encode(&BootstrapResponse::Failed { reason: "no".into() }).unwrap(),
            encode(&stage_input()).unwrap(),
            encode(&StageRequest::Shutdown).unwrap(),
            encode(&stage_output()).unwrap(),
            encode(&StageResponse::Crashed { batch: 9, reason: "CVE".into() }).unwrap(),
        ]
    }

    fn stage_input() -> StageRequest {
        StageRequest::Input {
            batch: 9,
            trace: (0xfeed, 0xbeef),
            tensors: vec![Tensor::ones(&[2, 3]), Tensor::zeros(&[1])],
        }
    }

    fn stage_output() -> StageResponse {
        StageResponse::Output { batch: 9, tensors: vec![Tensor::ones(&[4, 2])] }
    }

    /// `Ok` or `Err`, never a panic, as each type a lane decodes.
    fn decode_as_every_type(bytes: &[u8]) {
        let _ = decode::<WorkerPlacement>(bytes);
        let _ = decode::<BootstrapRequest>(bytes);
        let _ = decode::<BootstrapResponse>(bytes);
        let _ = decode::<StageRequest>(bytes);
        let _ = decode::<StageResponse>(bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_a_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            decode_as_every_type(&bytes);
        }

        #[test]
        fn mutated_messages_never_panic_the_decoder(
            which in any::<proptest::sample::Index>(),
            edits in proptest::collection::vec((any::<proptest::sample::Index>(), any::<u8>()), 1..=8),
            cut in proptest::option::of(any::<proptest::sample::Index>()),
        ) {
            let valid = valid_encodings();
            let mut bytes = valid[which.index(valid.len())].clone();
            match cut {
                Some(at) => bytes.truncate(at.index(bytes.len())),
                None => {
                    for (at, byte) in edits {
                        let at = at.index(bytes.len());
                        bytes[at] = byte;
                    }
                }
            }
            decode_as_every_type(&bytes);
        }
    }

    /// A hostile length prefix is refused before anything is reserved for
    /// it (reserving `u64::MAX` bytes would abort the process).
    #[test]
    fn huge_length_prefix_is_an_error_not_an_allocation() {
        let placement = placement();
        let bytes = encode(&placement).unwrap();
        for Bytes(field) in [&placement.init_code, &placement.sealed_blob] {
            let mut prefixed = (field.len() as u64).to_le_bytes().to_vec();
            prefixed.extend_from_slice(field);
            let at = bytes
                .windows(prefixed.len())
                .position(|w| w == prefixed)
                .expect("length-prefixed field");
            let mut hostile = bytes.clone();
            hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(decode::<WorkerPlacement>(&hostile).is_err());
        }
        // The same in front of a tensor's `data` on a data lane: the
        // message ends with the 8 floats of its one tensor.
        let mut hostile = encode(&stage_output()).unwrap();
        let at = hostile.len() - 8 * 4 - 8;
        assert_eq!(hostile[at..at + 8], 8u64.to_le_bytes());
        hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode::<StageResponse>(&hostile).is_err());
    }

    /// The encodings of the messages that carry [`Bytes`], as recorded
    /// while those fields were still `Vec<u8>`: the switch changed no wire
    /// byte.
    #[test]
    fn byte_buffer_fields_kept_their_wire_encoding() {
        let placement = WorkerPlacement {
            partition: 1,
            variant_index: 2,
            tee_kind: TeeKind::Sgx,
            platform_root: [7u8; 32],
            init_code: Bytes(b"mvtee init-variant".to_vec()),
            init_manifest: Manifest::new("init"),
            bundle_path: "/enc/p1/v2".into(),
            sealed_salt: [9u8; 16],
            sealed_blob: Bytes((0..48).collect()),
            encrypt: true,
            heartbeat_interval_ms: 100,
        };
        assert_eq!(
            mvtee_crypto::sha256::hex(&encode(&placement).unwrap()),
            "01000000000000000200000000000000000000000707070707070707070707070707070707070707\
             07070707070707070707070712000000000000006d7674656520696e69742d76617269616e740400\
             000000000000696e6974000000000000000000000000000000000000000000000000000000000000\
             000000000a000000000000002f656e632f70312f7632090909090909090909090909090909093000\
             000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f2021\
             22232425262728292a2b2c2d2e2f016400000000000000"
        );
        let release = BootstrapRequest::SealedKeyRelease { payload: Bytes((0..60).collect()) };
        assert_eq!(
            mvtee_crypto::sha256::hex(&encode(&release).unwrap()),
            "010000003c00000000000000000102030405060708090a0b0c0d0e0f101112131415161718191a1b\
             1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b"
        );
        let evidence =
            BootstrapResponse::SealedInstallEvidence { payload: Bytes((100..190).collect()) };
        assert_eq!(
            mvtee_crypto::sha256::hex(&encode(&evidence).unwrap()),
            "010000005a000000000000006465666768696a6b6c6d6e6f707172737475767778797a7b7c7d7e7f\
             808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9fa0a1a2a3a4a5a6a7\
             a8a9aaabacadaeafb0b1b2b3b4b5b6b7b8b9babbbcbd"
        );
    }
}
