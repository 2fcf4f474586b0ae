//! The provisioning wire protocol on [`LANE_PROVISION`].
//!
//! A tenant opens a [`SecureChannel`] on the provisioning lane of an
//! already-attested connection and drives `Begin → Push×N → Finalize`.
//! Every request gets exactly one reply, so the protocol is lock-step and
//! a torn connection leaves the registry in a resumable state. Rejections
//! carry the rendered [`RegistryError`] string, so
//! the tenant learns *which* chunk failed and why without the registry
//! leaking anything about other tenants' content.
//!
//! [`LANE_PROVISION`]: mvtee_crypto::mux::LANE_PROVISION
//! [`SecureChannel`]: mvtee_crypto::channel::SecureChannel

use mvtee_codec::Bytes;
use mvtee_crypto::channel::{FrameTransport, SecureChannel};
use mvtee_crypto::sha256::sha256;
use mvtee_crypto::random_array;
use mvtee_graph::zoo::Model;
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex};

use crate::blob::encode_model;
use crate::error::{RegistryError, Result};
use crate::framing::{seal_all, UploadManifest, DEFAULT_CHUNK_LEN};
use crate::registry::{Registered, Registry};

/// Tenant → registry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProvisionRequest {
    /// Declare an upload (or ask to resume / dedup one).
    Begin(UploadManifest),
    /// One sealed chunk.
    Push {
        /// Upload handle from `Begun`.
        upload_id: u64,
        /// Chunk index.
        index: u64,
        /// Chunk-layer AEAD ciphertext.
        sealed: Bytes,
    },
    /// Commit the upload.
    Finalize {
        /// Upload handle from `Begun`.
        upload_id: u64,
        /// SHA-256 the tenant computed over its plaintext.
        digest: [u8; 32],
        /// Answer to a dedup admission's proof-of-possession challenge
        /// ([`pop_response`](crate::registry::pop_response) over the
        /// plaintext); `None` for ordinary uploads.
        pop: Option<[u8; 32]>,
    },
    /// Drop a pending upload, freeing its slot (a tenant that knows it
    /// will not finish should abort rather than leave a torn upload to
    /// age out).
    Abort {
        /// Upload handle from `Begun`.
        upload_id: u64,
    },
    /// Orderly end of the session.
    End,
}

/// Registry → tenant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ProvisionReply {
    /// Upload admitted.
    Begun {
        /// Handle for subsequent requests.
        upload_id: u64,
        /// First chunk index expected (resume/dedup skip ahead).
        resume_from: u64,
        /// Proof-of-possession challenge on dedup admissions; `Finalize`
        /// must answer it.
        challenge: Option<[u8; 32]>,
    },
    /// Chunk verified and appended.
    ChunkOk {
        /// The verified index.
        index: u64,
    },
    /// Pending upload dropped.
    Aborted {
        /// The dropped upload's handle.
        upload_id: u64,
    },
    /// Upload committed.
    Finalized {
        /// Content address the model is stored under.
        fingerprint: u64,
        /// Whether the bundle already existed.
        dedup: bool,
    },
    /// Request rejected; the rendered registry error.
    Rejected {
        /// Why (rendered [`RegistryError`]).
        error: String,
    },
    /// Session closing.
    Bye,
}

fn send_msg<T: FrameTransport, M: Serialize>(chan: &mut SecureChannel<T>, msg: &M) -> Result<()> {
    let bytes = mvtee_codec::to_bytes(msg).map_err(|e| RegistryError::Channel(e.to_string()))?;
    chan.send(&bytes).map_err(|e| RegistryError::Channel(format!("{e:?}")))
}

fn recv_msg<T: FrameTransport, M: for<'de> Deserialize<'de>>(chan: &mut SecureChannel<T>) -> Result<M> {
    let bytes = chan.recv().map_err(|e| RegistryError::Channel(format!("{e:?}")))?;
    mvtee_codec::from_bytes(&bytes).map_err(|e| RegistryError::Channel(e.to_string()))
}

/// Serves one provisioning session: a lock-step request/reply loop until
/// `End` or disconnect. Rejected requests do not end the session — the
/// tenant may retry or abandon; a disconnect leaves torn uploads
/// resumable.
///
/// # Errors
///
/// Only transport-level failures other than an orderly/abrupt peer
/// disconnect surface; protocol rejections are replied, not returned.
pub fn serve_provisioning<T: FrameTransport>(
    registry: &Arc<Mutex<Registry>>,
    chan: &mut SecureChannel<T>,
) -> Result<()> {
    loop {
        let req: ProvisionRequest = match recv_msg(chan) {
            Ok(req) => req,
            // Peer gone (orderly close or torn connection): uploads stay
            // pending for resume.
            Err(_) => return Ok(()),
        };
        let reply = match req {
            ProvisionRequest::Begin(manifest) => {
                let admitted = registry.lock().expect("registry lock").begin(manifest);
                match admitted {
                    Ok(a) => ProvisionReply::Begun {
                        upload_id: a.upload_id,
                        resume_from: a.resume_from,
                        challenge: a.challenge,
                    },
                    Err(e) => ProvisionReply::Rejected { error: e.to_string() },
                }
            }
            ProvisionRequest::Push { upload_id, index, sealed } => {
                match registry.lock().expect("registry lock").push(upload_id, index, &sealed.0) {
                    Ok(()) => ProvisionReply::ChunkOk { index },
                    Err(e) => ProvisionReply::Rejected { error: e.to_string() },
                }
            }
            ProvisionRequest::Finalize { upload_id, digest, pop } => {
                match registry.lock().expect("registry lock").finalize(upload_id, digest, pop) {
                    Ok(Registered { fingerprint, dedup }) => ProvisionReply::Finalized { fingerprint, dedup },
                    Err(e) => ProvisionReply::Rejected { error: e.to_string() },
                }
            }
            ProvisionRequest::Abort { upload_id } => {
                match registry.lock().expect("registry lock").abort(upload_id) {
                    Ok(()) => ProvisionReply::Aborted { upload_id },
                    Err(e) => ProvisionReply::Rejected { error: e.to_string() },
                }
            }
            ProvisionRequest::End => {
                let _ = send_msg(chan, &ProvisionReply::Bye);
                return Ok(());
            }
        };
        send_msg(chan, &reply)?;
    }
}

/// What a completed upload reports back to the tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UploadOutcome {
    /// Content address the model is stored under.
    pub fingerprint: u64,
    /// Whether the registry already had the content.
    pub dedup: bool,
    /// Chunk index the upload started from (non-zero = resumed).
    pub resumed_from: u64,
    /// Sealed bytes actually sent.
    pub bytes_sent: u64,
}

/// Builds the manifest + sealed chunk stream for a model without touching
/// a channel — the unit fault-injection campaigns mutate this before
/// driving [`drive_upload`].
#[derive(Debug, Clone)]
pub struct PreparedUpload {
    /// The manifest the tenant will declare.
    pub manifest: UploadManifest,
    /// Chunk-layer ciphertext, in order.
    pub chunks: Vec<Vec<u8>>,
}

/// Serializes, addresses and seals `model` for upload under `name`.
///
/// # Errors
///
/// Propagates encode failures (a zoo model always encodes).
pub fn prepare_upload(model: &Model, name: &str, chunk_len: usize) -> Result<PreparedUpload> {
    let (bytes, fingerprint, digest) = encode_model(model)?;
    let manifest = UploadManifest {
        model_name: name.to_string(),
        fingerprint,
        digest,
        total_len: bytes.len() as u64,
        chunk_len: chunk_len.max(1) as u32,
        upload_key: random_array(),
        nonce_seed: u32::from_le_bytes(random_array::<4>()),
    };
    let chunks = seal_all(&manifest, &bytes);
    // Recompute as a self-check: the digest in the manifest is what the
    // registry will verify against.
    debug_assert_eq!(sha256(&bytes), manifest.digest);
    Ok(PreparedUpload { manifest, chunks })
}

/// Drives a prepared upload over a channel: `Begin`, `Push` from the
/// admitted resume point, `Finalize`.
///
/// # Errors
///
/// [`RegistryError::Channel`] on transport failure; the registry's own
/// rejection (parsed back from the rendered string is not attempted —
/// the raw message is preserved) as [`RegistryError::Channel`] with the
/// `rejected:` prefix stripped into the message.
pub fn drive_upload<T: FrameTransport>(
    chan: &mut SecureChannel<T>,
    upload: &PreparedUpload,
) -> Result<UploadOutcome> {
    send_msg(chan, &ProvisionRequest::Begin(upload.manifest.clone()))?;
    let (upload_id, resume_from, challenge) = match recv_msg(chan)? {
        ProvisionReply::Begun { upload_id, resume_from, challenge } => {
            (upload_id, resume_from, challenge)
        }
        ProvisionReply::Rejected { error } => return Err(RegistryError::Channel(error)),
        other => return Err(RegistryError::Channel(format!("unexpected reply {other:?}"))),
    };
    let mut bytes_sent = 0u64;
    for (i, sealed) in upload.chunks.iter().enumerate().skip(resume_from as usize) {
        bytes_sent += sealed.len() as u64;
        send_msg(
            chan,
            &ProvisionRequest::Push { upload_id, index: i as u64, sealed: Bytes(sealed.clone()) },
        )?;
        match recv_msg(chan)? {
            ProvisionReply::ChunkOk { index } if index == i as u64 => {}
            ProvisionReply::Rejected { error } => return Err(RegistryError::Channel(error)),
            other => return Err(RegistryError::Channel(format!("unexpected reply {other:?}"))),
        }
    }
    // A dedup admission challenges us to prove we actually hold the
    // content; answer over our own plaintext.
    let pop = match challenge {
        Some(c) => Some(prove_possession(upload, &c)?),
        None => None,
    };
    send_msg(
        chan,
        &ProvisionRequest::Finalize { upload_id, digest: upload.manifest.digest, pop },
    )?;
    match recv_msg(chan)? {
        ProvisionReply::Finalized { fingerprint, dedup } => {
            Ok(UploadOutcome { fingerprint, dedup, resumed_from: resume_from, bytes_sent })
        }
        ProvisionReply::Rejected { error } => Err(RegistryError::Channel(error)),
        other => Err(RegistryError::Channel(format!("unexpected reply {other:?}"))),
    }
}

/// Answers a dedup proof-of-possession challenge from the tenant's own
/// prepared upload: the sealed chunks are opened back to plaintext (the
/// tenant holds the chunk key) and hashed under the challenge.
///
/// # Errors
///
/// The chunk-layer errors of [`open_chunk`](crate::framing::open_chunk)
/// if the prepared chunks were mutated since sealing.
pub fn prove_possession(upload: &PreparedUpload, challenge: &[u8; 32]) -> Result<[u8; 32]> {
    let cipher = upload.manifest.cipher();
    let mut plain = Vec::with_capacity(upload.manifest.total_len as usize);
    for (i, sealed) in upload.chunks.iter().enumerate() {
        plain.extend(crate::framing::open_chunk(&cipher, &upload.manifest, i as u64, sealed)?);
    }
    Ok(crate::registry::pop_response(challenge, &plain))
}

/// Drops a pending upload the tenant will not finish.
///
/// # Errors
///
/// [`RegistryError::Channel`] on transport failure or a rejected abort
/// (unknown upload id).
pub fn abort_upload<T: FrameTransport>(
    chan: &mut SecureChannel<T>,
    upload_id: u64,
) -> Result<()> {
    send_msg(chan, &ProvisionRequest::Abort { upload_id })?;
    match recv_msg(chan)? {
        ProvisionReply::Aborted { .. } => Ok(()),
        ProvisionReply::Rejected { error } => Err(RegistryError::Channel(error)),
        other => Err(RegistryError::Channel(format!("unexpected reply {other:?}"))),
    }
}

/// One-call happy path: prepare and drive an upload.
///
/// # Errors
///
/// As [`prepare_upload`] and [`drive_upload`].
pub fn upload_model<T: FrameTransport>(
    chan: &mut SecureChannel<T>,
    model: &Model,
    name: &str,
) -> Result<UploadOutcome> {
    let prepared = prepare_upload(model, name, DEFAULT_CHUNK_LEN)?;
    drive_upload(chan, &prepared)
}

/// Sends the orderly session end.
///
/// # Errors
///
/// Transport failures only.
pub fn end_session<T: FrameTransport>(chan: &mut SecureChannel<T>) -> Result<()> {
    send_msg(chan, &ProvisionRequest::End)?;
    // Bye may race a dropped server; ignore its loss.
    let _: std::result::Result<ProvisionReply, _> = recv_msg(chan);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::RegistryConfig;
    use mvtee_crypto::channel::{memory_pair, Handshake, Role};
    use mvtee_crypto::mux::{split, LANE_PROVISION};
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use proptest::prelude::*;

    fn channel_pair() -> (SecureChannel<mvtee_crypto::mux::MuxLane>, SecureChannel<mvtee_crypto::mux::MuxLane>) {
        let (a, b) = memory_pair();
        let mut lanes_a = split(a, &[LANE_PROVISION]);
        let mut lanes_b = split(b, &[LANE_PROVISION]);
        let hs_a = Handshake::from_pre_shared(b"registry-test", Role::Initiator);
        let hs_b = Handshake::from_pre_shared(b"registry-test", Role::Responder);
        (
            SecureChannel::new(lanes_a.remove(0), &hs_a, u32::from(LANE_PROVISION)),
            SecureChannel::new(lanes_b.remove(0), &hs_b, u32::from(LANE_PROVISION)),
        )
    }

    #[test]
    fn upload_over_the_lane_and_checkout() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let registry = Arc::new(Mutex::new(Registry::new([2u8; 32], RegistryConfig::default())));
        let (mut tenant, mut server) = channel_pair();
        let reg = Arc::clone(&registry);
        let srv = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
        let outcome = upload_model(&mut tenant, &model, "zoo/mnasnet").unwrap();
        end_session(&mut tenant).unwrap();
        srv.join().unwrap().unwrap();
        assert!(!outcome.dedup);
        assert_eq!(outcome.resumed_from, 0);
        let back = registry.lock().unwrap().checkout_named("zoo/mnasnet").unwrap();
        assert_eq!(back.kind, model.kind);
    }

    #[test]
    fn abort_frees_the_pending_slot_over_the_lane() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let registry = Arc::new(Mutex::new(Registry::new([2u8; 32], RegistryConfig::default())));
        let (mut tenant, mut server) = channel_pair();
        let reg = Arc::clone(&registry);
        let srv = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
        let prepared = prepare_upload(&model, "zoo/aborted", 1024).unwrap();
        send_msg(&mut tenant, &ProvisionRequest::Begin(prepared.manifest.clone())).unwrap();
        let upload_id = match recv_msg(&mut tenant).unwrap() {
            ProvisionReply::Begun { upload_id, .. } => upload_id,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(registry.lock().unwrap().pending(), 1);
        abort_upload(&mut tenant, upload_id).unwrap();
        assert_eq!(registry.lock().unwrap().pending(), 0);
        // Aborting again names the unknown upload.
        let err = abort_upload(&mut tenant, upload_id).unwrap_err();
        assert!(err.to_string().contains("no pending upload"), "got: {err}");
        end_session(&mut tenant).unwrap();
        srv.join().unwrap().unwrap();
    }

    #[test]
    fn dedup_over_the_lane_answers_the_possession_challenge() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let registry = Arc::new(Mutex::new(Registry::new([2u8; 32], RegistryConfig::default())));
        let (mut tenant, mut server) = channel_pair();
        let reg = Arc::clone(&registry);
        let srv = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
        upload_model(&mut tenant, &model, "tenant-a/model").unwrap();
        // Second tenant, same content: drive_upload answers the dedup
        // challenge from its own plaintext.
        let outcome = upload_model(&mut tenant, &model, "tenant-b/model").unwrap();
        assert!(outcome.dedup);
        end_session(&mut tenant).unwrap();
        srv.join().unwrap().unwrap();
        assert_eq!(registry.lock().unwrap().stored(), 1);
        assert!(registry.lock().unwrap().checkout_named("tenant-b/model").is_ok());
    }

    // Both ends of the provisioning lane decode what the other sent: a
    // tenant's requests reach the registry, the registry's replies reach
    // a tenant, and neither may be able to crash the other.

    fn manifest() -> UploadManifest {
        UploadManifest {
            model_name: "tenant/model".into(),
            fingerprint: 0xfeed,
            digest: [1; 32],
            total_len: 3000,
            chunk_len: 1024,
            upload_key: [2; 32],
            nonce_seed: 9,
        }
    }

    /// Bytes in the chunk of [`push`].
    const CHUNK: usize = 40;

    fn push() -> ProvisionRequest {
        ProvisionRequest::Push { upload_id: 4, index: 2, sealed: Bytes((0..CHUNK as u8).collect()) }
    }

    /// Valid encodings of every request and reply.
    fn valid_encodings() -> Vec<Vec<u8>> {
        let requests = [
            ProvisionRequest::Begin(manifest()),
            push(),
            ProvisionRequest::Finalize { upload_id: 4, digest: [6; 32], pop: Some([7; 32]) },
            ProvisionRequest::Abort { upload_id: 4 },
            ProvisionRequest::End,
        ];
        let replies = [
            ProvisionReply::Begun { upload_id: 4, resume_from: 1, challenge: Some([8; 32]) },
            ProvisionReply::ChunkOk { index: 2 },
            ProvisionReply::Aborted { upload_id: 4 },
            ProvisionReply::Finalized { fingerprint: 0xfeed, dedup: true },
            ProvisionReply::Rejected { error: "no".into() },
            ProvisionReply::Bye,
        ];
        let requests = requests.iter().map(|m| mvtee_codec::to_bytes(m).unwrap());
        let replies = replies.iter().map(|m| mvtee_codec::to_bytes(m).unwrap());
        requests.chain(replies).collect()
    }

    /// `Ok` or `Err`, never a panic, as either side decodes.
    fn decode_as_either(bytes: &[u8]) {
        let _ = mvtee_codec::from_bytes::<ProvisionRequest>(bytes);
        let _ = mvtee_codec::from_bytes::<ProvisionReply>(bytes);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn arbitrary_bytes_never_panic_a_provisioning_decoder(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            decode_as_either(&bytes);
        }

        #[test]
        fn mutated_provisioning_messages_never_panic_the_decoder(
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
            decode_as_either(&bytes);
        }
    }

    /// A hostile length prefix in front of a pushed chunk is refused
    /// before anything is reserved for it.
    #[test]
    fn huge_chunk_length_prefix_is_an_error_not_an_allocation() {
        let mut hostile = mvtee_codec::to_bytes(&push()).unwrap();
        // The message ends with the chunk: its length, then its bytes.
        let at = hostile.len() - CHUNK - 8;
        assert_eq!(hostile[at..at + 8], (CHUNK as u64).to_le_bytes());
        hostile[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(mvtee_codec::from_bytes::<ProvisionRequest>(&hostile).is_err());
    }

    /// As recorded while `sealed` was still a `Vec<u8>`: the switch to
    /// [`Bytes`] changed no wire byte.
    #[test]
    fn push_kept_its_wire_encoding() {
        assert_eq!(
            mvtee_crypto::sha256::hex(&mvtee_codec::to_bytes(&push()).unwrap()),
            "01000000040000000000000002000000000000002800000000000000000102030405060708090a0b\
             0c0d0e0f101112131415161718191a1b1c1d1e1f2021222324252627"
        );
    }

    #[test]
    fn rejected_uploads_report_the_precise_error() {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 4).unwrap();
        let registry = Arc::new(Mutex::new(Registry::new([2u8; 32], RegistryConfig::default())));
        let (mut tenant, mut server) = channel_pair();
        let reg = Arc::clone(&registry);
        let srv = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
        let mut prepared = prepare_upload(&model, "zoo/mnasnet", 1024).unwrap();
        prepared.chunks[1][0] ^= 0x40;
        let err = drive_upload(&mut tenant, &prepared).unwrap_err();
        assert!(err.to_string().contains("chunk 1 failed AEAD authentication"), "got: {err}");
        end_session(&mut tenant).unwrap();
        srv.join().unwrap().unwrap();
        assert_eq!(registry.lock().unwrap().stored(), 0);
    }
}
