//! The allocation half of the parser sweep: decoding attacker-controlled
//! bytes as a message that carries bulk bytes allocates at most
//! 2 × input length + 4 KiB at its peak, whatever the bytes claim.
//!
//! The types are the ones whose bytes arrive from outside a TEE: a
//! tenant's [`ProvisionRequest`] and the registry's [`ProvisionReply`],
//! the untrusted orchestrator's [`WorkerPlacement`], the host-stored
//! [`SealedVariantPayload`], the bootstrap frames between monitor and
//! variant host — [`BootstrapRequest`], [`BootstrapResponse`] and the
//! sealed [`KeyRelease`] and [`InstallEvidence`] inside them — and the
//! data-plane frames every checkpoint carries, [`StageRequest`] and the
//! [`StageResponse`] a compromised variant writes. Under all of them
//! lies the TCP framing, whose 4-byte length prefix anyone who dials a
//! listener may send. A counting global allocator tracks this thread's
//! live heap, so the tests in this binary may run in parallel.
//!
//! One shape is costlier, though still linear: a [`Manifest`] set of many
//! distinct short names costs about 40 bytes of B-tree node per name
//! encoded in about 10, so a message that is mostly such a set peaks near
//! 5 × its length (the last test pins it).

use mvtee::messages::{
    decode, encode, BootstrapRequest, BootstrapResponse, InstallEvidence, KeyRelease,
    StageRequest, StageResponse,
};
use mvtee::variant_host::SealedVariantPayload;
use mvtee::WorkerPlacement;
use mvtee_codec::Bytes;
use mvtee_crypto::channel::FrameTransport;
use mvtee_crypto::tcp::{bind_loopback, TcpTransport, MAX_FRAME_LEN};
use mvtee_registry::framing::UploadManifest;
use mvtee_registry::protocol::{ProvisionReply, ProvisionRequest};
use mvtee_tee::{CodeIdentity, Enclave, Manifest, Platform, TeeKind};
use mvtee_tensor::Tensor;
use proptest::prelude::*;
use proptest::sample::Index;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::net::TcpStream;

thread_local! {
    /// Bytes this thread holds on the heap, since the last [`peak_of`].
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` reached since the last [`peak_of`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` to this thread's live heap. Const-initialised, drop-free
/// thread-locals never allocate, so the allocator may touch them.
fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

struct Counting;

// SAFETY: every operation is the system allocator's, unchanged; the
// bookkeeping only updates this thread's plain counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most heap `f` held at once beyond what was live before it,
/// including what it returns (dropped only after the measurement).
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    let value = f();
    let peak = PEAK.with(Cell::get);
    drop(value);
    peak.max(0) as usize
}

/// Decodes `bytes` as each type, checking the bound on every attempt.
fn assert_decodes_within_bound(bytes: &[u8]) {
    let bound = 2 * bytes.len() + 4096;
    let peaks = [
        ("ProvisionRequest", peak_of(|| decode::<ProvisionRequest>(bytes))),
        ("WorkerPlacement", peak_of(|| decode::<WorkerPlacement>(bytes))),
        ("SealedVariantPayload", peak_of(|| decode::<SealedVariantPayload>(bytes))),
        ("BootstrapRequest", peak_of(|| decode::<BootstrapRequest>(bytes))),
        ("BootstrapResponse", peak_of(|| decode::<BootstrapResponse>(bytes))),
        ("KeyRelease", peak_of(|| decode::<KeyRelease>(bytes))),
        ("InstallEvidence", peak_of(|| decode::<InstallEvidence>(bytes))),
        ("ProvisionReply", peak_of(|| decode::<ProvisionReply>(bytes))),
        ("StageRequest", peak_of(|| decode::<StageRequest>(bytes))),
        ("StageResponse", peak_of(|| decode::<StageResponse>(bytes))),
    ];
    for (name, peak) in peaks {
        assert!(peak <= bound, "{name}: peak {peak} B for {} input bytes", bytes.len());
    }
}

fn pattern(n: usize) -> Vec<u8> {
    (0..n).map(|i| (i * 31 + 7) as u8).collect()
}

/// Valid encodings of every variant of the ten types, bulk fields up to
/// a few kilobytes long.
fn valid_encodings() -> Vec<Vec<u8>> {
    let manifest = UploadManifest {
        model_name: "tenant/model".into(),
        fingerprint: 0xfeed,
        digest: [1; 32],
        total_len: 9000,
        chunk_len: 4096,
        upload_key: [2; 32],
        nonce_seed: 9,
    };
    let requests = [
        ProvisionRequest::Begin(manifest),
        ProvisionRequest::Push { upload_id: 4, index: 2, sealed: Bytes(pattern(4112)) },
        ProvisionRequest::Finalize { upload_id: 4, digest: [6; 32], pop: Some([7; 32]) },
        ProvisionRequest::Abort { upload_id: 4 },
        ProvisionRequest::End,
    ];
    let placement = WorkerPlacement {
        partition: 1,
        variant_index: 2,
        tee_kind: TeeKind::Tdx,
        platform_root: [7; 32],
        init_code: Bytes(pattern(300)),
        init_manifest: Manifest::init_variant("init-p1-v2"),
        bundle_path: "/enc/p1/v2".into(),
        sealed_salt: [9; 16],
        sealed_blob: Bytes(pattern(6000)),
        encrypt: true,
        heartbeat_interval_ms: 100,
    };
    let payload = SealedVariantPayload {
        manifest: Manifest::main_variant("main"),
        bundle: Bytes(pattern(5000)),
    };
    let mut out: Vec<Vec<u8>> = requests.iter().map(|r| encode(r).unwrap()).collect();
    out.push(encode(&placement).unwrap());
    out.push(encode(&payload).unwrap());
    let enclave = Enclave::launch(
        TeeKind::Sgx,
        CodeIdentity::from_content("mvtee-init-variant", "1.0", &pattern(300)),
        Manifest::init_variant("init-p1-v2"),
        Platform::new(),
    );
    let evidence = BootstrapResponse::Evidence {
        report: enclave.report_for_channel(&[5; 32], &[6; 32]),
        variant_dh_public: [7; 32],
    };
    let release = KeyRelease {
        variant_key: [8; 32],
        variant_id: 1002,
        bundle_path: "/enc/p1/v2".into(),
        expected_manifest_hash: [9; 32],
    };
    let installed =
        InstallEvidence { variant_id: 1002, manifest_hash: [9; 32], measurement: [10; 32] };
    out.push(
        encode(&BootstrapRequest::Challenge { nonce: [3; 32], monitor_dh_public: [4; 32] })
            .unwrap(),
    );
    out.push(encode(&BootstrapRequest::SealedKeyRelease { payload: Bytes(pattern(700)) }).unwrap());
    out.push(encode(&evidence).unwrap());
    out.push(
        encode(&BootstrapResponse::SealedInstallEvidence { payload: Bytes(pattern(900)) }).unwrap(),
    );
    out.push(encode(&BootstrapResponse::Failed { reason: "expected key release".into() }).unwrap());
    out.push(encode(&release).unwrap());
    out.push(encode(&installed).unwrap());
    let replies = [
        ProvisionReply::Begun { upload_id: 4, resume_from: 2, challenge: Some([8; 32]) },
        ProvisionReply::Begun { upload_id: 4, resume_from: 0, challenge: None },
        ProvisionReply::ChunkOk { index: 3 },
        ProvisionReply::Aborted { upload_id: 4 },
        ProvisionReply::Finalized { fingerprint: 0xfeed, dedup: true },
        ProvisionReply::Rejected { error: "chunk 3 failed authentication".into() },
        ProvisionReply::Bye,
    ];
    out.extend(replies.iter().map(|r| encode(r).unwrap()));
    out.push(
        encode(&StageRequest::Input { batch: 7, trace: (1, 2), tensors: stage_tensors() })
            .unwrap(),
    );
    out.push(encode(&StageRequest::Shutdown).unwrap());
    out.push(encode(&StageResponse::Output { batch: 7, tensors: stage_tensors() }).unwrap());
    out.push(encode(&StageResponse::Crashed { batch: 7, reason: "segfault".into() }).unwrap());
    out
}

/// A checkpoint's boundary tensors: an activation map and a small matrix.
fn stage_tensors() -> Vec<Tensor> {
    let plane = (0..3 * 8 * 8).map(|i| i as f32 / 7.0).collect();
    vec![
        Tensor::from_vec(plane, &[1, 3, 8, 8]).unwrap(),
        Tensor::from_vec(vec![0.5; 10], &[2, 5]).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_decode_within_the_bound(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        assert_decodes_within_bound(&bytes);
    }

    /// Byte edits, cuts, and 8-byte windows overwritten with a length
    /// anywhere from 0 to past the end — the prefixes a hostile peer
    /// would forge.
    #[test]
    fn mutated_messages_decode_within_the_bound(
        which in any::<Index>(),
        edits in proptest::collection::vec((any::<Index>(), any::<u8>()), 0..=8),
        prefix in proptest::option::of((any::<Index>(), any::<u64>(), any::<bool>())),
        cut in proptest::option::of(any::<Index>()),
    ) {
        let valid = valid_encodings();
        let mut bytes = valid[which.index(valid.len())].clone();
        for (at, byte) in edits {
            let at = at.index(bytes.len());
            bytes[at] = byte;
        }
        if let Some((at, len, huge)) = prefix.filter(|_| bytes.len() >= 8) {
            let at = at.index(bytes.len() - 7);
            let len = if huge { len } else { len % (bytes.len() as u64 + 16) };
            bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
        }
        if let Some(at) = cut {
            bytes.truncate(at.index(bytes.len()));
        }
        assert_decodes_within_bound(&bytes);
    }
}

/// Every valid encoding decodes within the bound, and so does each with a
/// `u64::MAX` length in front of its bulk bytes — refused before anything
/// is reserved.
#[test]
fn valid_and_u64_max_prefixed_messages_decode_within_the_bound() {
    // The counter sees the decoder's allocations: a chunk costs at least
    // its own bytes.
    let push = ProvisionRequest::Push { upload_id: 1, index: 0, sealed: Bytes(pattern(4112)) };
    assert!(peak_of(|| decode::<ProvisionRequest>(&encode(&push).unwrap())) >= 4112);
    let mut prefixes = 0;
    for bytes in valid_encodings() {
        assert_decodes_within_bound(&bytes);
        // A bulk field is a run of pattern bytes with its length in the
        // eight bytes before it.
        for n in [4112, 6000, 5000, 300, 700, 900] {
            let field = pattern(n);
            let Some(at) = bytes.windows(n).position(|w| w == field) else { continue };
            if bytes[at - 8..at] != (n as u64).to_le_bytes() {
                continue;
            }
            prefixes += 1;
            let mut hostile = bytes.clone();
            hostile[at - 8..at].copy_from_slice(&u64::MAX.to_le_bytes());
            assert!(decode::<ProvisionRequest>(&hostile).is_err());
            assert!(decode::<WorkerPlacement>(&hostile).is_err());
            assert!(decode::<SealedVariantPayload>(&hostile).is_err());
            assert!(decode::<BootstrapRequest>(&hostile).is_err());
            assert!(decode::<BootstrapResponse>(&hostile).is_err());
            assert_decodes_within_bound(&hostile);
        }
    }
    // `sealed`, `sealed_blob`, `init_code`, `bundle` and the two sealed
    // bootstrap payloads.
    assert_eq!(prefixes, 6);
}

/// A data-plane frame whose tensor `dims` lie: their product overflows a
/// `usize`, or names far more elements than the data that follows. The
/// decoder refuses each without reserving for the claim, and so do frames
/// whose tensor count, dims count or data length is `u64::MAX`.
#[test]
fn hostile_tensor_frames_decode_within_the_bound() {
    let request = encode(&StageRequest::Input { batch: 7, trace: (1, 2), tensors: stage_tensors() })
        .unwrap();
    let response = encode(&StageResponse::Output { batch: 7, tensors: stage_tensors() }).unwrap();
    let words = |values: &[u64]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    // The first tensor's dims, with their count in front.
    let dims = words(&[4, 1, 3, 8, 8]);
    let hostile_dims: [&[u64]; 4] = [
        &[4, u64::MAX, 3, 8, 8],
        &[4, 1 << 32, 1 << 32, 8, 8],
        &[4, 1 << 20, 1 << 20, 8, 8],
        &[4, 1, 3, 8, 9],
    ];
    for frame in [&request, &response] {
        let at = frame.windows(dims.len()).position(|w| w == dims).expect("dims are encoded");
        for lie in hostile_dims {
            let mut hostile = frame.clone();
            hostile[at..at + dims.len()].copy_from_slice(&words(lie));
            assert!(decode::<StageRequest>(&hostile).is_err(), "{lie:?}");
            assert!(decode::<StageResponse>(&hostile).is_err(), "{lie:?}");
            assert_decodes_within_bound(&hostile);
        }
        // `u64::MAX`, and as many as there are bytes left, as the tensor
        // count (the eight bytes before the dims), the dims count, and the
        // data length (after the dims).
        for len_at in [at - 8, at, at + dims.len()] {
            for claim in [u64::MAX, (frame.len() - len_at - 8) as u64] {
                let mut hostile = frame.clone();
                hostile[len_at..len_at + 8].copy_from_slice(&claim.to_le_bytes());
                assert!(decode::<StageRequest>(&hostile).is_err());
                assert!(decode::<StageResponse>(&hostile).is_err());
                assert_decodes_within_bound(&hostile);
            }
        }
    }
}

/// A `StageResponse` whose tensor data claims an element count the frame
/// cannot back: `u64::MAX`, `u64::MAX / 4 + 1` (whose byte length
/// overflows a `u64`), and exactly one element more than the bytes left.
/// Tensor data crosses the codec in bulk, so the count is held against the
/// input before anything is reserved: each claim is refused, without a
/// panic, within the bound. Both tensors' counts are tried; the last
/// tensor's bytes end the frame.
#[test]
fn hostile_element_counts_decode_within_the_bound() {
    let response = encode(&StageResponse::Output { batch: 7, tensors: stage_tensors() }).unwrap();
    let words = |values: &[u64]| -> Vec<u8> { values.iter().flat_map(|v| v.to_le_bytes()).collect() };
    // Each tensor's dims with their count in front, then its element count.
    for (dims, count) in [(words(&[4, 1, 3, 8, 8, 3 * 8 * 8]), 3 * 8 * 8), (words(&[2, 2, 5, 10]), 10)] {
        let at = response.windows(dims.len()).position(|w| w == dims).expect("dims are encoded");
        let count_at = at + dims.len() - 8;
        let left = response.len() - count_at - 8;
        assert!(left >= 4 * count);
        for claim in [u64::MAX, u64::MAX / 4 + 1, (left / 4 + 1) as u64] {
            let mut hostile = response.clone();
            hostile[count_at..count_at + 8].copy_from_slice(&claim.to_le_bytes());
            assert!(decode::<StageResponse>(&hostile).is_err(), "{claim}");
            assert_decodes_within_bound(&hostile);
        }
    }
}

/// The costly shape: a manifest set of `n` distinct short names, as the
/// untrusted orchestrator could send in a placement.
#[test]
fn hostile_manifest_sets_stay_linear() {
    for n in [100, 1000, 5000] {
        let mut manifest = Manifest::new("m");
        manifest.encrypted_files.extend((0..n).map(|i| format!("{i:x}")));
        let payload = SealedVariantPayload { manifest, bundle: Bytes(Vec::new()) };
        let bytes = encode(&payload).unwrap();
        let peak = peak_of(|| decode::<SealedVariantPayload>(&bytes));
        assert!(peak <= 6 * bytes.len() + 4096, "{n} names: peak {peak} B for {} B", bytes.len());
    }
}

/// A peer that dials a listener, sends a `MAX_FRAME_LEN` length prefix and
/// maybe part of the frame, then hangs up. The receive fails, and its
/// buffer grew with the bytes that arrived, not with the prefix's claim.
#[test]
fn a_hostile_tcp_length_prefix_allocates_by_the_bytes_sent() {
    for body in [0, 1000, 10_000] {
        let (listener, port) = bind_loopback().unwrap();
        let mut peer = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let transport = TcpTransport::accept(&listener).unwrap();
        let mut sent = (MAX_FRAME_LEN as u32).to_be_bytes().to_vec();
        sent.extend(pattern(body));
        peer.write_all(&sent).unwrap();
        drop(peer);
        let mut received = None;
        let peak = peak_of(|| received = Some(transport.recv_frame()));
        assert!(received.is_some_and(|r| r.is_err()), "a cut-off frame must fail");
        let bound = 2 * sent.len() + 4096;
        assert!(peak <= bound, "peak {peak} B after {} B sent", sent.len());
    }
}
