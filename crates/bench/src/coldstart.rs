//! The `coldstart` experiment: encrypted model registry provisioning and
//! multi-model cold-start serving (`mvtee-registry` + `mvtee-serve`).
//!
//! The experiment provisions a population of zoo models as chunked
//! AES-GCM ciphertext over the attested [`LANE_PROVISION`] mux lane into
//! a content-addressed sealed store, then serves them through the
//! frontend's on-demand cold-start path, holding the run to the registry
//! invariants:
//!
//! * **No plaintext on the host** — a 64-byte needle cut from each
//!   model's plaintext encoding must never appear in the recorded wire
//!   frames or in the sealed store's host-visible bytes.
//! * **Every provisioning fault detected** — a seeded sweep over the
//!   [`ProvisionFault`] descriptor space (corrupt / truncated / dropped /
//!   reordered chunks, fingerprint lies) must reject each corruption
//!   before anything reaches the store, and torn uploads must resume
//!   from exactly their last verified chunk.
//! * **Byte-identical cold start** — a deployment built from the sealed
//!   registry bundle must produce outputs *and* a rendered audit
//!   transcript byte-identical to a deployment built from the in-memory
//!   model, and every served cold-start response must match the serial
//!   reference bit-for-bit.
//! * **Saturation sheds, not queues** — with the registry's pending
//!   slots exhausted, an unknown-key submission must shed
//!   [`ShedReason::ColdStart`] at the door.
//!
//! Results land in `BENCH_registry.json` (per-model sizes and identity
//! verdicts, fault tallies, warm-vs-cold hit ratio, eviction counts).
//! Upload throughput and time-to-first-inference are the benchmark's
//! `upload_mb_s`, `setup_s`, `registry.upload_mb_s.{mem,tcp}` and
//! `registry.checkout_ms` rows, not measured here.
//!
//! [`LANE_PROVISION`]: mvtee_crypto::mux::LANE_PROVISION
//! [`ProvisionFault`]: mvtee_faults::ProvisionFault
//! [`ShedReason::ColdStart`]: mvtee_serve::ShedReason::ColdStart

use crate::cli::{CommonArgs, Outcome};
use crate::fixture::{self, Json};
use mvtee::deployment::{Deployment, DeploymentBuilder};
use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use mvtee_crypto::mux::{split, MuxLane, LANE_PROVISION};
use mvtee_faults::ProvisionFault;
use mvtee_graph::zoo::{self, Model, ModelKind, ScaleProfile};
use mvtee_registry::{
    drive_upload, encode_model, end_session, prepare_upload, serve_provisioning, upload_model,
    PreparedUpload, ProvisionReply, ProvisionRequest, Registry, RegistryConfig, UploadManifest,
};
use mvtee_serve::{
    ColdStartProvider, QueueStats, ReplicaPool, RequestOutcome, ServeConfig, ServeFrontend,
    ShedReason,
};
use mvtee_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Chunk length the uploads use — small enough that every Test-scale
/// model spans several chunks, so the chunk protocol is actually
/// exercised.
const CHUNK_LEN: usize = 16 * 1024;
/// Needle length for the plaintext sentry.
const NEEDLE_LEN: usize = 64;
/// Partitions every deployment (reference and cold-started) runs.
const PARTITIONS: usize = 2;
/// Where the report lands unless `--out` says otherwise.
pub const ARTIFACT: &str = "BENCH_registry.json";

/// Coldstart experiment parameters.
#[derive(Debug, Clone)]
pub struct ColdstartSettings {
    /// Master seed: model weights, inputs, and fault scenarios.
    pub seed: u64,
    /// Model population, provisioned in order (distinct sizes).
    pub models: Vec<ModelKind>,
    /// Zoo scale.
    pub profile: ScaleProfile,
    /// Cold starts per model through the serving frontend (each evicts
    /// the session engine cache first); one warm start follows.
    pub cold_trials: usize,
    /// Seeded provisioning-fault scenarios.
    pub fault_scenarios: u64,
    /// Overflow uploads driven at the end to force sealed-store
    /// evictions.
    pub evict_extra: usize,
}

impl ColdstartSettings {
    /// CI smoke configuration.
    pub fn quick(seed: u64) -> Self {
        ColdstartSettings {
            seed,
            models: vec![ModelKind::MnasNet, ModelKind::ResNet50],
            profile: ScaleProfile::Test,
            cold_trials: 3,
            fault_scenarios: 12,
            evict_extra: 2,
        }
    }

    /// Full configuration: a larger population, more cold starts, a
    /// deeper fault sweep.
    pub fn full(seed: u64) -> Self {
        ColdstartSettings {
            models: ModelKind::ALL.iter().copied().take(4).collect(),
            cold_trials: 8,
            fault_scenarios: 24,
            evict_extra: 3,
            ..Self::quick(seed)
        }
    }
}

/// Per-model provisioning and cold-start verdicts.
#[derive(Debug, Clone)]
pub struct ModelColdstart {
    /// Registry key the model is served under.
    pub key: String,
    /// Zoo model kind.
    pub kind: String,
    /// Plaintext encoded size, bytes (the "model size" axis).
    pub plain_bytes: u64,
    /// Sealed bytes sent over the provisioning lane.
    pub sealed_bytes: u64,
    /// Every served output matched the serial reference bit-for-bit.
    pub outputs_match: bool,
    /// The cold-started deployment's rendered audit transcript matched
    /// the in-memory reference deployment's byte-for-byte.
    pub transcript_match: bool,
}

/// The provisioning-fault mini-campaign tally.
#[derive(Debug, Clone, Default)]
pub struct FaultSummary {
    /// Scenarios injected.
    pub injected: u64,
    /// Corruptions rejected before anything reached the store.
    pub detected: u64,
    /// Torn uploads that resumed from exactly their last verified chunk.
    pub resumed: u64,
    /// Scenarios that slipped through (must be empty).
    pub missed: Vec<String>,
}

/// Everything the coldstart experiment produced.
#[derive(Debug, Clone)]
pub struct ColdstartReport {
    /// The master seed.
    pub seed: u64,
    /// Run-configuration fingerprint (xor of model content addresses).
    pub fingerprint: String,
    /// Per-model measurements, provisioning order.
    pub models: Vec<ModelColdstart>,
    /// Plaintext needle sightings on the host (must be empty).
    pub plaintext_sightings: Vec<String>,
    /// The duplicate upload was deduplicated against the sealed store.
    pub dedup_hit: bool,
    /// The torn-upload probe resumed and completed.
    pub resume_ok: bool,
    /// Chunk index the probe tore the connection at.
    pub resume_torn_at: u64,
    /// Chunk index the registry resumed the probe from.
    pub resume_resumed_from: u64,
    /// The fault mini-campaign tally.
    pub faults: FaultSummary,
    /// Engine-cache hits observed by `from_registry` cold starts.
    pub warm_hits: u64,
    /// Engine-cache misses observed by `from_registry` cold starts.
    pub cold_misses: u64,
    /// Sealed bundles evicted by the overflow probe.
    pub evictions: u64,
    /// Cached engines dropped when their sealed bundle was evicted.
    pub engine_evictions: u64,
    /// The saturation probe observed a [`ShedReason::ColdStart`] shed.
    pub coldstart_shed_observed: bool,
    /// Admission counters of the saturation-probe frontend.
    pub queue: QueueStats,
}

impl ColdstartReport {
    /// Warm-vs-cold engine-cache hit ratio across all cold starts.
    pub fn warm_hit_ratio(&self) -> f64 {
        let total = self.warm_hits + self.cold_misses;
        if total == 0 {
            0.0
        } else {
            self.warm_hits as f64 / total as f64
        }
    }

    /// The gate CI holds the smoke run to.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for s in &self.plaintext_sightings {
            failures.push(format!("plaintext model bytes visible on the host: {s}"));
        }
        for m in &self.faults.missed {
            failures.push(format!("provisioning fault not detected: {m}"));
        }
        if !self.resume_ok {
            failures.push(format!(
                "torn upload failed to resume (torn at chunk {}, resumed from {})",
                self.resume_torn_at, self.resume_resumed_from
            ));
        }
        if !self.dedup_hit {
            failures.push("duplicate upload was not deduplicated".into());
        }
        for m in &self.models {
            if !m.outputs_match {
                failures.push(format!("{}: cold-start outputs differ from the reference", m.key));
            }
            if !m.transcript_match {
                failures.push(format!(
                    "{}: cold-start audit transcript differs from the reference",
                    m.key
                ));
            }
        }
        if !self.coldstart_shed_observed {
            failures.push("saturated registry did not shed ShedReason::ColdStart".into());
        }
        if self.evictions == 0 {
            failures.push("overflow probe evicted nothing from the sealed store".into());
        }
        failures
    }

    /// Human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# coldstart seed={} models={} → dedup={} resume={} (torn@{} resumed@{}) \
             warm/cold={}/{} evictions={} (+{} engines) shed-coldstart={}",
            self.seed,
            self.models.len(),
            self.dedup_hit,
            self.resume_ok,
            self.resume_torn_at,
            self.resume_resumed_from,
            self.warm_hits,
            self.cold_misses,
            self.evictions,
            self.engine_evictions,
            self.coldstart_shed_observed,
        );
        let _ = writeln!(
            out,
            "faults: {} injected, {} detected, {} resumed, {} missed",
            self.faults.injected,
            self.faults.detected,
            self.faults.resumed,
            self.faults.missed.len()
        );
        for m in &self.models {
            let _ = writeln!(
                out,
                "{} ({}, {} B plain, {} B sealed): outputs={} transcript={}",
                m.key, m.kind, m.plain_bytes, m.sealed_bytes, m.outputs_match, m.transcript_match,
            );
        }
        for s in &self.plaintext_sightings {
            let _ = writeln!(out, "PLAINTEXT: {s}");
        }
        out
    }

    /// The machine-readable report (`BENCH_registry.json`).
    pub fn render_json(&self) -> String {
        let model = |m: &ModelColdstart| {
            Json::obj([
                ("key", m.key.as_str().into()),
                ("kind", m.kind.as_str().into()),
                ("plain_bytes", m.plain_bytes.into()),
                ("sealed_bytes", m.sealed_bytes.into()),
                ("outputs_match", m.outputs_match.into()),
                ("transcript_match", m.transcript_match.into()),
            ])
        };
        let provisioning = Json::obj([
            ("dedup_hit", self.dedup_hit.into()),
            ("resume_ok", self.resume_ok.into()),
            ("resume_torn_at", self.resume_torn_at.into()),
            ("resume_resumed_from", self.resume_resumed_from.into()),
            ("plaintext_sightings", self.plaintext_sightings.len().into()),
        ]);
        let faults = Json::obj([
            ("injected", self.faults.injected.into()),
            ("detected", self.faults.detected.into()),
            ("resumed", self.faults.resumed.into()),
            ("missed", self.faults.missed.len().into()),
        ]);
        let cache = Json::obj([
            ("warm_hits", self.warm_hits.into()),
            ("cold_misses", self.cold_misses.into()),
            ("warm_hit_ratio", Json::fixed(self.warm_hit_ratio(), 3)),
        ]);
        let evictions = Json::obj([
            ("bundles", self.evictions.into()),
            ("engines", self.engine_evictions.into()),
        ]);
        let shed = Json::obj([
            ("coldstart_observed", self.coldstart_shed_observed.into()),
            ("shed_coldstart", self.queue.shed_coldstart.into()),
        ]);
        Json::obj([
            ("meta", Json::meta("mvtee-bench-registry-v2", self.seed, &self.fingerprint)),
            ("models", Json::arr(self.models.iter().map(model))),
            ("provisioning", provisioning),
            ("faults", faults),
            ("cache", cache),
            ("evictions", evictions),
            ("shed", shed),
            ("gate_failures", self.gate_failures().len().into()),
        ])
        .render()
    }
}

/// A [`FrameTransport`] wrapper recording every frame that crosses the
/// wire — the experiment's "what the host can see" tap.
struct SpyTransport<T: FrameTransport> {
    inner: T,
    log: Arc<Mutex<Vec<u8>>>,
}

impl<T: FrameTransport> FrameTransport for SpyTransport<T> {
    fn send_frame(&self, frame: Vec<u8>) -> mvtee_crypto::Result<()> {
        self.log.lock().expect("wire log").extend_from_slice(&frame);
        self.inner.send_frame(frame)
    }

    fn recv_frame(&self) -> mvtee_crypto::Result<Vec<u8>> {
        let frame = self.inner.recv_frame()?;
        self.log.lock().expect("wire log").extend_from_slice(&frame);
        Ok(frame)
    }

    fn close(&self) {
        self.inner.close();
    }
}

/// The shape every deployment here runs, reference and cold-started alike.
fn seeded(builder: DeploymentBuilder, seed: u64) -> DeploymentBuilder {
    builder.partitions(PARTITIONS).partition_seed(seed).variant_seed(seed)
}

/// Builds replica pools from sealed registry bundles — the bench's
/// [`ColdStartProvider`].
struct RegistryProvider {
    registry: Arc<Mutex<Registry>>,
    seed: u64,
}

impl ColdStartProvider for RegistryProvider {
    fn cold_start(&self, model_key: &str) -> Result<ReplicaPool, String> {
        let builder = DeploymentBuilder::from_registry(&self.registry, model_key)
            .map_err(|e| e.to_string())?;
        ReplicaPool::from_builder(model_key, seeded(builder, self.seed), 1)
            .map_err(|e| e.to_string())
    }

    fn saturated(&self) -> bool {
        self.registry.lock().expect("registry lock").saturated()
    }
}

/// A mux'd provisioning channel pair over an in-memory wire, the tenant
/// side tapped by the wire log.
fn spied_channel_pair(
    psk: &[u8],
    log: &Arc<Mutex<Vec<u8>>>,
) -> (SecureChannel<MuxLane>, SecureChannel<MuxLane>) {
    let (a, b) = memory_pair();
    let spy = SpyTransport { inner: a, log: Arc::clone(log) };
    let mut lanes_t = split(spy, &[LANE_PROVISION]);
    let mut lanes_s = split(b, &[LANE_PROVISION]);
    let hs_t = Handshake::from_pre_shared(psk, Role::Initiator);
    let hs_s = Handshake::from_pre_shared(psk, Role::Responder);
    (
        SecureChannel::new(lanes_t.remove(0), &hs_t, u32::from(LANE_PROVISION)),
        SecureChannel::new(lanes_s.remove(0), &hs_s, u32::from(LANE_PROVISION)),
    )
}

/// A direct (un-mux'd) channel pair whose tenant side can sever the wire
/// by dropping — the torn-upload probes need a real disconnect, which
/// the mux pump's shared ownership of an in-memory transport prevents.
fn severable_channel_pair(
    psk: &[u8],
) -> (
    SecureChannel<mvtee_crypto::channel::MemoryTransport>,
    SecureChannel<mvtee_crypto::channel::MemoryTransport>,
) {
    let (a, b) = memory_pair();
    let hs_t = Handshake::from_pre_shared(psk, Role::Initiator);
    let hs_s = Handshake::from_pre_shared(psk, Role::Responder);
    (
        SecureChannel::new(a, &hs_t, u32::from(LANE_PROVISION)),
        SecureChannel::new(b, &hs_s, u32::from(LANE_PROVISION)),
    )
}

/// One lock-step request/reply exchange (the probes that deviate from
/// [`drive_upload`]'s happy path drive the protocol by hand).
fn exchange<T: FrameTransport>(
    chan: &mut SecureChannel<T>,
    req: &ProvisionRequest,
) -> Result<ProvisionReply, String> {
    let bytes = mvtee_codec::to_bytes(req).map_err(|e| e.to_string())?;
    chan.send(&bytes).map_err(|e| format!("{e:?}"))?;
    let reply = chan.recv().map_err(|e| format!("{e:?}"))?;
    mvtee_codec::from_bytes(&reply).map_err(|e| e.to_string())
}

/// Drives `Begin` plus the first `upto` chunks, then returns — the
/// caller tears the connection by dropping the channel.
fn partial_upload<T: FrameTransport>(
    chan: &mut SecureChannel<T>,
    upload: &PreparedUpload,
    upto: u64,
) -> Result<(), String> {
    let reply = exchange(chan, &ProvisionRequest::Begin(upload.manifest.clone()))?;
    let (upload_id, resume_from) = match reply {
        ProvisionReply::Begun { upload_id, resume_from, .. } => (upload_id, resume_from),
        other => return Err(format!("unexpected reply {other:?}")),
    };
    for i in resume_from..upto {
        let req = ProvisionRequest::Push {
            upload_id,
            index: i,
            sealed: upload.chunks[i as usize].clone(),
        };
        match exchange(chan, &req)? {
            ProvisionReply::ChunkOk { .. } => {}
            other => return Err(format!("unexpected reply {other:?}")),
        }
    }
    Ok(())
}

/// Spawns a provisioning server over `chan`, runs `f` on the tenant
/// side, then joins the server.
fn with_server<T, C, F, R>(registry: &Arc<Mutex<Registry>>, mut server: SecureChannel<T>, chan: C, f: F) -> R
where
    T: FrameTransport + 'static,
    F: FnOnce(C) -> R,
{
    let reg = Arc::clone(registry);
    let srv = std::thread::spawn(move || serve_provisioning(&reg, &mut server));
    let out = f(chan);
    srv.join().expect("provisioning server").expect("server transport");
    out
}

/// The seeded provisioning-fault mini-campaign: each scenario runs over
/// a real channel against a scratch registry; corruptions must be
/// rejected with nothing stored, torn uploads must resume exactly.
fn run_fault_campaign(s: &ColdstartSettings, model: &Model) -> FaultSummary {
    let mut summary = FaultSummary::default();
    let plain_len = encode_model(model).expect("encodes").0.len();
    let chunk_len = (plain_len / 6).max(1);
    for i in 0..s.fault_scenarios {
        let fault = ProvisionFault::arbitrary(&mut StdRng::seed_from_u64(s.seed ^ i));
        summary.injected += 1;
        let registry = Arc::new(Mutex::new(Registry::new(
            [0x5a; 32],
            RegistryConfig::default(),
        )));
        let name = format!("fault/{i}");
        let mut prepared = prepare_upload(model, &name, chunk_len).expect("prepares");
        let count = prepared.chunks.len() as u64;
        let verdict: Result<&str, String> = match fault {
            ProvisionFault::CorruptChunk { chunk, mask } => {
                let ci = (chunk % count) as usize;
                let mid = prepared.chunks[ci].len() / 2;
                prepared.chunks[ci][mid] ^= mask;
                expect_rejection(&registry, &prepared, "failed AEAD authentication")
            }
            ProvisionFault::TruncateChunk { chunk } => {
                let ci = (chunk % count) as usize;
                let keep = 4.min(prepared.chunks[ci].len());
                prepared.chunks[ci].truncate(keep);
                expect_rejection(&registry, &prepared, "chunk")
            }
            ProvisionFault::DropChunk { chunk } if count >= 2 => {
                let ci = (chunk % (count - 1)) as usize;
                prepared.chunks.remove(ci);
                expect_rejection(&registry, &prepared, "chunk")
            }
            ProvisionFault::ReorderChunks { chunk } if count >= 2 => {
                let ci = (chunk % (count - 1)) as usize;
                prepared.chunks.swap(ci, ci + 1);
                expect_rejection(&registry, &prepared, "chunk")
            }
            ProvisionFault::TornUpload { after } => {
                let tear = after % count;
                match torn_then_resumed(&registry, &prepared, tear) {
                    Ok(()) => {
                        summary.resumed += 1;
                        continue;
                    }
                    Err(e) => Err(format!("{fault}: {e}")),
                }
            }
            ProvisionFault::FingerprintMismatch => {
                prepared.manifest.fingerprint ^= 0x5a5a_5a5a;
                expect_rejection(&registry, &prepared, "fingerprint")
            }
            // Single-chunk geometries cannot drop or reorder.
            _ => {
                summary.injected -= 1;
                continue;
            }
        };
        match verdict {
            Ok(_) => {
                if registry.lock().expect("registry lock").stored() != 0 {
                    summary.missed.push(format!("{fault}: corrupt upload reached the store"));
                } else {
                    summary.detected += 1;
                }
            }
            Err(e) => summary.missed.push(e),
        }
    }
    summary
}

/// Drives a (mutated) upload and requires the registry to reject it with
/// an error containing `needle`, storing nothing.
fn expect_rejection(
    registry: &Arc<Mutex<Registry>>,
    prepared: &PreparedUpload,
    needle: &str,
) -> Result<&'static str, String> {
    let (tenant, server) = severable_channel_pair(b"coldstart-faults");
    with_server(registry, server, tenant, |mut chan| {
        // The channel drops on return, severing the wire, so the server
        // loop exits even when the rejected tenant just walks away.
        match drive_upload(&mut chan, prepared) {
            Ok(_) => Err("corrupt upload accepted".to_string()),
            Err(e) if e.to_string().contains(needle) => Ok("rejected"),
            Err(e) => Err(format!("imprecise rejection: {e}")),
        }
    })
}

/// Tears an upload at chunk `tear` (real disconnect), reconnects, and
/// requires the resume to start exactly there and complete.
fn torn_then_resumed(
    registry: &Arc<Mutex<Registry>>,
    prepared: &PreparedUpload,
    tear: u64,
) -> Result<(), String> {
    let (tenant, server) = severable_channel_pair(b"coldstart-torn");
    with_server(registry, server, tenant, |mut chan| {
        // The channel drops on return: a real mid-stream disconnect. The
        // server observes it and leaves the upload resumable.
        partial_upload(&mut chan, prepared, tear)
    })?;
    let (tenant, server) = severable_channel_pair(b"coldstart-resume");
    let outcome = with_server(registry, server, tenant, |mut chan| {
        let out = drive_upload(&mut chan, prepared);
        let _ = end_session(&mut chan);
        out
    })
    .map_err(|e| format!("resume failed: {e}"))?;
    if outcome.resumed_from != tear {
        return Err(format!(
            "resumed from chunk {} instead of the torn chunk {tear}",
            outcome.resumed_from
        ));
    }
    if !registry.lock().expect("registry lock").contains(prepared.manifest.fingerprint) {
        return Err("resumed upload did not reach the store".into());
    }
    Ok(())
}

/// Runs the coldstart experiment.
pub fn run_coldstart(s: &ColdstartSettings) -> ColdstartReport {
    mvtee_serve::register_serve_metrics();
    let warm_counter = mvtee_telemetry::counter("registry.coldstart.warm");
    let cold_counter = mvtee_telemetry::counter("registry.coldstart.cold");
    let warm_before = warm_counter.get();
    let cold_before = cold_counter.get();

    let mut kdk = [0x42u8; 32];
    kdk[..8].copy_from_slice(&s.seed.to_le_bytes());
    // Capacity: the population plus the resume-probe model; the overflow
    // probe at the end is what forces evictions.
    let registry = Arc::new(Mutex::new(Registry::new(
        kdk,
        RegistryConfig { max_bundles: s.models.len() + 1, ..RegistryConfig::default() },
    )));

    // ---- Phase 1: provision the population over the attested lane,
    // with the tenant's wire tapped for the plaintext sentry.
    let wire_log: Arc<Mutex<Vec<u8>>> = Arc::default();
    let models: Vec<(String, Model)> = s
        .models
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            let model = zoo::build(kind, s.profile, s.seed).expect("zoo model builds");
            (format!("tenant-{i}/{}", kind.display_name()), model)
        })
        .collect();
    let mut needles: Vec<(String, Vec<u8>)> = Vec::new();
    let mut fingerprint = 0u64;
    let mut per_model: Vec<ModelColdstart> = Vec::new();
    let (tenant, server) = spied_channel_pair(b"coldstart-provision", &wire_log);
    let dedup_hit = with_server(&registry, server, tenant, |mut chan| {
        for (key, model) in &models {
            let (plain, fp, _) = encode_model(model).expect("encodes");
            fingerprint ^= fp;
            let mid = plain.len() / 2;
            needles.push((key.clone(), plain[mid..mid + NEEDLE_LEN].to_vec()));
            let prepared = prepare_upload(model, key, CHUNK_LEN).expect("prepares");
            let outcome = drive_upload(&mut chan, &prepared).expect("population upload");
            per_model.push(ModelColdstart {
                key: key.clone(),
                kind: model.kind.display_name().to_string(),
                plain_bytes: plain.len() as u64,
                sealed_bytes: outcome.bytes_sent,
                outputs_match: true,
                transcript_match: true,
            });
        }
        // A second tenant uploads the first model again under its own
        // name: content addressing must dedup it.
        let dup = upload_model(&mut chan, &models[0].1, "tenant-dup/same-model")
            .expect("duplicate upload");
        let _ = end_session(&mut chan);
        dup.dedup
    });

    // ---- Phase 2: the torn-upload resume probe (a fresh model, real
    // disconnect mid-stream).
    let resume_model =
        zoo::build(s.models[0], s.profile, s.seed ^ 0x7e57).expect("zoo model builds");
    let resume_prepared = prepare_upload(
        &resume_model,
        "tenant-resume/model",
        (encode_model(&resume_model).expect("encodes").0.len() / 5).max(1),
    )
    .expect("prepares");
    let resume_torn_at = (resume_prepared.chunks.len() as u64 / 2).max(1);
    let resume_result = torn_then_resumed(&registry, &resume_prepared, resume_torn_at);
    let resume_ok = resume_result.is_ok();

    // ---- Phase 3: the provisioning-fault mini-campaign (scratch
    // registries; every class Detected before a variant runs the model).
    let faults = run_fault_campaign(s, &models[0].1);

    // ---- Phase 4: serial references (outputs + audit transcripts) from
    // the in-memory models, then the byte-identity gate on a cold-started
    // deployment per model.
    let inputs: Vec<Tensor> =
        models.iter().map(|(_, m)| fixture::inputs(m, s.seed ^ 0xc01d, 1).remove(0)).collect();
    let mut references: Vec<Tensor> = Vec::new();
    // One inference on a fresh deployment: its output and rendered transcript.
    let answer = |builder: DeploymentBuilder, input: &Tensor, key: &str| {
        let mut dep = seeded(builder, s.seed).build().expect("deployment builds");
        let out = dep.infer(input).expect("inference succeeds");
        let transcript = dep.transcript().render(s.seed, key);
        dep.shutdown();
        (out, transcript)
    };
    for (i, (key, model)) in models.iter().enumerate() {
        let (ref_out, ref_transcript) = answer(Deployment::builder(model.clone()), &inputs[i], key);
        let cold = DeploymentBuilder::from_registry(&registry, key).expect("registry checkout");
        let (cold_out, cold_transcript) = answer(cold, &inputs[i], key);
        per_model[i].outputs_match = fixture::bits_equal(&ref_out, &cold_out);
        per_model[i].transcript_match = ref_transcript == cold_transcript;
        references.push(ref_out);
    }

    // ---- Phase 5: cold starts, then one warm start, through the serving
    // frontend's cold-start path; every served output is held to the
    // reference.
    let provider = Arc::new(RegistryProvider { registry: Arc::clone(&registry), seed: s.seed });
    let cache = mvtee_runtime::session_cache();
    let fps: Vec<u64> = models.iter().map(|(_, m)| mvtee_registry::key_for(m)).collect();
    for trial in 0..=s.cold_trials {
        if trial < s.cold_trials {
            for fp in &fps {
                cache.evict(*fp);
            }
        }
        let frontend = ServeFrontend::start_with_cold_start(
            Vec::new(),
            ServeConfig::default(),
            Arc::<RegistryProvider>::clone(&provider),
        );
        let handle = frontend.handle();
        for (i, (key, _)) in models.iter().enumerate() {
            let ticket = handle
                .submit("bench", key, inputs[i].clone())
                .expect("unsaturated registry admits");
            match ticket.wait().expect("frontend resolves the ticket").outcome {
                RequestOutcome::Ok(tensor) => {
                    per_model[i].outputs_match &= fixture::bits_equal(&tensor, &references[i]);
                }
                other => panic!("cold-start serve failed for {key}: {other:?}"),
            }
        }
        frontend.shutdown();
    }

    // ---- Phase 6: the plaintext sentry — no needle may appear in the
    // recorded wire frames or in the sealed store's host-visible bytes.
    let mut plaintext_sightings = Vec::new();
    {
        let wire = wire_log.lock().expect("wire log");
        let host = registry.lock().expect("registry lock").host_visible_bytes();
        for (key, needle) in &needles {
            if wire.windows(needle.len()).any(|w| w == &needle[..]) {
                plaintext_sightings.push(format!("{key}: needle found in wire frames"));
            }
            if host.windows(needle.len()).any(|w| w == &needle[..]) {
                plaintext_sightings.push(format!("{key}: needle found in sealed storage"));
            }
        }
    }

    // ---- Phase 7: the overflow probe — uploads past capacity must
    // evict LRU bundles, and evicted fingerprints drop their cached
    // engines.
    let mut engine_evictions = 0u64;
    for j in 0..s.evict_extra {
        let extra = zoo::build(
            s.models[j % s.models.len()],
            s.profile,
            s.seed ^ (0xe1c + j as u64),
        )
        .expect("zoo model builds");
        let prepared =
            prepare_upload(&extra, &format!("overflow/{j}"), CHUNK_LEN).expect("prepares");
        let mut reg = registry.lock().expect("registry lock");
        let adm = reg.begin(prepared.manifest.clone()).expect("overflow admitted");
        for (i, c) in prepared.chunks.iter().enumerate() {
            reg.push(adm.upload_id, i as u64, c).expect("overflow chunk");
        }
        reg.finalize(adm.upload_id, prepared.manifest.digest, None).expect("overflow finalize");
    }
    let evicted = registry.lock().expect("registry lock").drain_evictions();
    for fp in &evicted {
        engine_evictions += cache.evict(*fp) as u64;
    }

    // ---- Phase 8: the saturation probe — exhaust the pending-upload
    // slots, then require an unknown-key submission to shed ColdStart.
    {
        let mut reg = registry.lock().expect("registry lock");
        let mut j = 0u64;
        while !reg.saturated() {
            let manifest = UploadManifest {
                model_name: format!("sat/{j}"),
                fingerprint: 0xdead_0000 + j,
                digest: [j as u8; 32],
                total_len: 1024,
                chunk_len: 256,
                upload_key: [j as u8; 32],
                nonce_seed: 0xffff_0000 + j as u32,
            };
            reg.begin(manifest).expect("saturation filler admitted");
            j += 1;
        }
    }
    let frontend = ServeFrontend::start_with_cold_start(
        Vec::new(),
        ServeConfig::default(),
        Arc::<RegistryProvider>::clone(&provider),
    );
    let coldstart_shed_observed = matches!(
        frontend.handle().submit("bench", "never/uploaded", inputs[0].clone()),
        Err(ShedReason::ColdStart)
    );
    let queue = frontend.queue_stats();
    frontend.shutdown();

    ColdstartReport {
        seed: s.seed,
        fingerprint: format!("registry-{fingerprint:016x}-m{}", models.len()),
        models: per_model,
        plaintext_sightings,
        dedup_hit,
        resume_ok,
        resume_torn_at,
        resume_resumed_from: if resume_ok { resume_torn_at } else { u64::MAX },
        faults,
        warm_hits: warm_counter.get() - warm_before,
        cold_misses: cold_counter.get() - cold_before,
        evictions: evicted.len() as u64,
        engine_evictions,
        coldstart_shed_observed,
        queue,
    }
}

/// The `coldstart` subcommand: fails on any plaintext-on-host sighting,
/// accepted corrupt chunk, cold-start byte mismatch (outputs or rendered
/// transcript), failed resume, or missing `ColdStart` shed.
pub fn command(common: &CommonArgs, _args: &[String]) -> Outcome {
    let report = run_coldstart(&common.pick(ColdstartSettings::quick, ColdstartSettings::full));
    Outcome {
        status: report.render_text(),
        artifacts: vec![(common.out_or(ARTIFACT), report.render_json())],
        failures: report.gate_failures(),
        ..Outcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_passes_every_gate() {
        let mut s = ColdstartSettings::quick(7);
        s.cold_trials = 2;
        s.fault_scenarios = 8;
        let report = run_coldstart(&s);
        assert!(
            report.gate_failures().is_empty(),
            "gate failures: {:?}\n{}",
            report.gate_failures(),
            report.render_text()
        );
        assert_eq!(report.faults.missed.len(), 0);
        assert!(report.faults.detected + report.faults.resumed >= 1);
        let json = report.render_json();
        assert!(json.contains("\"schema\": \"mvtee-bench-registry-v2\""));
        assert!(json.contains("\"gate_failures\": 0"));
    }
}
