//! The variant TEE host: one thread per (partition, variant) simulating a
//! separate enclave process.
//!
//! The host runs the variant side of the two-stage bootstrap (Fig 5/6):
//!
//! 1. launch with only the public *init-variant* (code + first-stage
//!    manifest) — the untrusted orchestrator knows nothing else,
//! 2. answer the monitor's challenge with an attestation report binding
//!    the nonce and the ephemeral DH public keys,
//! 3. receive the sealed key release; install the variant key into the
//!    TEE OS,
//! 4. read and decrypt the sealed variant payload from host storage,
//!    install the one-time second-stage manifest, `exec()`,
//! 5. prepare the inference engine from the decrypted bundle and send
//!    sealed install evidence,
//! 6. serve encrypted checkpoint batches until shutdown or crash.
//!
//! Simulated platform-level attacks (CVE exploits, FrameFlip) are injected
//! here because that is where they live in reality: inside the variant's
//! own software stack, invisible to the monitor except through outputs.

use crate::link::DataLink;
use crate::messages::{
    bootstrap_session_secret, bootstrap_transcript_hash, decode, encode, BootstrapRequest,
    BootstrapResponse, InstallEvidence, KeyRelease, StageRequest, StageResponse,
};
use crate::worker::WorkerPlacement;
use crate::{MvxError, Result};
use mvtee_crypto::channel::{FrameTransport, Role};
use mvtee_crypto::gcm::AesGcm;
use mvtee_crypto::x25519::EphemeralKeypair;
use mvtee_diversify::VariantBundle;
use mvtee_faults::{Attack, FrameFlip, LivenessFault};
use mvtee_runtime::{Engine, PreparedModel, RuntimeError};
use mvtee_tee::{CodeIdentity, Enclave, Manifest, Platform, Syscall};
use serde::{Deserialize, Serialize};
use std::thread::JoinHandle;

/// The sealed payload the offline tool places (encrypted) on the variant's
/// host storage: the second-stage manifest plus the variant bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SealedVariantPayload {
    /// The second-stage manifest the init-variant must install.
    pub manifest: Manifest,
    /// Encoded [`VariantBundle`] bytes.
    pub bundle: Vec<u8>,
}

/// Simulated faults a variant host can carry. They model compromises of
/// the software stack of *this* process, so they are grouped: placement
/// rejects them wholesale for out-of-process variants.
#[derive(Clone, Default)]
pub(crate) struct HostFaults {
    /// Simulated CVE attack present on this host (instrumentation applies
    /// only if the variant is susceptible).
    pub attack: Option<Attack>,
    /// Simulated platform-wide FrameFlip (corrupts matching BLAS).
    pub frameflip: Option<FrameFlip>,
    /// Simulated liveness fault (stall/hang or lossy response channel) in
    /// this host's scheduling/transport stack. Transient: replacements
    /// provisioned by the recovery manager do not inherit it.
    pub liveness: Option<LivenessFault>,
}

impl HostFaults {
    pub(crate) fn any(&self) -> bool {
        self.attack.is_some() || self.frameflip.is_some() || self.liveness.is_some()
    }
}

/// One variant host, as [`variant_main`] runs it in either placement:
/// what the untrusted orchestrator ships ([`WorkerPlacement`]), the
/// simulated faults of the hosting process, and the variant-side ends of
/// the three conversations — for a variant thread, in-memory transports
/// and the stage's response port itself; for a variant process, mux lanes
/// of the worker's TCP connection.
pub(crate) struct VariantLaunch {
    /// The public description of the host.
    pub placement: WorkerPlacement,
    /// Simulated faults (always none in a worker process).
    pub faults: HostFaults,
    /// Bootstrap transport (plaintext; protected by the attested DH
    /// handshake).
    pub bootstrap: Box<dyn FrameTransport>,
    /// Transport for stage requests (monitor → variant).
    pub request: Box<dyn FrameTransport>,
    /// Transport for stage responses (variant → monitor).
    pub response: Box<dyn FrameTransport>,
}

/// What actually runs the variant: a thread in this process or a
/// `mvtee-variantd` worker process.
#[derive(Debug)]
enum HostKind {
    Thread(JoinHandle<()>),
    Process(std::process::Child),
}

/// Handle to a running variant TEE host (thread or OS process).
#[derive(Debug)]
pub struct VariantHandle {
    /// Partition index.
    pub partition: usize,
    /// Variant index.
    pub variant_index: usize,
    host: Option<HostKind>,
}

impl VariantHandle {
    /// Wraps a spawned `mvtee-variantd` worker process.
    pub fn from_process(partition: usize, variant_index: usize, child: std::process::Child) -> Self {
        VariantHandle { partition, variant_index, host: Some(HostKind::Process(child)) }
    }

    /// A handle with no underlying host to own: used when an *existing*
    /// worker process reconnects after a dropped socket — the original
    /// handle (and its `Child`) still belongs to the first placement, so
    /// the resumed placement tracks the variant without double-owning
    /// the process.
    pub fn detached(partition: usize, variant_index: usize) -> Self {
        VariantHandle { partition, variant_index, host: None }
    }

    /// Whether this variant runs as a separate OS process.
    pub fn is_process(&self) -> bool {
        matches!(self.host, Some(HostKind::Process(_)))
    }

    /// The worker process id, when out-of-process.
    pub fn pid(&self) -> Option<u32> {
        match &self.host {
            Some(HostKind::Process(child)) => Some(child.id()),
            _ => None,
        }
    }

    /// Kills an out-of-process variant host and reaps it — the fault
    /// injection a distributed deployment must heal from. Returns `false`
    /// for in-process variants (a thread cannot be killed from outside;
    /// use liveness faults to simulate a wedged thread instead).
    pub fn kill(&mut self) -> bool {
        match self.host.take() {
            Some(HostKind::Process(mut child)) => {
                let _ = child.kill();
                let _ = child.wait();
                true
            }
            other => {
                self.host = other;
                false
            }
        }
    }

    /// Waits for the variant host to exit.
    pub fn join(mut self) {
        self.join_inner();
    }

    fn join_inner(&mut self) {
        match self.host.take() {
            Some(HostKind::Thread(j)) => {
                let _ = j.join();
            }
            Some(HostKind::Process(mut child)) => {
                let _ = child.wait();
            }
            None => {}
        }
    }
}

impl Drop for VariantHandle {
    fn drop(&mut self) {
        self.join_inner();
    }
}

/// Spawns the variant TEE thread.
pub(crate) fn spawn_variant(launch: VariantLaunch) -> VariantHandle {
    let partition = launch.placement.partition;
    let variant_index = launch.placement.variant_index;
    let join = std::thread::Builder::new()
        .name(format!("variant-p{partition}-v{variant_index}"))
        .spawn(move || {
            // Failures during bootstrap are reported to the monitor when
            // possible; afterwards the thread simply exits (the "process"
            // died).
            if let Err(e) = variant_main(launch) {
                // Best effort: nothing to report to if channels are gone.
                let _ = e;
            }
        })
        .expect("thread spawn cannot fail");
    VariantHandle { partition, variant_index, host: Some(HostKind::Thread(join)) }
}

/// The variant TEE host's main loop: bootstrap, engine preparation, then
/// the data-plane serve loop. Shared verbatim between the in-process
/// thread host ([`spawn_variant`]) and the `mvtee-variantd` worker
/// process, so the two placements are behaviourally indistinguishable to
/// the monitor.
pub(crate) fn variant_main(launch: VariantLaunch) -> Result<()> {
    let VariantLaunch { placement, faults, bootstrap, request, response } = launch;
    // Stage 0: enclave launch with the public init-variant.
    let identity = CodeIdentity::from_content("mvtee-init-variant", "1.0", &placement.init_code);
    let mut enclave = Enclave::launch(
        placement.tee_kind,
        identity,
        placement.init_manifest,
        Platform::from_root(placement.platform_root),
    );

    // Bootstrap step ②-⑤: challenge-response attestation with DH binding.
    enclave.os().syscall(Syscall::Connect)?;
    let BootstrapRequest::Challenge { nonce, monitor_dh_public } =
        decode::<BootstrapRequest>(&bootstrap.recv_frame()?)?
    else {
        return Err(MvxError::BadState("expected challenge".into()));
    };
    let keypair = EphemeralKeypair::generate();
    let shared = keypair.diffie_hellman(&monitor_dh_public);
    let transcript_hash = bootstrap_transcript_hash(&monitor_dh_public, &keypair.public);
    let session_secret = bootstrap_session_secret(&shared, &nonce);

    let report = enclave.report_for_channel(&nonce, &transcript_hash);
    let evidence =
        BootstrapResponse::Evidence { report, variant_dh_public: keypair.public };
    bootstrap.send_frame(encode(&evidence)?)?;

    // Step ⑤ continued: sealed key release.
    let BootstrapRequest::SealedKeyRelease { payload } =
        decode::<BootstrapRequest>(&bootstrap.recv_frame()?)?
    else {
        return Err(MvxError::BadState("expected key release".into()));
    };
    let session_cipher = AesGcm::new_256(&session_secret);
    let release_plain = session_cipher.open(&[0u8; 12], &payload, b"key-release")?;
    let release: KeyRelease = decode(&release_plain)?;

    // Install the variant key and decrypt the sealed payload.
    enclave.os().install_key(release.variant_key)?;
    enclave
        .os()
        .fs_mut()
        .import(&release.bundle_path, placement.sealed_salt, placement.sealed_blob);
    let payload_bytes = enclave.os().read_encrypted(&release.bundle_path)?;
    let payload: SealedVariantPayload = decode(&payload_bytes)?;

    // One-time second-stage manifest + exec.
    enclave.os().install_second_stage(payload.manifest)?;
    enclave.os().exec()?;

    // Prepare the engine from the decrypted bundle, applying any simulated
    // platform-level compromises.
    let bundle = VariantBundle::from_bytes(&payload.bundle)?;
    // Clean engines prepare through the session-wide cache (weight
    // pre-packing amortised across relaunches of the same spec + graph);
    // FrameFlip'd engines carry per-launch fault state and bypass it.
    let mut prepared: Box<dyn PreparedModel> = match &faults.frameflip {
        Some(ff) => {
            let engine = Engine::with_custom_blas(
                bundle.spec.engine.clone(),
                ff.resolve(bundle.spec.engine.blas),
            );
            engine.prepare(&bundle.graph)?
        }
        None => {
            let engine = Engine::new(bundle.spec.engine.clone());
            Box::new(mvtee_runtime::SharedModel(
                mvtee_runtime::session_cache().prepare(&engine, &bundle.graph)?,
            ))
        }
    };
    if let Some(attack) = &faults.attack {
        prepared = attack.instrument(prepared, &bundle.spec);
    }

    // Step ⑥: sealed install evidence.
    let evidence = InstallEvidence {
        variant_id: release.variant_id,
        manifest_hash: enclave.os_ref().manifest_hash(),
        measurement: enclave.measurement(),
    };
    let sealed = session_cipher.seal(&[1u8; 12], &encode(&evidence)?, b"install-evidence");
    bootstrap.send_frame(encode(&BootstrapResponse::SealedInstallEvidence { payload: sealed })?)?;

    // Data plane: serve checkpoint batches.
    let mut rx =
        DataLink::from_transport(request, placement.encrypt, &session_secret, Role::Responder, 0);
    let mut tx =
        DataLink::from_transport(response, placement.encrypt, &session_secret, Role::Responder, 1);
    // (recv errors mean the monitor is gone: stop serving.)
    let batches_served = mvtee_telemetry::counter("core.variant_host.batches_served");
    let tracer = mvtee_telemetry::trace::recorder();
    let run_span_name =
        format!("core.p{}v{}.variant_run", placement.partition, placement.variant_index);
    let run_track = format!("p{}v{}", placement.partition, placement.variant_index);
    loop {
        // Every data-plane read/write passes the TEE OS syscall policy —
        // a main-variant manifest that forbids reads would stop serving.
        enclave.os().syscall(Syscall::Read)?;
        let Ok(frame) = rx.recv() else { break };
        match decode::<StageRequest>(&frame)? {
            StageRequest::Shutdown => break,
            StageRequest::Input { batch, trace, tensors } => {
                // The coordinator's checkpoint span arrives on the wire;
                // runtime op spans and channel instants on this thread
                // parent under the variant-run span.
                let ctx = mvtee_telemetry::trace::TraceCtx::from_pair(trace);
                let run_span = tracer
                    .span(ctx, &run_span_name, &run_track)
                    .arg("batch", batch)
                    .arg("variant_id", release.variant_id);
                mvtee_telemetry::trace::set_current(run_span.ctx());
                if let Some(fault) = &faults.liveness {
                    // A hung variant's "process" is alive and its channel
                    // open — it keeps consuming requests but never
                    // answers, the worst case for a deadline-less
                    // monitor.
                    if fault.hangs_on(batch) {
                        continue;
                    }
                    let delay = fault.delay_for(batch);
                    if delay > 0 {
                        std::thread::sleep(std::time::Duration::from_millis(delay));
                    }
                }
                match prepared.run(&tensors) {
                    Ok(outputs) => {
                        batches_served.inc();
                        enclave.os().syscall(Syscall::Write)?;
                        let resp = StageResponse::Output { batch, tensors: outputs };
                        if let Some(fault) = &faults.liveness {
                            if fault.drops_on(batch) {
                                continue; // frame silently lost in transit
                            }
                            if fault.truncates_on(batch) {
                                let bytes = encode(&resp)?;
                                let _ = tx.send(&bytes[..bytes.len() / 2]);
                                continue;
                            }
                        }
                        if tx.send(&encode(&resp)?).is_err() {
                            break;
                        }
                    }
                    Err(RuntimeError::Crashed { reason }) => {
                        // The "process" dies: report (the monitor would
                        // observe the exit) and stop serving.
                        let resp = StageResponse::Crashed { batch, reason };
                        let _ = tx.send(&encode(&resp)?);
                        break;
                    }
                    Err(other) => {
                        let resp =
                            StageResponse::Crashed { batch, reason: other.to_string() };
                        let _ = tx.send(&encode(&resp)?);
                        break;
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_payload_round_trips() {
        let payload = SealedVariantPayload {
            manifest: Manifest::main_variant("m"),
            bundle: vec![1, 2, 3],
        };
        let bytes = encode(&payload).unwrap();
        let back: SealedVariantPayload = decode(&bytes).unwrap();
        assert_eq!(back.manifest, payload.manifest);
        assert_eq!(back.bundle, payload.bundle);
    }
}
