//! One way a variant comes online (§5.2, Fig 6).
//!
//! Initial deployment, §4.3 partial/full updates, §6.5 key rotation and
//! mid-stream recovery all bring a variant TEE up through
//! [`Provisioner::bring_up`]: place the public init-variant (a thread, a
//! spawned `mvtee-variantd` worker, or a live worker's redial) →
//! challenge/evidence → sealed key release → install evidence → bind →
//! open the two data channels → the caller's probation → only then adopt
//! the host and start watching its heartbeat. The callers differ in the
//! artifact they seal, the faults they pass, the response port they hand
//! the variant and the probation they run; where the variant runs shows
//! only in the transport handle.
//!
//! A [`Provisioner`] is the bring-up state of one deployment
//! *generation*, shared as an `Arc` by the deployment and its monitor's
//! recovery, which brings replacements up on the monitor's own loop.
//! Every relaunch retires it for its [`successor`]: a fresh heartbeat
//! monitor, no retained listeners and no hosts, over the same platform
//! and the same append-only binding registry.
//!
//! [`successor`]: Provisioner::successor

use crate::config::{MvxConfig, SupervisionPolicy};
use crate::deployment::{BindingRecord, VariantArtifact};
use crate::events::{EventLog, MonitorEvent};
use crate::link::{DataLink, ResponsePort, VariantLink};
use crate::messages::{
    bootstrap_session_secret, bootstrap_transcript_hash, decode, encode, BootstrapRequest,
    BootstrapResponse, InstallEvidence, KeyRelease,
};
use crate::supervisor::HeartbeatMonitor;
use crate::variant_host::{spawn_variant, HostFaults, VariantHandle, VariantLaunch};
use crate::worker::{accept_worker, worker_binary, VariantPlacement, WorkerPlacement};
use crate::{MvxError, Result};
use mvtee_codec::Bytes;
use mvtee_crypto::channel::{memory_pair, FrameTransport, Role};
use mvtee_crypto::gcm::AesGcm;
use mvtee_crypto::mux::{
    split_into, MuxLane, LANE_BOOTSTRAP, LANE_HEARTBEAT, LANE_REQUEST, LANE_RESPONSE,
};
use mvtee_crypto::random_bytes;
use mvtee_crypto::sha256::sha256;
use mvtee_crypto::tcp::{bind_loopback, TcpTransport};
use mvtee_crypto::x25519::EphemeralKeypair;
use mvtee_diversify::TeeBackend;
use mvtee_faults::{FaultDirection, FaultyTransport, NetFault};
use mvtee_tee::{compute_measurement, CodeIdentity, Platform, TeeKind};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long the monitor waits for a freshly spawned worker to dial back.
const WORKER_CONNECT_TIMEOUT: Duration = Duration::from_secs(30);

/// How long the monitor holds the redial door open for a live worker
/// whose socket dropped before giving up and respawning. A constant: no
/// deployment ever sized it, and a loopback redial either lands within
/// the worker's 50 ms retry pause or the worker is gone.
const RECONNECT_WINDOW: Duration = Duration::from_secs(1);

/// The bring-up state of one deployment generation (see the module doc).
pub(crate) struct Provisioner {
    /// Simulated hardware platform (report verification).
    pub platform: Platform,
    /// Public init-variant code (expected first-stage measurement).
    pub init_code: Vec<u8>,
    /// Generation the anti-fork uniqueness check is scoped to.
    pub generation: u64,
    /// Audit event log.
    pub events: EventLog,
    encrypt: bool,
    supervision: SupervisionPolicy,
    placements: HashMap<(usize, usize), VariantPlacement>,
    worker_bin: Option<PathBuf>,
    /// Append-only binding registry, shared across generations.
    bindings: Arc<Mutex<Vec<BindingRecord>>>,
    /// Worker accept sockets retained (when the supervision policy allows
    /// reconnection) so a worker whose connection dropped can redial the
    /// *same* port and resume instead of being killed and respawned.
    listeners: Mutex<HashMap<(usize, usize), TcpListener>>,
    monitor: HeartbeatMonitor,
    /// Every adopted host, launch-time and replacement alike, oldest
    /// first.
    hosts: Mutex<Vec<VariantHandle>>,
}

/// The monitor-side ends of one placed host (its answers go through the
/// [`ResponsePort`] it was placed with). Field order is drop order and
/// load-bearing: on any failed bring-up the transports close first, which
/// lets the host exit, so dropping (joining) `host` cannot park on a
/// half-bootstrapped TEE.
struct Placed {
    boot: Box<dyn FrameTransport>,
    request: Box<dyn FrameTransport>,
    /// Heartbeat lane, present for out-of-process placements.
    heartbeat: Option<MuxLane>,
    /// The accept socket of a freshly spawned worker that may redial it.
    /// Kept only if the bring-up succeeds: closing it on failure gets the
    /// `--resume` worker connection-refused, so it exits promptly instead
    /// of waiting out its strike budget against a listener nobody will
    /// accept on.
    listener: Option<TcpListener>,
    /// An already-running worker redialled: nothing was spawned.
    redialled: bool,
    host: VariantHandle,
}

impl Provisioner {
    /// Generation 0 of a deployment's bring-up state.
    pub(crate) fn new(
        platform: Platform,
        init_code: Vec<u8>,
        config: &MvxConfig,
        placements: HashMap<(usize, usize), VariantPlacement>,
        worker_bin: Option<PathBuf>,
    ) -> Self {
        Provisioner {
            platform,
            init_code,
            generation: 0,
            events: EventLog::new(),
            encrypt: config.encrypt,
            supervision: config.supervision,
            placements,
            worker_bin,
            bindings: Arc::default(),
            listeners: Mutex::default(),
            monitor: HeartbeatMonitor::new(),
            hosts: Mutex::default(),
        }
    }

    /// The next generation's state, for a relaunch after [`retire`] and
    /// [`join_hosts`].
    ///
    /// [`retire`]: Provisioner::retire
    /// [`join_hosts`]: Provisioner::join_hosts
    pub(crate) fn successor(&self) -> Self {
        Provisioner {
            platform: self.platform.clone(),
            init_code: self.init_code.clone(),
            generation: self.generation + 1,
            events: self.events.clone(),
            encrypt: self.encrypt,
            supervision: self.supervision,
            placements: self.placements.clone(),
            worker_bin: self.worker_bin.clone(),
            bindings: Arc::clone(&self.bindings),
            listeners: Mutex::default(),
            monitor: HeartbeatMonitor::new(),
            hosts: Mutex::default(),
        }
    }

    /// Brings the variant at `at = (partition, variant)` online from its
    /// offline `artifact` and returns its links. The variant answers into
    /// `port`: in-process the variant thread sends into it, out-of-process
    /// the mux pump of the worker's connection does.
    ///
    /// `faults` are the simulated faults of its host and `netfault` one of
    /// the network between monitor and host: in-process it wraps the
    /// variant's response port, out-of-process the whole worker
    /// connection underneath the mux. `probation` is the caller's last
    /// fallible step over the fresh request link and response receive
    /// half (nothing at launch; replaying the last verified checkpoint at
    /// recovery). Only after it passes is the host adopted and its
    /// heartbeat watched — watching earlier would pin the transport open
    /// across a failed bring-up.
    ///
    /// # Errors
    ///
    /// Fails when simulated host faults are requested for an
    /// out-of-process variant (they model compromises of *this* process's
    /// stack), when no worker binary can be located, on any spawn or
    /// connect failure, on every bootstrap check, and with whatever
    /// `probation` returns. Nothing is left behind: the transports are
    /// dropped, then the host is joined.
    pub(crate) fn bring_up(
        &self,
        at: (usize, usize),
        artifact: &VariantArtifact,
        faults: HostFaults,
        netfault: Option<NetFault>,
        port: ResponsePort,
        probation: impl FnOnce(&mut DataLink, &mut DataLink) -> Result<()>,
    ) -> Result<VariantLink> {
        let (partition, variant) = at;
        let tee_kind =
            if artifact.spec.tee == TeeBackend::Tdx { TeeKind::Tdx } else { TeeKind::Sgx };
        let placement = WorkerPlacement {
            partition,
            variant_index: variant,
            tee_kind,
            platform_root: self.platform.export_root(),
            init_code: Bytes(self.init_code.clone()),
            init_manifest: artifact.init_manifest.clone(),
            bundle_path: artifact.bundle_path.clone(),
            sealed_salt: artifact.sealed.0,
            sealed_blob: Bytes(artifact.sealed.1.clone()),
            encrypt: self.encrypt,
            // Zero: no worker-side pinger (a thread host has none either way).
            heartbeat_interval_ms: if self.supervision.enabled {
                self.supervision.heartbeat_interval_ms
            } else {
                0
            },
        };
        let placed = match self.placements.get(&at).copied().unwrap_or_default() {
            VariantPlacement::InProcess => Self::place_thread(placement, faults, netfault, port),
            VariantPlacement::OutOfProcess if faults.any() => {
                return Err(MvxError::InvalidConfig(format!(
                    "variant p{partition}v{variant}: simulated platform faults \
                     (attack/frameflip/liveness) target this process's software stack \
                     and cannot be placed out-of-process"
                )));
            }
            VariantPlacement::OutOfProcess => self.place_worker(at, &placement, netfault, port)?,
        };

        let session_secret = {
            let _timed = mvtee_telemetry::histogram("core.deployment.bootstrap_ns").start();
            self.bootstrap_variant(at, artifact, tee_kind, placed.boot.as_ref())?
        };
        let (encrypt, secret) = (self.encrypt, &session_secret);
        let mut tx = DataLink::from_transport(placed.request, encrypt, secret, Role::Initiator, 0);
        let mut rx = DataLink::inbound(encrypt, secret, Role::Initiator, 1);
        probation(&mut tx, &mut rx)?;

        self.hosts.lock().expect("host list poisoned").push(placed.host);
        if let Some(listener) = placed.listener {
            self.listeners.lock().expect("listener map poisoned").insert(at, listener);
        }
        if let Some(lane) = placed.heartbeat.filter(|_| self.supervision.enabled) {
            self.monitor.watch(partition, variant, lane, &self.supervision, self.events.clone());
        }
        if placed.redialled {
            self.events.record(MonitorEvent::WorkerReconnected { partition, variant });
        }
        Ok(VariantLink { tx, rx, description: artifact.spec.describe() })
    }

    /// A variant thread over in-memory transports, answering into `port`.
    fn place_thread(
        placement: WorkerPlacement,
        faults: HostFaults,
        netfault: Option<NetFault>,
        port: ResponsePort,
    ) -> Placed {
        let (boot_monitor, boot_variant) = memory_pair();
        let (req_monitor, req_variant) = memory_pair();
        let response: Box<dyn FrameTransport> = match netfault {
            Some(nf) => Box::new(FaultyTransport::new(port, nf, FaultDirection::Send)),
            None => Box::new(port),
        };
        Placed {
            boot: Box::new(boot_monitor),
            request: Box::new(req_monitor),
            heartbeat: None,
            listener: None,
            redialled: false,
            host: spawn_variant(VariantLaunch {
                placement,
                faults,
                bootstrap: Box::new(boot_variant),
                request: Box::new(req_variant),
                response,
            }),
        }
    }

    /// A `mvtee-variantd` process over multiplexed TCP lanes: the live
    /// worker's redial when one arrives on a retained listener
    /// (reconnect-and-resume skips the expensive respawn, not the
    /// re-attestation), a freshly spawned worker otherwise. A listener is
    /// retained only for a variant that was up before in this generation,
    /// so a launch never waits for a redial.
    fn place_worker(
        &self,
        at: (usize, usize),
        placement: &WorkerPlacement,
        netfault: Option<NetFault>,
        port: ResponsePort,
    ) -> Result<Placed> {
        let (partition, variant) = at;
        let redial = self.accept_redial(at);
        let redialled = redial.is_some();
        // (The host is declared before the lanes: see `Placed`.)
        let (transport, host, listener) = match redial {
            Some(transport) => {
                // The first placement's handle still owns the `Child`; the
                // resumed one must not double-own the process.
                (transport, VariantHandle::detached(partition, variant), None)
            }
            None => {
                let (transport, child, listener) = self.spawn_worker(at)?;
                (transport, VariantHandle::from_process(partition, variant, child), listener)
            }
        };
        // The pump answers into `port` itself. Heartbeat frames are exempt
        // from one-shot wire faults so liveness verdicts stay about the
        // data plane — an ongoing stall still silences them, the point.
        let lanes = [LANE_BOOTSTRAP, LANE_REQUEST, LANE_HEARTBEAT];
        let sink: Option<(u8, Box<dyn FrameTransport>)> = Some((LANE_RESPONSE, Box::new(port)));
        let lanes = match netfault {
            Some(nf) => {
                let faulty = FaultyTransport::new(transport, nf, FaultDirection::Recv);
                split_into(faulty.exempt_lane(LANE_HEARTBEAT), &lanes, sink)
            }
            None => split_into(transport, &lanes, sink),
        };
        let [boot, request, heartbeat]: [MuxLane; 3] = lanes.try_into().expect("a lane per id");
        boot.send_frame(encode(placement)?)
            .map_err(|e| MvxError::Transport(format!("placement send: {e}")))?;
        Ok(Placed {
            boot: Box::new(boot),
            request: Box::new(request),
            heartbeat: Some(heartbeat),
            listener,
            redialled,
            host,
        })
    }

    /// Accepts a resumed worker's redial on the retained listener, within
    /// [`RECONNECT_WINDOW`]. `None`: no socket was retained or no redial
    /// arrived, and the caller respawns.
    fn accept_redial(&self, at: (usize, usize)) -> Option<TcpTransport> {
        // Clone the listener out so the wait never holds the lock
        // (pipeline teardown clears the map concurrently).
        let listener =
            self.listeners.lock().expect("listener map poisoned").get(&at)?.try_clone().ok()?;
        accept_worker(&listener, Instant::now() + RECONNECT_WINDOW, None).ok()
    }

    /// Spawns one `mvtee-variantd` worker pointed at a fresh ephemeral
    /// loopback port and accepts its connection. When the supervision
    /// policy allows reconnection the child is told to redial that port
    /// after connection loss (`--resume`) and the accept socket is handed
    /// back for retention.
    fn spawn_worker(
        &self,
        (partition, variant): (usize, usize),
    ) -> Result<(TcpTransport, Child, Option<TcpListener>)> {
        let resume = self.supervision.enabled && self.supervision.reconnect;
        let bin = match &self.worker_bin {
            Some(bin) => bin.clone(),
            None => worker_binary()?,
        };
        let (listener, port) = bind_loopback()?;
        let mut cmd = Command::new(&bin);
        cmd.arg("--connect").arg(format!("127.0.0.1:{port}"));
        if resume {
            cmd.arg("--resume");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| MvxError::Transport(format!("spawn {}: {e}", bin.display())))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| MvxError::Transport(format!("listener nonblocking: {e}")))?;
        let deadline = Instant::now() + WORKER_CONNECT_TIMEOUT;
        match accept_worker(&listener, deadline, Some(&mut child)) {
            Ok(transport) => {
                mvtee_telemetry::counter("core.worker.spawned").inc();
                Ok((transport, child, resume.then_some(listener)))
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                Err(MvxError::Transport(format!("worker p{partition}v{variant} {e}")))
            }
        }
    }

    /// Monitor-side bootstrap of one variant (Fig 6 steps ②–⑦): challenge,
    /// evidence verification, sealed key release, install-evidence check and
    /// secure binding. Returns the session secret for the data-plane links.
    fn bootstrap_variant(
        &self,
        (partition, variant): (usize, usize),
        artifact: &VariantArtifact,
        tee_kind: TeeKind,
        transport: &dyn FrameTransport,
    ) -> Result<[u8; 32]> {
        // Challenge with a fresh nonce (anti-replay).
        let mut nonce = [0u8; 32];
        random_bytes(&mut nonce);
        let keypair = EphemeralKeypair::generate();
        let challenge = BootstrapRequest::Challenge { nonce, monitor_dh_public: keypair.public };
        transport.send_frame(encode(&challenge)?)?;

        // Verify the evidence.
        let BootstrapResponse::Evidence { report, variant_dh_public } =
            decode::<BootstrapResponse>(&transport.recv_frame()?)?
        else {
            return Err(MvxError::Tee("variant failed before evidence".into()));
        };
        let init_identity =
            CodeIdentity::from_content("mvtee-init-variant", "1.0", &self.init_code);
        let expected_measurement =
            compute_measurement(tee_kind, &init_identity, &artifact.init_manifest.hash());
        let transcript_hash = bootstrap_transcript_hash(&keypair.public, &variant_dh_public);
        let mut expected_data = Vec::with_capacity(64);
        expected_data.extend_from_slice(&sha256(&nonce));
        expected_data.extend_from_slice(&transcript_hash);
        mvtee_tee::verify_report(
            &self.platform,
            &report,
            Some(expected_measurement),
            &expected_data,
        )?;

        // Session keys and sealed key release — never keyed from the
        // all-zero output of a low-order variant key, which anyone could
        // derive.
        let shared = keypair
            .agree(&variant_dh_public)
            .map_err(|e| MvxError::Tee(format!("variant p{partition}v{variant}: {e}")))?;
        let session_secret = bootstrap_session_secret(&shared, &nonce);
        let session_cipher = AesGcm::new_256(&session_secret);
        let release = KeyRelease {
            variant_key: artifact.variant_key,
            variant_id: artifact.spec.id.0,
            bundle_path: artifact.bundle_path.clone(),
            expected_manifest_hash: artifact.expected_manifest_hash,
        };
        let sealed = Bytes(session_cipher.seal(&[0u8; 12], &encode(&release)?, b"key-release"));
        transport.send_frame(encode(&BootstrapRequest::SealedKeyRelease { payload: sealed })?)?;

        // Install evidence: the enforced second-stage manifest must match.
        let BootstrapResponse::SealedInstallEvidence { payload } =
            decode::<BootstrapResponse>(&transport.recv_frame()?)?
        else {
            return Err(MvxError::Tee("variant failed before install evidence".into()));
        };
        let plain = session_cipher.open(&[1u8; 12], &payload.0, b"install-evidence")?;
        let evidence: InstallEvidence = decode(&plain)?;
        if evidence.manifest_hash != artifact.expected_manifest_hash {
            return Err(MvxError::Tee(format!(
                "variant p{partition}v{variant} enforced an unexpected second-stage manifest"
            )));
        }
        if evidence.variant_id != artifact.spec.id.0 {
            return Err(MvxError::Tee("variant id mismatch in install evidence".into()));
        }
        let expected_main =
            compute_measurement(tee_kind, &init_identity, &artifact.expected_manifest_hash);
        if evidence.measurement != expected_main {
            return Err(MvxError::Tee("unexpected post-exec measurement".into()));
        }
        // Bind (anti-fork: one live binding per variant id; older
        // generations remain in the append-only log).
        let mut bindings = self.bindings.lock().expect("binding registry poisoned");
        if bindings
            .iter()
            .any(|b| b.generation == self.generation && b.variant_id == evidence.variant_id)
        {
            return Err(MvxError::Tee(format!(
                "fork detected: variant id {} already bound",
                evidence.variant_id
            )));
        }
        bindings.push(BindingRecord {
            generation: self.generation,
            partition,
            variant,
            variant_id: evidence.variant_id,
            measurement: evidence.measurement,
        });
        drop(bindings);
        self.events.record(MonitorEvent::VariantBound {
            partition,
            variant,
            measurement: evidence.measurement,
        });
        Ok(session_secret)
    }

    /// Current secure bindings (a snapshot — recovery appends concurrently
    /// while the pipeline runs).
    pub(crate) fn bindings(&self) -> Vec<BindingRecord> {
        self.bindings.lock().expect("binding registry poisoned").clone()
    }

    /// Process ids of the out-of-process hosts, keyed by `(partition,
    /// variant)`.
    pub(crate) fn worker_pids(&self) -> Vec<((usize, usize), u32)> {
        let hosts = self.hosts.lock().expect("host list poisoned");
        let pid = |h: &VariantHandle| h.pid().map(|pid| ((h.partition, h.variant_index), pid));
        hosts.iter().filter_map(pid).collect()
    }

    /// Kills the out-of-process host of `(partition, variant)`; `false`
    /// when it is in-process or unknown.
    pub(crate) fn kill_worker(&self, partition: usize, variant: usize) -> bool {
        // Newest handle first: after a heal the live worker is the
        // replacement, not the original (whose host the first kill
        // consumed).
        let mut hosts = self.hosts.lock().expect("host list poisoned");
        hosts
            .iter_mut()
            .rev()
            .find(|h| h.partition == partition && h.variant_index == variant && h.is_process())
            .is_some_and(|h| h.kill())
    }

    /// First half of teardown, before the pipeline stops: joins the
    /// heartbeat watchers, so an orderly shutdown is not misread as a mass
    /// stall, and closes the retained listeners, so lingering `--resume`
    /// workers get connection-refused on redial and exit on their own
    /// instead of waiting out their strike budget against a listener
    /// nobody will accept on.
    pub(crate) fn retire(&self) {
        self.monitor.shutdown();
        self.listeners.lock().expect("listener map poisoned").clear();
    }

    /// Second half of teardown, once every link is dropped: the hosts exit
    /// on link loss and are joined.
    pub(crate) fn join_hosts(&self) {
        let hosts: Vec<VariantHandle> =
            self.hosts.lock().expect("host list poisoned").drain(..).collect();
        for host in hosts {
            host.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::OfflinePhase;
    use crate::messages::{StageRequest, StageResponse};
    use crate::pipeline::Inbound;
    use mvtee_graph::zoo::{self, ModelKind, ScaleProfile};
    use mvtee_tee::Enclave;
    use mvtee_tensor::Tensor;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One sealed single-variant deployment and a provisioner for it.
    fn fixture() -> (OfflinePhase, Provisioner) {
        let model = zoo::build(ModelKind::MnasNet, ScaleProfile::Test, 77).expect("builds");
        let config = MvxConfig::fast_path(1);
        let offline =
            OfflinePhase::run(&model.graph, &config, 0xd1ce, &HashMap::new()).expect("seals");
        let provisioner = Provisioner::new(
            Platform::new(),
            offline.init_code.clone(),
            &config,
            HashMap::new(),
            None,
        );
        (offline, provisioner)
    }

    /// `p` holds `bound` bindings and `hosts` adopted hosts, and no
    /// heartbeat watcher or retained listener.
    fn left_behind(p: &Provisioner, bound: usize, hosts: usize) {
        assert_eq!(p.bindings().len(), bound, "binding registry");
        assert_eq!(p.hosts.lock().unwrap().len(), hosts, "adopted hosts");
        assert_eq!(p.monitor.watchers(), 0, "a heartbeat watcher was started");
        assert!(p.listeners.lock().unwrap().is_empty(), "a listener was retained");
    }

    /// A failed bring-up leaves nothing behind, whichever side noticed the
    /// failure, and does not spoil the next one for the same slot.
    #[test]
    fn failed_bring_up_leaves_nothing_behind() {
        let (offline, provisioner) = fixture();
        let artifact = &offline.artifacts[0][0];
        let no_faults = HostFaults::default;
        let (inbox, answers) = std::sync::mpsc::channel();
        let port = || ResponsePort::new(inbox.clone(), (0, 0), 0);

        // The variant notices: its sealed payload does not authenticate.
        // (Returning at all means the host thread was joined: a
        // `VariantHandle` joins on drop.)
        let mut tampered = artifact.clone();
        let last = tampered.sealed.1.len() - 1;
        tampered.sealed.1[last] ^= 1;
        let failed =
            provisioner.bring_up((0, 0), &tampered, no_faults(), None, port(), |_, _| Ok(()));
        assert!(failed.is_err(), "a tampered sealed blob must block the bootstrap");
        left_behind(&provisioner, 0, 0);
        // Its port closed with it, and said so.
        assert!(matches!(answers.try_recv(), Ok(Inbound::Closed { at: (0, 0), epoch: 0 })));

        // The same slot then comes up from the untampered artifact, and
        // the variant serves into its port.
        let mut link = provisioner
            .bring_up((0, 0), artifact, no_faults(), None, port(), |_, _| Ok(()))
            .expect("comes up");
        left_behind(&provisioner, 1, 1);
        let request = StageRequest::Input {
            batch: 0,
            trace: (0, 0),
            tensors: vec![Tensor::ones(&[1, 3, 32, 32])],
        };
        link.tx.send(&encode(&request).expect("encodes")).expect("sends");
        let Ok(Inbound::Frame { at: (0, 0), epoch: 0, frame }) = answers.recv() else {
            panic!("no answer frame");
        };
        let reply = decode::<StageResponse>(&link.rx.open(frame).expect("opens")).expect("decodes");
        assert!(matches!(reply, StageResponse::Output { batch: 0, .. }));

        // The monitor notices, at the very last bootstrap check: the id
        // just bound is presented again (a fork). The second variant is
        // by then parked in its serve loop — joining it before its
        // transports are dropped would hang right here.
        let failed =
            provisioner.bring_up((0, 0), artifact, no_faults(), None, port(), |_, _| Ok(()));
        assert!(failed.is_err_and(|e| e.to_string().contains("fork detected")));
        left_behind(&provisioner, 1, 1);

        // The caller notices: probation rejects an attested, bound variant
        // (parked likewise). It is not adopted.
        let next = provisioner.successor();
        let rejected = || Err(MvxError::Tee("probation failed".into()));
        let failed = next.bring_up((0, 0), artifact, no_faults(), None, port(), |_, _| rejected());
        assert!(matches!(failed, Err(MvxError::Tee(_))));
        left_behind(&next, 2, 0);

        drop(link);
        provisioner.join_hosts();
    }

    /// Frames [`low_order_host`] received after sending its evidence.
    static FRAMES_AFTER_EVIDENCE: AtomicUsize = AtomicUsize::new(0);

    /// A genuine init-variant whose attested key is a low-order point
    /// (u = 0): the Diffie-Hellman output is all zeros whatever the
    /// monitor's key.
    fn low_order_host(launch: VariantLaunch) -> Result<()> {
        let VariantLaunch { placement, bootstrap, .. } = launch;
        let identity =
            CodeIdentity::from_content("mvtee-init-variant", "1.0", &placement.init_code.0);
        let enclave = Enclave::launch(
            placement.tee_kind,
            identity,
            placement.init_manifest,
            Platform::from_root(placement.platform_root),
        );
        let BootstrapRequest::Challenge { nonce, monitor_dh_public } =
            decode(&bootstrap.recv_frame()?)?
        else {
            return Err(MvxError::BadState("expected challenge".into()));
        };
        let low_order = [0u8; 32];
        let transcript_hash = bootstrap_transcript_hash(&monitor_dh_public, &low_order);
        let report = enclave.report_for_channel(&nonce, &transcript_hash);
        let evidence = BootstrapResponse::Evidence { report, variant_dh_public: low_order };
        bootstrap.send_frame(encode(&evidence)?)?;
        while bootstrap.recv_frame().is_ok() {
            FRAMES_AFTER_EVIDENCE.fetch_add(1, Ordering::SeqCst);
        }
        Ok(())
    }

    /// The monitor releases no key to a variant whose genuine report binds
    /// a low-order key: the session secret would be one anyone on the wire
    /// can compute.
    #[test]
    fn a_low_order_variant_key_gets_no_key_release() {
        let (offline, provisioner) = fixture();
        let (inbox, _answers) = std::sync::mpsc::channel();
        let port = ResponsePort::new(inbox, (0, 0), 0);
        let faults = HostFaults { script: Some(low_order_host), ..HostFaults::default() };
        let artifact = &offline.artifacts[0][0];
        let failed = provisioner.bring_up((0, 0), artifact, faults, None, port, |_, _| Ok(()));
        let Err(MvxError::Tee(why)) = failed else { panic!("expected a TEE error") };
        assert!(why.contains("low-order peer point"), "{why}");
        // `bring_up` returned, so the host thread was joined: the count is
        // final.
        assert_eq!(FRAMES_AFTER_EVIDENCE.load(Ordering::SeqCst), 0, "a key release was sent");
        left_behind(&provisioner, 0, 0);
    }
}
