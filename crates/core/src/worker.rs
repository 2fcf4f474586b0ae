//! Out-of-process variant hosts: the placement message, the worker
//! connection and the `mvtee-variantd` entry point.
//!
//! A deployment can place any variant either **in-process** (a thread,
//! the co-located setting) or **out-of-process** (a `mvtee-variantd`
//! worker the untrusted orchestrator spawns, the distributed setting).
//! Both are described by one [`WorkerPlacement`] — the monitor builds it
//! once per bring-up (`provision.rs`) and either hands it to a thread or
//! ships it down the bootstrap lane — and both run the *identical*
//! `variant_main`: Fig 5/6 two-stage attestation, AES-GCM channels with
//! per-direction keys, checkpoint serving. The worker connects back to
//! the monitor over loopback TCP; the single connection is
//! lane-multiplexed ([`mvtee_crypto::mux`]) into the bootstrap transport,
//! the two data-plane transports and a heartbeat lane. The monitor cannot
//! tell the placements apart except through the transport handle — which
//! is exactly the conformance property `tests/dist_conformance.rs` pins
//! down.
//!
//! What crosses the process boundary in the clear is only what the
//! untrusted orchestrator legitimately holds: public init-variant code,
//! the public first-stage manifest, the *sealed* payload blob, and the
//! platform root. The platform root models hardware provisioning (in
//! reality each machine's attestation key is fused silicon and the
//! verifier trusts the vendor's PKI; the simulation spans one platform
//! across host processes by sharing the root) — the variant key and
//! session secrets still only ever travel inside the attested key
//! release.
//!
//! Supervision additions: when a [`SupervisionPolicy`] is enabled the
//! worker keepalive-pings the heartbeat lane so the monitor's
//! [`HeartbeatMonitor`](crate::supervisor::HeartbeatMonitor) can tell a
//! stalled peer from a slow one, and with `reconnect` the monitor
//! retains each worker's accept socket so a live worker whose connection
//! dropped can redial (`--resume`) and be re-placed without a full
//! respawn.
//!
//! [`SupervisionPolicy`]: crate::config::SupervisionPolicy

use crate::variant_host::{variant_main, HostFaults, VariantLaunch};
use crate::{MvxError, Result};
use mvtee_codec::Bytes;
use mvtee_crypto::channel::FrameTransport;
use mvtee_crypto::mux::{
    self, MuxLane, LANE_BOOTSTRAP, LANE_HEARTBEAT, LANE_REQUEST, LANE_RESPONSE,
};
use mvtee_crypto::tcp::TcpTransport;
use mvtee_tee::{Manifest, TeeKind};
use serde::{Deserialize, Serialize};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::time::{Duration, Instant};

/// Where a variant host runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VariantPlacement {
    /// A thread inside the monitor's process (the co-located default).
    #[default]
    InProcess,
    /// A spawned `mvtee-variantd` worker process over attested TCP.
    OutOfProcess,
}

/// Everything the *untrusted orchestrator* needs to place one variant
/// TEE, in either placement (a worker process receives it as its first
/// bootstrap-lane frame).
///
/// Note what is absent: the variant spec, the transformed subgraph, the
/// second-stage manifest — all sealed inside `sealed_blob`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerPlacement {
    /// Partition index (public placement information).
    pub partition: usize,
    /// Variant index within the partition.
    pub variant_index: usize,
    /// TEE flavour to launch.
    pub tee_kind: TeeKind,
    /// Exported platform root ([`Platform::export_root`]).
    pub platform_root: [u8; 32],
    /// Public init-variant code bytes.
    pub init_code: Bytes,
    /// Public first-stage manifest.
    pub init_manifest: Manifest,
    /// Host-storage path of the sealed payload.
    pub bundle_path: String,
    /// Salt of the sealed payload.
    pub sealed_salt: [u8; 16],
    /// Ciphertext of the sealed payload.
    pub sealed_blob: Bytes,
    /// Whether data-plane traffic is encrypted.
    pub encrypt: bool,
    /// Keepalive ping period on the heartbeat lane, in milliseconds.
    /// Zero disables the worker-side pinger (no supervision).
    pub heartbeat_interval_ms: u64,
}

/// Locates the `mvtee-variantd` worker binary: the `MVTEE_VARIANTD`
/// environment variable wins, otherwise the directories around the
/// current executable are searched (`target/<profile>/deps` for test
/// binaries, `target/<profile>` for the experiments binary — both
/// resolve to the sibling `target/<profile>/mvtee-variantd` that a
/// workspace build produces).
///
/// # Errors
///
/// When no candidate resolves to a file, the error lists every path
/// that was searched plus how to fix it — build the workspace binary or
/// point `MVTEE_VARIANTD` at one.
pub fn worker_binary() -> Result<PathBuf> {
    let mut searched = Vec::new();
    if let Ok(path) = std::env::var("MVTEE_VARIANTD") {
        let path = PathBuf::from(path);
        if path.is_file() {
            return Ok(path);
        }
        searched.push(format!("{} (from MVTEE_VARIANTD)", path.display()));
    }
    if let Ok(exe) = std::env::current_exe() {
        let mut dir = exe.parent().map(Path::to_path_buf);
        for _ in 0..3 {
            let Some(d) = dir else { break };
            let candidate = d.join(format!("mvtee-variantd{}", std::env::consts::EXE_SUFFIX));
            if candidate.is_file() {
                return Ok(candidate);
            }
            searched.push(candidate.display().to_string());
            dir = d.parent().map(Path::to_path_buf);
        }
    } else {
        searched.push("<current executable unresolvable>".into());
    }
    Err(MvxError::InvalidConfig(format!(
        "no mvtee-variantd worker binary found; searched: [{}] — build it with \
         `cargo build --bin mvtee-variantd` or set MVTEE_VARIANTD to its path",
        searched.join(", ")
    )))
}

/// How long a resumed worker waits for the monitor to re-send a
/// placement after redialling. A connect can succeed via the retained
/// listener's backlog even when the monitor is not actively
/// reconnecting, so the placement wait needs its own deadline.
const RESUME_PLACEMENT_TIMEOUT: Duration = Duration::from_secs(3);

/// Consecutive failed redial attempts before a resuming worker exits.
const RESUME_MAX_STRIKES: u32 = 5;

/// Pause between redial attempts.
const RESUME_RETRY_DELAY: Duration = Duration::from_millis(50);

/// Waits until `deadline` for a worker to dial the (non-blocking)
/// `listener`: a freshly spawned `child`, or — with `None` — a live
/// worker redialling the port it was first accepted on.
///
/// # Errors
///
/// Says why nobody is connected: no dial in time, `child` exited first,
/// or the accepted socket could not be set up.
pub(crate) fn accept_worker(
    listener: &TcpListener,
    deadline: Instant,
    mut child: Option<&mut Child>,
) -> std::result::Result<TcpTransport, String> {
    let stream = loop {
        match listener.accept() {
            Ok((stream, _)) => break stream,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if let Some(Ok(Some(status))) = child.as_mut().map(|c| c.try_wait()) {
                    return Err(format!("exited before connecting: {status}"));
                }
                if Instant::now() >= deadline {
                    return Err("never connected".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(format!("accept failed: {e}")),
        }
    };
    stream.set_nonblocking(false).map_err(|e| format!("stream blocking: {e}"))?;
    TcpTransport::new(stream).map_err(|e| e.to_string())
}

/// The `mvtee-variantd` worker entry point: connect back to the monitor,
/// receive the placement, then run the standard variant-host main loop
/// over the multiplexed lanes until shutdown or connection loss.
///
/// With `resume` the worker does not exit when its placement ends:
/// it redials the same address — the monitor retains the accept socket
/// — and serves a fresh placement if one arrives. A monitor that has
/// shut down (or never re-places) shows up as consecutive
/// refused/placement-less attempts, after which the worker exits
/// cleanly.
///
/// # Errors
///
/// Fails on first-connection loss, a malformed placement, or any
/// variant-host failure (bootstrap rejection, manifest violation…).
pub fn run_worker(addr: &str, resume: bool) -> Result<()> {
    // The first connection must succeed: failures here are spawn or
    // configuration errors, not transient network loss.
    serve_connection(addr, false)?;
    if !resume {
        return Ok(());
    }
    let mut strikes = 0u32;
    while strikes < RESUME_MAX_STRIKES {
        match serve_connection(addr, true) {
            Ok(()) => strikes = 0,
            Err(_) => {
                strikes += 1;
                std::thread::sleep(RESUME_RETRY_DELAY);
            }
        }
    }
    Ok(())
}

/// One worker connection: dial, split lanes, receive the placement,
/// start the keepalive pinger, run the variant host to completion.
fn serve_connection(addr: &str, resumed: bool) -> Result<()> {
    let transport = TcpTransport::connect(addr)?;
    let lanes = [LANE_BOOTSTRAP, LANE_REQUEST, LANE_RESPONSE, LANE_HEARTBEAT];
    let [boot, request, response, heartbeat]: [MuxLane; 4] =
        mux::split(transport, &lanes).try_into().expect("one lane per requested id");

    let placement_bytes = if resumed {
        boot.recv_frame_deadline(RESUME_PLACEMENT_TIMEOUT)
    } else {
        boot.recv_frame()
    }
    .map_err(|e| MvxError::Transport(format!("placement recv: {e}")))?;
    let placement: WorkerPlacement = crate::messages::decode(&placement_bytes)?;
    // Keepalive starts before bootstrap so the supervisor's first
    // deadline window already sees pings; held until variant_main ends,
    // then dropped (stopping the pinger) with the connection.
    let _keepalive = (placement.heartbeat_interval_ms > 0).then(|| {
        mux::spawn_keepalive(heartbeat, Duration::from_millis(placement.heartbeat_interval_ms))
    });
    variant_main(VariantLaunch {
        placement,
        faults: HostFaults::default(),
        bootstrap: Box::new(boot),
        request: Box::new(request),
        response: Box::new(response),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{decode, encode};

    #[test]
    fn worker_placement_round_trips_through_codec() {
        let placement = WorkerPlacement {
            partition: 1,
            variant_index: 2,
            tee_kind: TeeKind::Sgx,
            platform_root: [7u8; 32],
            init_code: Bytes(b"init".to_vec()),
            init_manifest: Manifest::init_variant("init-p1-v2"),
            bundle_path: "/enc/p1/v2".into(),
            sealed_salt: [9u8; 16],
            sealed_blob: Bytes(vec![1, 2, 3, 4]),
            encrypt: true,
            heartbeat_interval_ms: 250,
        };
        let bytes = encode(&placement).unwrap();
        let back: WorkerPlacement = decode(&bytes).unwrap();
        assert_eq!(back.partition, 1);
        assert_eq!(back.variant_index, 2);
        assert_eq!(back.platform_root, [7u8; 32]);
        assert_eq!(back.init_manifest, placement.init_manifest);
        assert_eq!(back.sealed_salt, [9u8; 16]);
        assert_eq!(back.sealed_blob, Bytes(vec![1, 2, 3, 4]));
        assert!(back.encrypt);
        assert_eq!(back.heartbeat_interval_ms, 250);
    }

    #[test]
    fn worker_binary_resolver_reports_what_it_searched() {
        // Whatever the environment, the resolver either produces a real
        // file or an error naming the searched paths and the override.
        match worker_binary() {
            Ok(bin) => assert!(bin.is_file()),
            Err(e) => {
                let msg = e.to_string();
                assert!(msg.contains("MVTEE_VARIANTD"), "error must hint the override: {msg}");
                assert!(msg.contains("searched"), "error must list searched paths: {msg}");
            }
        }
    }
}
