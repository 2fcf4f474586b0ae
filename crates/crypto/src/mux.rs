//! Lane multiplexing: several [`FrameTransport`] endpoints over one
//! connection.
//!
//! A variant worker process keeps a single TCP connection to the monitor
//! but needs several independent frame streams on it — the plaintext
//! bootstrap exchange, the two directional data-plane channels that
//! each own their own AEAD sequence space, and (for supervised workers)
//! a heartbeat lane. [`split`] turns one transport into N [`MuxLane`]s:
//! every outbound frame is prefixed with its 1-byte lane id, and a
//! demultiplexer thread routes inbound frames to the destination lane's
//! queue — or, with [`split_into`], hands one lane's frames to a sink.
//!
//! Lifecycle: when the underlying connection dies the pump thread exits,
//! every lane's `recv_frame` reports a disconnect and the sink is dropped
//! (how a killed worker process surfaces as a quarantine in the monitor).
//! The pump records *why* it exited, so lanes distinguish an orderly hang-up
//! ([`CryptoError::ConnectionClosed`]) from a wire-protocol violation
//! ([`CryptoError::MalformedFrame`]) — a supervisor treats the former as
//! liveness and the latter as hostility. Conversely, when the *last*
//! lane of a split is dropped the underlying transport is closed, so the
//! remote peer observes the hang-up even though the local pump still
//! holds a reference to the connection.

use crate::channel::FrameTransport;
use crate::{CryptoError, Result};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Lane id for the bootstrap/attestation exchange.
pub const LANE_BOOTSTRAP: u8 = 0;
/// Lane id for stage requests (monitor → variant).
pub const LANE_REQUEST: u8 = 1;
/// Lane id for stage responses (variant → monitor).
pub const LANE_RESPONSE: u8 = 2;
/// Lane id for keepalive heartbeats (variant → monitor).
pub const LANE_HEARTBEAT: u8 = 3;
/// Lane id for model-registry provisioning (tenant → registry): the
/// chunked encrypted upload protocol of `mvtee-registry` runs its
/// begin/push/finalize exchange on this lane so model material shares a
/// connection with the bootstrap and data-plane lanes without ever
/// mixing frame streams.
pub const LANE_PROVISION: u8 = 4;

/// Pump has not exited yet.
const PUMP_RUNNING: u8 = 0;
/// Pump exited because the underlying transport reported a disconnect.
const PUMP_CLOSED: u8 = 1;
/// Pump exited on a wire-protocol violation (frame without a lane id).
const PUMP_VIOLATION: u8 = 2;

/// Closes the shared transport once every lane of a split is gone.
///
/// The pump thread must NOT hold this (only the transport and the exit
/// reason), or the close-on-last-lane-drop lifecycle would never fire.
struct LaneRegistry {
    transport: Arc<dyn FrameTransport + Sync>,
    /// Why the pump thread exited ([`PUMP_RUNNING`] while it is alive).
    exit_reason: Arc<AtomicU8>,
}

impl Drop for LaneRegistry {
    fn drop(&mut self) {
        self.transport.close();
    }
}

/// One multiplexed endpoint of a [`split`] transport.
///
/// Sends prefix the lane id; receives are fed by the shared demux pump.
/// Implements [`FrameTransport`], so a
/// [`SecureChannel`](crate::channel::SecureChannel) or a plaintext
/// framing layer runs over a lane exactly as over a dedicated connection.
pub struct MuxLane {
    lane: u8,
    registry: Arc<LaneRegistry>,
    rx: Mutex<mpsc::Receiver<Vec<u8>>>,
    bytes_out: mvtee_telemetry::Counter,
    bytes_in: mvtee_telemetry::Counter,
}

impl std::fmt::Debug for MuxLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MuxLane({})", self.lane)
    }
}

impl MuxLane {
    /// This endpoint's lane id.
    pub fn lane(&self) -> u8 {
        self.lane
    }

    /// Maps a pump exit to the error the receiving lane should surface:
    /// an orderly disconnect or a framing violation.
    fn disconnect_error(&self) -> CryptoError {
        match self.registry.exit_reason.load(Ordering::Acquire) {
            PUMP_VIOLATION => CryptoError::MalformedFrame,
            _ => CryptoError::ConnectionClosed,
        }
    }

    /// Receives one frame, waiting at most `deadline`.
    ///
    /// This is how a supervisor turns a stalled peer into a diagnosable
    /// event instead of an infinite block.
    ///
    /// # Errors
    ///
    /// * [`CryptoError::RecvTimeout`] if no frame arrived in time,
    /// * [`CryptoError::ConnectionClosed`] on orderly disconnect,
    /// * [`CryptoError::MalformedFrame`] if the pump died on a framing
    ///   violation.
    pub fn recv_frame_deadline(&self, deadline: Duration) -> Result<Vec<u8>> {
        let rx = self.rx.lock().expect("mux lane receiver poisoned");
        match rx.recv_timeout(deadline) {
            Ok(frame) => {
                self.bytes_in.add(1 + frame.len() as u64);
                Ok(frame)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(CryptoError::RecvTimeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(self.disconnect_error()),
        }
    }
}

impl FrameTransport for MuxLane {
    fn send_frame(&self, frame: Vec<u8>) -> Result<()> {
        let mut tagged = Vec::with_capacity(1 + frame.len());
        tagged.push(self.lane);
        tagged.extend_from_slice(&frame);
        self.bytes_out.add(tagged.len() as u64);
        self.registry.transport.send_frame(tagged)
    }

    fn recv_frame(&self) -> Result<Vec<u8>> {
        // A deadline past any `Instant` waits without one.
        self.recv_frame_deadline(Duration::MAX)
    }

    fn close(&self) {
        self.registry.transport.close();
    }
}

/// Splits `transport` into one [`MuxLane`] per entry of `lanes`
/// (returned in the same order) and spawns the demux pump thread.
///
/// Inbound frames with an unknown lane id are dropped (the AEAD layer
/// above each lane makes injection useless anyway); an inbound frame too
/// short to carry a lane id terminates the pump as malformed. Frames for
/// a lane whose endpoint was dropped are discarded while the other lanes
/// keep flowing. Both discard cases are counted on
/// `crypto.mux.dropped_frames` so a chattering or misrouted peer shows
/// up in telemetry instead of vanishing.
pub fn split<T>(transport: T, lanes: &[u8]) -> Vec<MuxLane>
where
    T: FrameTransport + Sync + 'static,
{
    split_into(transport, lanes, None)
}

/// [`split`], with a `(lane, sink)` whose inbound frames the pump hands
/// to `sink.send_frame` itself (no endpoint is returned for that lane;
/// a frame the sink refuses is dropped like one for a retired lane). The
/// pump drops the sink when it exits, so the sink learns of a dead
/// connection, a framing violation or a [`FrameTransport::close`].
pub fn split_into<T>(
    transport: T,
    lanes: &[u8],
    sink: Option<(u8, Box<dyn FrameTransport>)>,
) -> Vec<MuxLane>
where
    T: FrameTransport + Sync + 'static,
{
    let shared: Arc<dyn FrameTransport + Sync> = Arc::new(transport);
    let exit_reason = Arc::new(AtomicU8::new(PUMP_RUNNING));
    let registry = Arc::new(LaneRegistry {
        transport: Arc::clone(&shared),
        exit_reason: Arc::clone(&exit_reason),
    });
    let bytes_out = mvtee_telemetry::counter("crypto.mux.bytes_out");
    let bytes_in = mvtee_telemetry::counter("crypto.mux.bytes_in");
    let dropped_frames = mvtee_telemetry::counter("crypto.mux.dropped_frames");
    let mut senders: HashMap<u8, mpsc::Sender<Vec<u8>>> = HashMap::new();
    let mut endpoints = Vec::with_capacity(lanes.len());
    for &lane in lanes {
        let (tx, rx) = mpsc::channel();
        senders.insert(lane, tx);
        endpoints.push(MuxLane {
            lane,
            registry: Arc::clone(&registry),
            rx: Mutex::new(rx),
            bytes_out: bytes_out.clone(),
            bytes_in: bytes_in.clone(),
        });
    }
    std::thread::Builder::new()
        .name("mux-pump".into())
        .spawn(move || {
            let mut reason = PUMP_CLOSED;
            while let Ok(frame) = shared.recv_frame() {
                let Some((&lane, rest)) = frame.split_first() else {
                    reason = PUMP_VIOLATION; // framing violation: no lane id
                    break;
                };
                let delivered = match (&sink, senders.get(&lane)) {
                    (Some((to, sink)), _) if *to == lane => {
                        // Counted as `recv_frame` would, before the sink's
                        // reader can act on it.
                        bytes_in.add(frame.len() as u64);
                        sink.send_frame(rest.to_vec()).is_ok()
                    }
                    (_, Some(tx)) => tx.send(rest.to_vec()).is_ok(),
                    _ => false, // unknown lane id
                };
                if !delivered {
                    dropped_frames.inc(); // unknown, retired or refused
                }
            }
            exit_reason.store(reason, Ordering::Release);
            // Dropping the senders and the sink here disconnects them all.
        })
        .expect("thread spawn cannot fail");
    endpoints
}

/// A keepalive pinger feeding a [`LANE_HEARTBEAT`] lane.
///
/// The worker side spawns one of these right after splitting its
/// connection; the monitor side watches the peer lane with
/// [`MuxLane::recv_frame_deadline`]. The thread exits on its own when
/// the transport dies (the send fails) or when [`Keepalive::stop`] is
/// called.
pub struct Keepalive {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Keepalive {
    /// Stops the pinger and joins its thread, as dropping the handle does.
    pub fn stop(self) {}
}

impl Drop for Keepalive {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawns a thread that sends a 1-byte ping on `lane` every `interval`
/// until the transport dies or the handle is stopped/dropped.
pub fn spawn_keepalive(lane: MuxLane, interval: Duration) -> Keepalive {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("mux-keepalive".into())
        .spawn(move || {
            // First ping immediately so the supervisor's very first
            // deadline window already sees traffic.
            while !stop_flag.load(Ordering::Acquire) {
                if lane.send_frame(vec![0xA5]).is_err() {
                    break;
                }
                std::thread::sleep(interval);
            }
        })
        .expect("thread spawn cannot fail");
    Keepalive { stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Handshake, Role, SecureChannel};
    use crate::tcp::loopback_pair;

    fn lane_pair() -> (Vec<MuxLane>, Vec<MuxLane>) {
        let (client, server) = loopback_pair().expect("loopback");
        let ids = [LANE_BOOTSTRAP, LANE_REQUEST, LANE_RESPONSE];
        (split(client, &ids), split(server, &ids))
    }

    #[test]
    fn lanes_are_independent_streams() {
        let (a, b) = lane_pair();
        a[0].send_frame(b"boot".to_vec()).unwrap();
        a[2].send_frame(b"resp".to_vec()).unwrap();
        a[1].send_frame(b"req".to_vec()).unwrap();
        // Delivery order across lanes is the wire order, but each lane
        // only ever sees its own frames.
        assert_eq!(b[1].recv_frame().unwrap(), b"req");
        assert_eq!(b[0].recv_frame().unwrap(), b"boot");
        assert_eq!(b[2].recv_frame().unwrap(), b"resp");
    }

    #[test]
    fn secure_channels_run_over_distinct_lanes() {
        let (mut a, mut b) = lane_pair();
        let hs_i = Handshake::from_pre_shared(b"secret", Role::Initiator);
        let hs_r = Handshake::from_pre_shared(b"secret", Role::Responder);
        let mut req_tx = SecureChannel::new(a.remove(1), &hs_i, 0);
        let mut req_rx = SecureChannel::new(b.remove(1), &hs_r, 0);
        let mut resp_rx = SecureChannel::new(a.pop().unwrap(), &hs_i, 1);
        let mut resp_tx = SecureChannel::new(b.pop().unwrap(), &hs_r, 1);
        req_tx.send(b"stage request").unwrap();
        assert_eq!(req_rx.recv().unwrap(), b"stage request");
        resp_tx.send(b"stage response").unwrap();
        assert_eq!(resp_rx.recv().unwrap(), b"stage response");
    }

    #[test]
    fn connection_loss_disconnects_every_lane() {
        let (a, b) = lane_pair();
        drop(b); // last remote lane dropped → remote registry closes TCP
        for lane in &a {
            assert!(lane.recv_frame().is_err(), "lane {} must disconnect", lane.lane());
        }
    }

    #[test]
    fn a_sink_lane_is_fed_by_the_pump_and_dropped_with_it() {
        let (client, server) = loopback_pair().expect("loopback");
        let (sink, tap) = crate::channel::memory_pair();
        let lanes = split_into(server, &[LANE_REQUEST], Some((LANE_RESPONSE, Box::new(sink))));
        assert_eq!(lanes.len(), 1, "no endpoint for the sink lane");
        client.send_frame(vec![LANE_RESPONSE, 1, 2]).unwrap();
        client.send_frame(vec![LANE_REQUEST, 3]).unwrap();
        assert_eq!(tap.recv_frame().unwrap(), vec![1, 2]);
        assert_eq!(lanes[0].recv_frame().unwrap(), vec![3]);
        // The connection dies: the pump exits and drops the sink.
        drop(client);
        assert!(tap.recv_frame().is_err());
    }

    #[test]
    fn dropping_one_lane_keeps_the_others_flowing() {
        let (mut a, b) = lane_pair();
        drop(a.remove(0)); // bootstrap lane retired after attestation
        a[0].send_frame(b"still here".to_vec()).unwrap();
        assert_eq!(b[1].recv_frame().unwrap(), b"still here");
    }

    #[test]
    fn orderly_close_reports_connection_closed() {
        let (a, b) = lane_pair();
        drop(b);
        assert!(matches!(a[0].recv_frame(), Err(CryptoError::ConnectionClosed)));
        // Deadline path maps the same disconnect identically.
        assert!(matches!(
            a[1].recv_frame_deadline(Duration::from_millis(50)),
            Err(CryptoError::ConnectionClosed)
        ));
    }

    #[test]
    fn framing_violation_reports_malformed_frame() {
        let (client, server) = loopback_pair().expect("loopback");
        let lanes = split(server, &[LANE_REQUEST]);
        // An empty frame has no lane id: a wire-protocol violation.
        client.send_frame(Vec::new()).unwrap();
        assert!(matches!(lanes[0].recv_frame(), Err(CryptoError::MalformedFrame)));
    }

    #[test]
    fn recv_frame_deadline_times_out_then_delivers() {
        let (a, b) = lane_pair();
        assert!(matches!(
            b[1].recv_frame_deadline(Duration::from_millis(25)),
            Err(CryptoError::RecvTimeout)
        ));
        a[1].send_frame(b"late".to_vec()).unwrap();
        assert_eq!(b[1].recv_frame_deadline(Duration::from_secs(5)).unwrap(), b"late");
    }

    #[test]
    fn dropped_and_unknown_lane_frames_are_counted() {
        let counter = mvtee_telemetry::counter("crypto.mux.dropped_frames");
        let before = counter.get();
        let (client, server) = loopback_pair().expect("loopback");
        let mut lanes = split(server, &[LANE_BOOTSTRAP, LANE_REQUEST]);
        // Unknown lane id 9: nobody is listening.
        client.send_frame(vec![9, 1, 2, 3]).unwrap();
        // Retired lane: endpoint dropped, frames for it are discarded.
        drop(lanes.remove(0));
        client.send_frame(vec![LANE_BOOTSTRAP, 4, 5]).unwrap();
        // Anchor on the surviving lane so both drops have been pumped.
        client.send_frame(vec![LANE_REQUEST, 6]).unwrap();
        assert_eq!(lanes[0].recv_frame().unwrap(), vec![6]);
        assert_eq!(counter.get() - before, 2);
    }

    #[test]
    fn keepalive_pings_flow_on_heartbeat_lane() {
        let (client, server) = loopback_pair().expect("loopback");
        let mut tx = split(client, &[LANE_HEARTBEAT]);
        let rx = split(server, &[LANE_HEARTBEAT]);
        let keepalive = spawn_keepalive(tx.pop().unwrap(), Duration::from_millis(10));
        let ping = rx[0].recv_frame_deadline(Duration::from_secs(5)).unwrap();
        assert_eq!(ping, vec![0xA5]);
        keepalive.stop();
    }
}
