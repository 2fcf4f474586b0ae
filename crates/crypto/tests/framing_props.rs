//! Property tests for channel framing: arbitrary payload sizes must
//! round-trip bit-exactly through the secure channel, the transport
//! frame cap must hold on both sides of a TCP connection, and a
//! truncated frame — a lossy channel cutting a payload short mid-flight
//! — must always be rejected by the GCM tag, never silently accepted.
//! The lane demultiplexer above the transport must survive anything a
//! peer writes.

use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use mvtee_crypto::mux::{split_into, LANE_BOOTSTRAP, LANE_HEARTBEAT, LANE_REQUEST, LANE_RESPONSE};
use mvtee_crypto::tcp::{loopback_pair, MAX_FRAME_LEN};
use mvtee_crypto::CryptoError;
use proptest::prelude::*;

fn psk_pair(
) -> (SecureChannel<mvtee_crypto::channel::MemoryTransport>, SecureChannel<mvtee_crypto::channel::MemoryTransport>)
{
    let (a, b) = memory_pair();
    let tx = SecureChannel::new(a, &Handshake::from_pre_shared(b"framing-props", Role::Initiator), 1);
    let rx = SecureChannel::new(b, &Handshake::from_pre_shared(b"framing-props", Role::Responder), 1);
    (tx, rx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_payloads_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let (mut tx, mut rx) = psk_pair();
        tx.send(&payload).unwrap();
        prop_assert_eq!(rx.recv().unwrap(), payload);
    }

    #[test]
    fn truncation_is_always_detected(
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        cut in 0usize..10_000,
    ) {
        // Seal a frame, then deliver only a prefix of it — the fault a
        // lossy channel injects when it cuts a frame short. Whatever the
        // cut point, the receiver must error: short prefixes fail
        // framing, longer ones fail the GCM tag. Never Ok.
        let (a, wire) = memory_pair();
        let mut tx = SecureChannel::new(a, &Handshake::from_pre_shared(b"t", Role::Initiator), 3);
        tx.send(&payload).unwrap();
        let frame = wire.recv_frame().unwrap();
        let idx = cut % frame.len(); // frame is never empty: 8-byte seq + 16-byte tag
        let (c, d) = memory_pair();
        c.send_frame(frame[..idx].to_vec()).unwrap();
        let mut rx = SecureChannel::new(d, &Handshake::from_pre_shared(b"t", Role::Responder), 3);
        let result = rx.recv();
        prop_assert!(result.is_err(), "truncation at {} of {} accepted", idx, frame.len());
        if idx >= 8 + 16 {
            // Sequence header intact and at least a tag's worth of sealed
            // bytes present: only the AEAD tag itself can catch it.
            prop_assert!(
                matches!(result, Err(CryptoError::AuthenticationFailed)),
                "expected tag failure at cut {}, got {:?}", idx, result
            );
        } else if idx >= 8 {
            // Cut inside the tag region: too short to even carry a tag.
            prop_assert!(
                matches!(result, Err(CryptoError::CiphertextTooShort { .. })),
                "expected short-ciphertext failure at cut {}, got {:?}", idx, result
            );
        }
    }

    #[test]
    fn arbitrary_payloads_round_trip_over_tcp(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let (client, server) = loopback_pair().unwrap();
        client.send_frame(payload.clone()).unwrap();
        prop_assert_eq!(server.recv_frame().unwrap(), payload);
    }

    /// Whatever a peer writes, the demultiplexer delivers each frame to
    /// its lane (or sink), drops and counts it, or stops on it as a framing
    /// violation — frame by frame as a model predicts, and without
    /// panicking.
    #[test]
    fn the_mux_pump_delivers_drops_or_stops_on_every_frame(
        frames in proptest::collection::vec(
            (
                prop_oneof![1 => Just(None), 4 => (0u8..6).prop_map(Some), 2 => any::<u8>().prop_map(Some)],
                proptest::collection::vec(any::<u8>(), 0..16),
            ),
            0..12,
        ),
    ) {
        let dropped = mvtee_telemetry::counter("crypto.mux.dropped_frames");
        let before = dropped.get();
        let (peer, local) = memory_pair();
        let (sink, tap) = memory_pair();
        // Lanes 0, 1 and 3; 3's endpoint is retired; lane 2 feeds the sink.
        let lanes = [LANE_BOOTSTRAP, LANE_REQUEST, LANE_HEARTBEAT];
        let mut lanes = split_into(local, &lanes, Some((LANE_RESPONSE, Box::new(sink))));
        drop(lanes.pop());

        let mut expected: [Vec<Vec<u8>>; 3] = Default::default(); // lane 0, lane 1, sink
        let (mut expect_dropped, mut violation) = (0, false);
        for (lane, payload) in frames {
            let frame = match lane {
                None => Vec::new(),
                Some(lane) => [&[lane][..], &payload].concat(),
            };
            peer.send_frame(frame).unwrap();
            if violation {
                continue; // never read: the pump stopped
            }
            match lane {
                None => violation = true,
                Some(LANE_BOOTSTRAP) => expected[0].push(payload),
                Some(LANE_REQUEST) => expected[1].push(payload),
                Some(LANE_RESPONSE) => expected[2].push(payload),
                Some(_) => expect_dropped += 1,
            }
        }
        // The hang-up ends the pump after it has read everything before it.
        peer.close();
        let drain = |t: &dyn FrameTransport| std::iter::from_fn(|| t.recv_frame().ok()).collect::<Vec<_>>();
        prop_assert_eq!(&drain(&lanes[0]), &expected[0]);
        prop_assert_eq!(&drain(&lanes[1]), &expected[1]);
        prop_assert_eq!(&drain(&tap), &expected[2]);
        let why = lanes[0].recv_frame();
        if violation {
            prop_assert!(matches!(why, Err(CryptoError::MalformedFrame)), "{:?}", why);
        } else {
            prop_assert!(matches!(why, Err(CryptoError::ConnectionClosed)), "{:?}", why);
        }
        prop_assert_eq!(dropped.get() - before, expect_dropped);
    }
}

#[test]
fn edge_sizes_round_trip() {
    // 0- and 1-byte payloads through the full secure channel.
    for payload in [vec![], vec![0x5a]] {
        let (mut tx, mut rx) = psk_pair();
        tx.send(&payload).unwrap();
        assert_eq!(rx.recv().unwrap(), payload);
    }
}

#[test]
fn max_frame_round_trips_and_max_plus_one_is_rejected() {
    // Raw transport framing at the cap (the AEAD layer above adds its
    // own header, so the cap is a transport property).
    let (client, server) = loopback_pair().unwrap();
    let max = vec![0xabu8; MAX_FRAME_LEN];
    let sender = std::thread::spawn(move || {
        client.send_frame(max).unwrap();
        client
    });
    let got = server.recv_frame().unwrap();
    assert_eq!(got.len(), MAX_FRAME_LEN);
    assert!(got.iter().all(|&b| b == 0xab));
    let client = sender.join().unwrap();

    let over = vec![0u8; MAX_FRAME_LEN + 1];
    assert!(matches!(client.send_frame(over), Err(CryptoError::MalformedFrame)));
}

#[test]
fn oversized_length_prefix_rejected_on_receive() {
    // A malicious peer that skips the sender-side check: write a raw
    // length prefix above the cap straight onto the socket. The receiver
    // must reject before allocating.
    use std::io::Write;
    let (listener, port) = mvtee_crypto::tcp::bind_loopback().unwrap();
    let join = std::thread::spawn(move || {
        let transport = mvtee_crypto::tcp::TcpTransport::accept(&listener).unwrap();
        transport.recv_frame()
    });
    let mut raw = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
    let len = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
    raw.write_all(&len).unwrap();
    raw.flush().unwrap();
    let result = join.join().unwrap();
    assert!(matches!(result, Err(CryptoError::MalformedFrame)));
}
