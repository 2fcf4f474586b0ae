//! Sequence-numbered secure channels (the paper's socket-level RA-TLS
//! analogue, §4.3 / §5.2).
//!
//! All inter-TEE data in MVTEE is "encrypted and authenticated with unique
//! sequence numbers for freshness". A [`SecureChannel`] wraps any duplex
//! byte transport with:
//!
//! * an ephemeral X25519 handshake ([`Handshake`]) whose transcript is
//!   exported for binding into attestation evidence (RA-TLS style),
//! * per-direction AES-GCM-256 keys derived via HKDF,
//! * strictly monotone sequence numbers carried in the AEAD associated
//!   data, so replayed, dropped or reordered frames are rejected.
//!
//! The transport itself is abstracted by [`FrameTransport`]; the TEE
//! substrate provides an in-memory pair and a loopback-TCP implementation.

use crate::gcm::{nonce_from_sequence, AesGcm, TAG_LEN};
use crate::sha256::{derive_key32, hkdf, sha256};
use crate::x25519::EphemeralKeypair;
use crate::{CryptoError, Result};
use std::sync::{mpsc, Mutex};

/// A reliable, ordered, duplex frame transport.
///
/// Implementations deliver whole frames (no partial reads). This mirrors a
/// TCP connection with length-prefixed framing.
pub trait FrameTransport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedFrame`] if the peer is gone.
    fn send_frame(&self, frame: Vec<u8>) -> Result<()>;

    /// Receives one frame, blocking until available.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::MalformedFrame`] if the peer is gone.
    fn recv_frame(&self) -> Result<Vec<u8>>;

    /// Actively tears the transport down so a peer blocked in
    /// `recv_frame` observes a disconnect even while this handle lives on
    /// (a mux pump holds its transport until the peer hangs up).
    fn close(&self) {}
}

impl FrameTransport for Box<dyn FrameTransport> {
    fn send_frame(&self, frame: Vec<u8>) -> Result<()> {
        (**self).send_frame(frame)
    }

    fn recv_frame(&self) -> Result<Vec<u8>> {
        (**self).recv_frame()
    }

    fn close(&self) {
        (**self).close()
    }
}

/// In-memory duplex transport half, built from a pair of mpsc channels.
/// Both ends sit behind mutexes so the transport is `Sync` and can be
/// shared by the mux pump the way the socket transports are; `close`
/// drops the sender, which is how the peer learns of the hang-up.
#[derive(Debug)]
pub struct MemoryTransport {
    tx: Mutex<Option<mpsc::Sender<Vec<u8>>>>,
    rx: Mutex<mpsc::Receiver<Vec<u8>>>,
}

/// Creates a connected pair of in-memory transports.
pub fn memory_pair() -> (MemoryTransport, MemoryTransport) {
    let (tx_a, rx_b) = mpsc::channel();
    let (tx_b, rx_a) = mpsc::channel();
    (
        MemoryTransport { tx: Mutex::new(Some(tx_a)), rx: Mutex::new(rx_a) },
        MemoryTransport { tx: Mutex::new(Some(tx_b)), rx: Mutex::new(rx_b) },
    )
}

impl FrameTransport for MemoryTransport {
    fn send_frame(&self, frame: Vec<u8>) -> Result<()> {
        let sent = self.tx.lock().ok().and_then(|tx| tx.as_ref()?.send(frame).ok());
        sent.ok_or(CryptoError::MalformedFrame)
    }

    fn recv_frame(&self) -> Result<Vec<u8>> {
        let rx = self.rx.lock().map_err(|_| CryptoError::MalformedFrame)?;
        rx.recv().map_err(|_| CryptoError::MalformedFrame)
    }

    fn close(&self) {
        let _ = self.tx.lock().map(|mut tx| tx.take());
    }
}

/// Which side of the handshake this endpoint plays.
///
/// The two roles derive mirrored directional keys: the initiator's send key
/// is the responder's receive key and vice versa.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The connecting side (in MVTEE: usually the monitor).
    Initiator,
    /// The accepting side (in MVTEE: usually a variant TEE).
    Responder,
}

/// The result of a completed handshake, before attestation binding.
#[derive(Debug)]
pub struct Handshake {
    /// SHA-256 of both public keys in initiator-first order. The TEE layer
    /// embeds this in attestation reports so a MITM'd channel fails
    /// verification (RA-TLS binding).
    pub transcript_hash: [u8; 32],
    send_key: [u8; 32],
    recv_key: [u8; 32],
}

impl Handshake {
    /// Runs an ephemeral X25519 handshake over `transport`.
    ///
    /// Both sides call this with their respective [`Role`]s.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::HandshakeFailed`] on malformed peer messages
    /// or transport failure.
    pub fn run<T: FrameTransport>(role: Role, transport: &T) -> Result<Handshake> {
        let timer = mvtee_telemetry::histogram("crypto.channel.handshake_ns").start();
        let result = Self::run_inner(role, transport);
        if result.is_ok() {
            timer.finish();
        } else {
            timer.cancel();
        }
        result
    }

    fn run_inner<T: FrameTransport>(role: Role, transport: &T) -> Result<Handshake> {
        let keypair = EphemeralKeypair::generate();
        transport
            .send_frame(keypair.public.to_vec())
            .map_err(|e| CryptoError::HandshakeFailed(e.to_string()))?;
        let peer = transport
            .recv_frame()
            .map_err(|e| CryptoError::HandshakeFailed(e.to_string()))?;
        if peer.len() != 32 {
            return Err(CryptoError::HandshakeFailed(format!(
                "peer public key of {} bytes",
                peer.len()
            )));
        }
        let mut peer_pk = [0u8; 32];
        peer_pk.copy_from_slice(&peer);
        let shared = keypair.diffie_hellman(&peer_pk);
        if shared == [0u8; 32] {
            return Err(CryptoError::HandshakeFailed("low-order peer point".into()));
        }
        let (first, second) = match role {
            Role::Initiator => (keypair.public, peer_pk),
            Role::Responder => (peer_pk, keypair.public),
        };
        let mut transcript = Vec::with_capacity(64);
        transcript.extend_from_slice(&first);
        transcript.extend_from_slice(&second);
        let transcript_hash = sha256(&transcript);
        let okm = hkdf(&transcript_hash, &shared, b"mvtee-channel-v1", 64);
        let mut i2r = [0u8; 32];
        let mut r2i = [0u8; 32];
        i2r.copy_from_slice(&okm[..32]);
        r2i.copy_from_slice(&okm[32..]);
        let (send_key, recv_key) = match role {
            Role::Initiator => (i2r, r2i),
            Role::Responder => (r2i, i2r),
        };
        Ok(Handshake { transcript_hash, send_key, recv_key })
    }

    /// Derives keys directly from a pre-shared secret instead of a DH
    /// exchange (used for keys released through the attestation protocol,
    /// e.g. the variant-specific key of the two-stage bootstrap).
    pub fn from_pre_shared(secret: &[u8], role: Role) -> Handshake {
        let i2r = derive_key32(secret, "psk-initiator-to-responder");
        let r2i = derive_key32(secret, "psk-responder-to-initiator");
        let (send_key, recv_key) = match role {
            Role::Initiator => (i2r, r2i),
            Role::Responder => (r2i, i2r),
        };
        Handshake { transcript_hash: sha256(secret), send_key, recv_key }
    }
}

/// An established AEAD-protected channel over a [`FrameTransport`].
///
/// Frames carry an 8-byte big-endian sequence number followed by the sealed
/// payload. The sequence number doubles as AEAD associated data and nonce
/// input, so any replay, reorder or truncation fails authentication.
pub struct SecureChannel<T> {
    transport: T,
    send_cipher: AesGcm,
    recv_cipher: AesGcm,
    send_seq: u64,
    recv_seq: u64,
    channel_id: u32,
    /// Running count of payload bytes sent (for overhead accounting in the
    /// Fig 10 experiments).
    pub bytes_sent: u64,
    telemetry: ChannelTelemetry,
}

/// Global telemetry handles shared by every secure channel, fetched once
/// per channel so the send/recv paths record lock-free.
struct ChannelTelemetry {
    bytes_out: mvtee_telemetry::Counter,
    bytes_in: mvtee_telemetry::Counter,
    seal_ns: mvtee_telemetry::Histogram,
    open_ns: mvtee_telemetry::Histogram,
    auth_failures: mvtee_telemetry::Counter,
}

impl ChannelTelemetry {
    fn new() -> Self {
        ChannelTelemetry {
            bytes_out: mvtee_telemetry::counter("crypto.channel.bytes_out"),
            bytes_in: mvtee_telemetry::counter("crypto.channel.bytes_in"),
            seal_ns: mvtee_telemetry::histogram("crypto.channel.seal_ns"),
            open_ns: mvtee_telemetry::histogram("crypto.channel.open_ns"),
            auth_failures: mvtee_telemetry::counter("crypto.channel.auth_failures"),
        }
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SecureChannel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SecureChannel {{ id: {}, send_seq: {}, recv_seq: {} }}",
            self.channel_id, self.send_seq, self.recv_seq
        )
    }
}

impl<T: FrameTransport> SecureChannel<T> {
    /// Wraps `transport` using the keys from a completed handshake.
    pub fn new(transport: T, handshake: &Handshake, channel_id: u32) -> Self {
        SecureChannel {
            transport,
            send_cipher: AesGcm::new_256(&handshake.send_key),
            recv_cipher: AesGcm::new_256(&handshake.recv_key),
            send_seq: 0,
            recv_seq: 0,
            channel_id,
            bytes_sent: 0,
            telemetry: ChannelTelemetry::new(),
        }
    }

    /// Performs the full handshake-then-wrap sequence.
    ///
    /// # Errors
    ///
    /// Propagates handshake failures.
    pub fn establish(role: Role, transport: T, channel_id: u32) -> Result<Self> {
        let hs = Handshake::run(role, &transport)?;
        Ok(Self::new(transport, &hs, channel_id))
    }

    /// Encrypts and sends one message.
    ///
    /// # Errors
    ///
    /// Fails if the transport is disconnected.
    pub fn send(&mut self, payload: &[u8]) -> Result<()> {
        let seq = self.send_seq;
        self.send_seq += 1;
        // Nonce and associated data alike: channel id ‖ sequence number.
        let nonce = nonce_from_sequence(self.channel_id, seq);
        let mut frame = Vec::with_capacity(8 + payload.len() + TAG_LEN);
        frame.extend_from_slice(&seq.to_be_bytes());
        let seal_timer = self.telemetry.seal_ns.start();
        self.send_cipher.seal_into(&nonce, payload, &nonce, &mut frame);
        seal_timer.finish();
        self.bytes_sent += payload.len() as u64;
        self.telemetry.bytes_out.add(payload.len() as u64);
        self.trace("crypto.send", seq, payload.len());
        self.transport.send_frame(frame)
    }

    /// A `crypto.send`/`crypto.recv` trace instant, when tracing is on.
    fn trace(&self, name: &str, seq: u64, bytes: usize) {
        let tracer = mvtee_telemetry::trace::recorder();
        if tracer.is_enabled() {
            let instant = tracer.instant(mvtee_telemetry::trace::current(), name, "crypto");
            drop(instant.arg("channel", self.channel_id).arg("seq", seq).arg("bytes", bytes));
        }
    }

    /// Receives the next frame and [`open`](SecureChannel::open)s it.
    ///
    /// # Errors
    ///
    /// As `open`, and [`CryptoError::MalformedFrame`] on disconnect.
    pub fn recv(&mut self) -> Result<Vec<u8>> {
        let frame = self.transport.recv_frame()?;
        self.open(&frame)
    }

    /// Authenticates and decrypts `frame` as the next message, however it
    /// arrived.
    ///
    /// # Errors
    ///
    /// [`CryptoError::SequenceMismatch`] on replayed/reordered frames,
    /// [`CryptoError::AuthenticationFailed`] on tampering,
    /// [`CryptoError::MalformedFrame`] on truncated frames.
    pub fn open(&mut self, frame: &[u8]) -> Result<Vec<u8>> {
        if frame.len() < 8 {
            return Err(CryptoError::MalformedFrame);
        }
        let seq = u64::from_be_bytes(frame[..8].try_into().expect("sliced"));
        if seq != self.recv_seq {
            return Err(CryptoError::SequenceMismatch { expected: self.recv_seq, actual: seq });
        }
        let nonce = nonce_from_sequence(self.channel_id, seq);
        let open_timer = self.telemetry.open_ns.start();
        let opened = self.recv_cipher.open(&nonce, &frame[8..], &nonce);
        match opened {
            Ok(payload) => {
                open_timer.finish();
                self.recv_seq += 1;
                self.telemetry.bytes_in.add(payload.len() as u64);
                self.trace("crypto.recv", seq, payload.len());
                Ok(payload)
            }
            Err(e) => {
                open_timer.cancel();
                if e == CryptoError::AuthenticationFailed {
                    // A frame that *arrived* but fails AEAD is corruption
                    // or tampering — distinct from disconnects/timeouts,
                    // and the netchaos detection gate audits this count.
                    self.telemetry.auth_failures.inc();
                }
                Err(e)
            }
        }
    }

    /// The transcript-independent channel id.
    pub fn channel_id(&self) -> u32 {
        self.channel_id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn establish_pair() -> (SecureChannel<MemoryTransport>, SecureChannel<MemoryTransport>) {
        let (a, b) = memory_pair();
        let t = thread::spawn(move || SecureChannel::establish(Role::Responder, b, 7).unwrap());
        let ca = SecureChannel::establish(Role::Initiator, a, 7).unwrap();
        let cb = t.join().unwrap();
        (ca, cb)
    }

    #[test]
    fn round_trip_both_directions() {
        let (mut ca, mut cb) = establish_pair();
        ca.send(b"hello variant").unwrap();
        assert_eq!(cb.recv().unwrap(), b"hello variant");
        cb.send(b"hello monitor").unwrap();
        assert_eq!(ca.recv().unwrap(), b"hello monitor");
    }

    #[test]
    fn sequences_advance() {
        let (mut ca, mut cb) = establish_pair();
        for i in 0..10u8 {
            ca.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(cb.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn transcript_hashes_agree() {
        let (a, b) = memory_pair();
        let t = thread::spawn(move || Handshake::run(Role::Responder, &b).unwrap());
        let ha = Handshake::run(Role::Initiator, &a).unwrap();
        let hb = t.join().unwrap();
        assert_eq!(ha.transcript_hash, hb.transcript_hash);
        assert_eq!(ha.send_key, hb.recv_key);
        assert_eq!(ha.recv_key, hb.send_key);
    }

    #[test]
    fn replay_is_rejected() {
        // Tap the wire: capture the sender's frame and deliver it twice.
        let (a, b) = memory_pair();
        let mut tx = SecureChannel::new(a, &Handshake::from_pre_shared(b"k", Role::Initiator), 1);
        tx.send(b"once").unwrap();
        let frame = b.recv_frame().unwrap();
        let (ta, tb) = memory_pair();
        ta.send_frame(frame.clone()).unwrap();
        ta.send_frame(frame).unwrap();
        let mut rx = SecureChannel::new(tb, &Handshake::from_pre_shared(b"k", Role::Responder), 1);
        assert_eq!(rx.recv().unwrap(), b"once");
        assert!(matches!(
            rx.recv(),
            Err(CryptoError::SequenceMismatch { expected: 1, actual: 0 })
        ));
    }

    #[test]
    fn open_checks_what_recv_checks_for_a_frame_carried_elsewhere() {
        let (a, wire) = memory_pair();
        let mut tx = SecureChannel::new(a, &Handshake::from_pre_shared(b"k", Role::Initiator), 1);
        tx.send(b"first").unwrap();
        tx.send(b"second").unwrap();
        let (first, second) = (wire.recv_frame().unwrap(), wire.recv_frame().unwrap());
        // Nothing ever arrives on this channel's own transport.
        let (idle, _peer) = memory_pair();
        let mut rx = SecureChannel::new(idle, &Handshake::from_pre_shared(b"k", Role::Responder), 1);
        assert!(matches!(
            rx.open(&second),
            Err(CryptoError::SequenceMismatch { expected: 0, actual: 1 })
        ));
        assert_eq!(rx.open(&first).unwrap(), b"first");
        assert_eq!(rx.open(&second).unwrap(), b"second");
        assert!(matches!(rx.open(&second), Err(CryptoError::SequenceMismatch { .. })));
    }

    #[test]
    fn closing_a_memory_transport_hangs_up_on_its_peer() {
        let (a, b) = memory_pair();
        a.send_frame(vec![1]).unwrap();
        a.close();
        assert!(a.send_frame(vec![2]).is_err());
        // What was sent before the close still arrives.
        assert_eq!(b.recv_frame().unwrap(), vec![1]);
        assert!(b.recv_frame().is_err());
    }

    #[test]
    fn tampered_frame_rejected() {
        let hs_i = Handshake::from_pre_shared(b"shared", Role::Initiator);
        let hs_r = Handshake::from_pre_shared(b"shared", Role::Responder);
        let (a, b) = memory_pair();
        let mut tx = SecureChannel::new(a, &hs_i, 2);
        tx.send(b"payload").unwrap();
        // Intercept and corrupt.
        let mut frame = b.recv_frame().unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0xff;
        let (c, d) = memory_pair();
        c.send_frame(frame).unwrap();
        let mut rx = SecureChannel::new(d, &hs_r, 2);
        assert!(matches!(rx.recv(), Err(CryptoError::AuthenticationFailed)));
    }

    #[test]
    fn auth_failures_are_counted() {
        let counter = mvtee_telemetry::counter("crypto.channel.auth_failures");
        let before = counter.get();
        let hs_i = Handshake::from_pre_shared(b"count", Role::Initiator);
        let hs_r = Handshake::from_pre_shared(b"count", Role::Responder);
        let (a, b) = memory_pair();
        let mut tx = SecureChannel::new(a, &hs_i, 4);
        tx.send(b"payload").unwrap();
        let mut frame = b.recv_frame().unwrap();
        frame[9] ^= 0x01;
        let (c, d) = memory_pair();
        c.send_frame(frame).unwrap();
        let mut rx = SecureChannel::new(d, &hs_r, 4);
        assert!(matches!(rx.recv(), Err(CryptoError::AuthenticationFailed)));
        // Other tests tamper frames concurrently, so assert growth, not
        // an exact delta.
        assert!(counter.get() > before);
    }

    #[test]
    fn frame_is_sequence_then_sealed_payload() {
        let hs = Handshake::from_pre_shared(b"frame", Role::Initiator);
        let cipher = AesGcm::new_256(&hs.send_key);
        let (a, b) = memory_pair();
        let mut tx = SecureChannel::new(a, &hs, 0x0102_0304);
        for seq in 0..2u64 {
            let payload = vec![seq as u8 + 1; 100];
            tx.send(&payload).unwrap();
            let mut aad = [0u8; 12];
            aad[..4].copy_from_slice(&0x0102_0304u32.to_be_bytes());
            aad[4..].copy_from_slice(&seq.to_be_bytes());
            let mut expected = seq.to_be_bytes().to_vec();
            expected.extend(cipher.seal(&nonce_from_sequence(0x0102_0304, seq), &payload, &aad));
            assert_eq!(b.recv_frame().unwrap(), expected, "seq {seq}");
        }
    }

    #[test]
    fn wrong_channel_id_rejected() {
        let hs_i = Handshake::from_pre_shared(b"shared", Role::Initiator);
        let hs_r = Handshake::from_pre_shared(b"shared", Role::Responder);
        let (a, b) = memory_pair();
        let mut tx = SecureChannel::new(a, &hs_i, 1);
        tx.send(b"payload").unwrap();
        let frame = b.recv_frame().unwrap();
        let (c, d) = memory_pair();
        c.send_frame(frame).unwrap();
        // Receiver expects channel 9: nonce/AAD mismatch => auth failure.
        let mut rx = SecureChannel::new(d, &hs_r, 9);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn short_frame_rejected() {
        let hs = Handshake::from_pre_shared(b"s", Role::Responder);
        let (a, b) = memory_pair();
        a.send_frame(vec![1, 2, 3]).unwrap();
        let mut rx = SecureChannel::new(b, &hs, 0);
        assert!(matches!(rx.recv(), Err(CryptoError::MalformedFrame)));
    }

    #[test]
    fn psk_channels_interoperate() {
        let hs_i = Handshake::from_pre_shared(b"variant-key-123", Role::Initiator);
        let hs_r = Handshake::from_pre_shared(b"variant-key-123", Role::Responder);
        let (a, b) = memory_pair();
        let mut ca = SecureChannel::new(a, &hs_i, 3);
        let mut cb = SecureChannel::new(b, &hs_r, 3);
        ca.send(b"bundle").unwrap();
        assert_eq!(cb.recv().unwrap(), b"bundle");
        cb.send(b"ack").unwrap();
        assert_eq!(ca.recv().unwrap(), b"ack");
    }

    #[test]
    fn bytes_sent_accounting() {
        let (mut ca, _cb) = establish_pair();
        ca.send(&[0u8; 100]).unwrap();
        ca.send(&[0u8; 28]).unwrap();
        assert_eq!(ca.bytes_sent, 128);
    }

    #[test]
    fn disconnected_peer_errors() {
        let hs = Handshake::from_pre_shared(b"s", Role::Initiator);
        let (a, b) = memory_pair();
        drop(b);
        let mut ch = SecureChannel::new(a, &hs, 0);
        assert!(ch.send(b"x").is_err());
    }
}
