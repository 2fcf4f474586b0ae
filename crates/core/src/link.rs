//! Data links between the monitor and variant TEEs.
//!
//! A [`DataLink`] wraps a frame transport with the configured protection:
//! AES-GCM-256 with per-direction keys and strict sequence numbers (the
//! paper's default), or plaintext framing (only for the Fig 10
//! no-encryption baseline). Each link is uni-directionally *owned*: per
//! variant, the monitor seals on a request link and opens a response
//! link, each with its own keys and sequence numbers.
//!
//! The transport underneath is dynamic: an in-memory pair for co-located
//! variant threads, or a lane of a multiplexed TCP connection for a
//! variant running as a separate OS process; a response frame ends in a
//! [`ResponsePort`] either way, which puts it, still sealed and tagged
//! with its partition, in the monitor's inbox. The protection layer
//! — and therefore every byte on the wire — is identical either way,
//! which is what makes in-process and out-of-process panels
//! conformance-testable against each other.

use crate::pipeline::Inbound;
use crate::Result;
use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use mvtee_crypto::CryptoError;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};

/// One endpoint of a protected (or deliberately unprotected) link.
pub enum DataLink {
    /// AES-GCM-256 with sequence numbers. Boxed: two ciphers' key state
    /// (round keys + GHASH key powers, ~0.8 KB; on the portable core
    /// pointers to 64 KiB tables instead) dwarfs the plaintext variant.
    Encrypted(Box<SecureChannel<Box<dyn FrameTransport>>>),
    /// Plaintext frames (overhead-measurement baseline only).
    Plain(Box<dyn FrameTransport>),
}

impl DataLink {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Fails when the peer is gone or encryption fails.
    pub fn send(&mut self, payload: &[u8]) -> Result<()> {
        match self {
            DataLink::Encrypted(c) => c.send(payload).map_err(Into::into),
            DataLink::Plain(t) => t.send_frame(payload.to_vec()).map_err(Into::into),
        }
    }

    /// Receives one message, blocking.
    ///
    /// # Errors
    ///
    /// Fails on disconnect, tampering, or replay.
    pub fn recv(&mut self) -> Result<Vec<u8>> {
        match self {
            DataLink::Encrypted(c) => c.recv().map_err(Into::into),
            DataLink::Plain(t) => t.recv_frame().map_err(Into::into),
        }
    }

    /// [`DataLink::recv`] for a `frame` that arrived some other way.
    ///
    /// # Errors
    ///
    /// Fails on tampering, replay, reordering or truncation.
    pub fn open(&mut self, frame: Vec<u8>) -> Result<Vec<u8>> {
        match self {
            DataLink::Encrypted(c) => c.open(&frame).map_err(Into::into),
            DataLink::Plain(_) => Ok(frame),
        }
    }

    /// Builds a plaintext link (Fig 10 no-encryption baseline only).
    pub fn plain(transport: impl FrameTransport + 'static) -> Self {
        DataLink::Plain(Box::new(transport))
    }

    /// Builds a link per the `encrypt` flag, keyed from a session secret
    /// agreed during bootstrap. Both endpoints must use the same
    /// `channel_id` and opposite [`Role`]s.
    pub fn from_transport(
        transport: impl FrameTransport + 'static,
        encrypt: bool,
        secret: &[u8],
        role: Role,
        channel_id: u32,
    ) -> Self {
        if !encrypt {
            return Self::plain(transport);
        }
        let hs = Handshake::from_pre_shared(secret, role);
        let boxed: Box<dyn FrameTransport> = Box::new(transport);
        DataLink::Encrypted(Box::new(SecureChannel::new(boxed, &hs, channel_id)))
    }

    /// The receive half of a response link, whose frames reach the stage
    /// through its inbox: only ever [`DataLink::open`]ed, it sits on a
    /// transport whose peer is gone.
    pub fn inbound(encrypt: bool, secret: &[u8], role: Role, channel_id: u32) -> Self {
        Self::from_transport(memory_pair().0, encrypt, secret, role, channel_id)
    }
}

/// Monitor-side state for one variant TEE's data plane.
pub struct VariantLink {
    /// Request link (monitor → variant).
    pub tx: DataLink,
    /// Receive half of the response link (variant → monitor), whose
    /// frames arrive through the inbox ([`DataLink::inbound`]).
    pub rx: DataLink,
    /// Human-readable description (for events).
    pub description: String,
}

/// The inbox a [`ResponsePort`] delivers to, its `(partition, variant)`
/// and its epoch.
type Route = (Sender<Inbound>, (usize, usize), u64);

/// The variant's end of a response link: a send-only [`FrameTransport`]
/// putting each frame, unopened, into the monitor's inbox as
/// [`Inbound::Frame`]. Closing or dropping it sends [`Inbound::Closed`]
/// once; sends after that fail.
pub struct ResponsePort(Arc<Mutex<Option<Route>>>);

impl ResponsePort {
    /// A port delivering into `inbox` under `(partition, variant)` and
    /// `epoch`.
    pub fn new(inbox: Sender<Inbound>, at: (usize, usize), epoch: u64) -> Self {
        ResponsePort(Arc::new(Mutex::new(Some((inbox, at, epoch)))))
    }

    /// A handle that re-points this port once it is the variant's.
    pub(crate) fn repoint_handle(&self) -> Repoint {
        Repoint(Arc::clone(&self.0))
    }
}

impl FrameTransport for ResponsePort {
    fn send_frame(&self, frame: Vec<u8>) -> mvtee_crypto::Result<()> {
        let route = self.0.lock().map_err(|_| CryptoError::ConnectionClosed)?;
        let (inbox, at, epoch) = route.as_ref().ok_or(CryptoError::ConnectionClosed)?;
        let frame = Inbound::Frame { at: *at, epoch: *epoch, frame };
        inbox.send(frame).map_err(|_| CryptoError::ConnectionClosed)
    }

    fn recv_frame(&self) -> mvtee_crypto::Result<Vec<u8>> {
        Err(CryptoError::ConnectionClosed)
    }

    fn close(&self) {
        if let Some((inbox, at, epoch)) = self.0.lock().ok().and_then(|mut r| r.take()) {
            let _ = inbox.send(Inbound::Closed { at, epoch });
        }
    }
}

impl Drop for ResponsePort {
    fn drop(&mut self) {
        self.close();
    }
}

/// See [`ResponsePort::repoint_handle`].
pub(crate) struct Repoint(Arc<Mutex<Option<Route>>>);

impl Repoint {
    /// Points the port at `inbox`, keeping its tag, with `first` delivered
    /// there ahead of anything the port sends afterwards. `false`: the
    /// port had closed, or nobody reads `inbox`.
    pub(crate) fn to(self, inbox: Sender<Inbound>, first: Inbound) -> bool {
        let Ok(mut route) = self.0.lock() else { return false };
        match route.as_mut() {
            Some((to, ..)) if inbox.send(first).is_ok() => *to = inbox,
            _ => return false,
        }
        true
    }
}

/// A connected pair of [`DataLink`]s sharing a session secret.
///
/// `channel_id` namespaces the AEAD nonces; each (secret, channel_id)
/// pair must be unique within a deployment — the deployment derives ids
/// from (partition, variant, direction).
pub fn link_pair(encrypt: bool, session_secret: &[u8], channel_id: u32) -> (DataLink, DataLink) {
    let (a, b) = memory_pair();
    (
        DataLink::from_transport(a, encrypt, session_secret, Role::Initiator, channel_id),
        DataLink::from_transport(b, encrypt, session_secret, Role::Responder, channel_id),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn encrypted_round_trip() {
        let (mut a, mut b) = link_pair(true, b"secret", 1);
        a.send(b"checkpoint tensor").unwrap();
        assert_eq!(b.recv().unwrap(), b"checkpoint tensor");
        b.send(b"ack").unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }

    #[test]
    fn plain_round_trip() {
        let (mut a, mut b) = link_pair(false, b"ignored", 1);
        a.send(b"payload").unwrap();
        assert_eq!(b.recv().unwrap(), b"payload");
    }

    #[test]
    fn encrypted_links_with_different_secrets_fail() {
        let failures = mvtee_telemetry::counter("crypto.channel.auth_failures");
        let before = failures.get();
        let (a, b) = memory_pair();
        let mut a = DataLink::from_transport(a, true, b"secret-1", Role::Initiator, 1);
        let mut b = DataLink::from_transport(b, true, b"secret-2", Role::Responder, 1);
        a.send(b"x").unwrap();
        let auth_failed = mvtee_crypto::CryptoError::AuthenticationFailed.to_string();
        assert_eq!(b.recv(), Err(crate::MvxError::Transport(auth_failed)));
        // Sibling tests may tamper frames concurrently: growth, not a delta.
        assert!(failures.get() > before);
    }

    #[test]
    fn dropped_peer_fails_send_and_recv() {
        let (mut a, b) = link_pair(true, b"secret", 1);
        drop(b);
        assert!(a.send(b"x").is_err());
        let (c, mut d) = link_pair(true, b"secret", 1);
        drop(c);
        assert!(d.recv().is_err());
    }

    #[test]
    fn distinct_channel_ids_isolate_nonces() {
        let (mut a1, mut b1) = link_pair(true, b"s", 1);
        let (mut a2, mut b2) = link_pair(true, b"s", 2);
        a1.send(b"one").unwrap();
        a2.send(b"two").unwrap();
        assert_eq!(b1.recv().unwrap(), b"one");
        assert_eq!(b2.recv().unwrap(), b"two");
    }

    fn frame_of(inbound: Inbound) -> Option<((usize, usize), u64, Vec<u8>)> {
        match inbound {
            Inbound::Frame { at, epoch, frame } => Some((at, epoch, frame)),
            _ => None,
        }
    }

    /// A response link whose frames travel through an inbox opens exactly
    /// as one read off its own transport, and the port says once that it
    /// closed.
    #[test]
    fn a_port_tags_frames_for_the_inbound_half_and_closes_once() {
        let (inbox, inbound) = channel();
        let port = ResponsePort::new(inbox, (4, 2), 5);
        let mut variant = DataLink::from_transport(port, true, b"s", Role::Responder, 1);
        let mut stage = DataLink::inbound(true, b"s", Role::Initiator, 1);
        variant.send(b"one").unwrap();
        variant.send(b"two").unwrap();
        for want in [&b"one"[..], b"two"] {
            let (v, epoch, frame) = frame_of(inbound.try_recv().unwrap()).expect("a frame");
            assert_eq!((v, epoch), ((4, 2), 5));
            assert_eq!(stage.open(frame).unwrap(), want);
        }
        assert!(stage.recv().is_err(), "the inbound half has no transport");
        drop(variant);
        assert!(matches!(inbound.try_recv(), Ok(Inbound::Closed { at: (4, 2), epoch: 5 })));
        assert!(inbound.try_recv().is_err(), "closed exactly once");

        let (inbox, inbound) = channel();
        let port = ResponsePort::new(inbox, (0, 0), 0);
        port.close();
        assert!(port.send_frame(vec![1]).is_err());
        drop(port);
        assert!(matches!(inbound.try_recv(), Ok(Inbound::Closed { at: (0, 0), epoch: 0 })));
        assert!(inbound.try_recv().is_err(), "closed exactly once");
    }

    /// Re-pointing keeps the tag and puts its first message ahead of the
    /// port's next frame; a closed port cannot be re-pointed.
    #[test]
    fn a_repointed_port_delivers_behind_its_first_message() {
        let (private, on_probation) = channel();
        let port = ResponsePort::new(private, (2, 1), 3);
        port.send_frame(vec![7]).unwrap();
        let (inbox, stage) = channel();
        assert!(port.repoint_handle().to(inbox.clone(), Inbound::Closed { at: (9, 9), epoch: 9 }));
        port.send_frame(vec![8]).unwrap();
        assert_eq!(frame_of(on_probation.try_recv().unwrap()), Some(((2, 1), 3, vec![7])));
        assert!(matches!(stage.try_recv(), Ok(Inbound::Closed { at: (9, 9), epoch: 9 })));
        assert_eq!(frame_of(stage.try_recv().unwrap()), Some(((2, 1), 3, vec![8])));

        let handle = port.repoint_handle();
        drop(port);
        assert!(matches!(stage.try_recv(), Ok(Inbound::Closed { at: (2, 1), epoch: 3 })));
        assert!(!handle.to(inbox, Inbound::Closed { at: (9, 9), epoch: 9 }));
        assert!(stage.try_recv().is_err(), "nothing delivered for a closed port");
    }

    #[test]
    fn links_over_tcp_interoperate_with_memory_links() {
        // The same session secret and channel id produce the same wire
        // protection regardless of the transport underneath.
        let (client, server) = mvtee_crypto::tcp::loopback_pair().unwrap();
        let mut a = DataLink::from_transport(client, true, b"s", Role::Initiator, 5);
        let mut b = DataLink::from_transport(server, true, b"s", Role::Responder, 5);
        a.send(b"over real sockets").unwrap();
        assert_eq!(b.recv().unwrap(), b"over real sockets");
    }
}
