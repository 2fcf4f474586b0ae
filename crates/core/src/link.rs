//! Data links between the monitor and variant TEEs.
//!
//! A [`DataLink`] wraps a frame transport with the configured protection:
//! AES-GCM-256 with per-direction keys and strict sequence numbers (the
//! paper's default), or plaintext framing (only for the Fig 10
//! no-encryption baseline). Each link is uni-directionally *owned* — the
//! deployment creates separate request and response links per variant so
//! the stage coordinator and its receiver thread never share a cipher
//! state.
//!
//! The transport underneath is dynamic: an in-memory pair for co-located
//! variant threads, or a lane of a multiplexed TCP connection for a
//! variant running as a separate OS process. The protection layer — and
//! therefore every byte on the wire — is identical either way, which is
//! what makes in-process and out-of-process panels conformance-testable
//! against each other.

use mvtee_crypto::channel::{memory_pair, FrameTransport, Handshake, Role, SecureChannel};
use crate::Result;

/// One endpoint of a protected (or deliberately unprotected) link.
pub enum DataLink {
    /// AES-GCM-256 with sequence numbers. Boxed: two ciphers' key state
    /// (round keys + GHASH key powers, ~0.8 KB; on the portable core
    /// pointers to 64 KiB tables instead) dwarfs the plaintext variant.
    Encrypted(Box<SecureChannel<Box<dyn FrameTransport>>>),
    /// Plaintext frames (overhead-measurement baseline only).
    Plain(Box<dyn FrameTransport>),
}

impl std::fmt::Debug for DataLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataLink::Encrypted(c) => {
                write!(f, "DataLink::Encrypted(id={})", c.channel_id())
            }
            DataLink::Plain(_) => write!(f, "DataLink::Plain"),
        }
    }
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
}

impl DataLink {
    /// Builds the encrypted link over an existing transport endpoint using
    /// a session secret agreed during bootstrap. Both endpoints must use
    /// the same `channel_id` and opposite [`Role`]s.
    pub fn encrypted_from_secret(
        transport: impl FrameTransport + 'static,
        secret: &[u8],
        role: Role,
        channel_id: u32,
    ) -> Self {
        let hs = Handshake::from_pre_shared(secret, role);
        let boxed: Box<dyn FrameTransport> = Box::new(transport);
        DataLink::Encrypted(Box::new(SecureChannel::new(boxed, &hs, channel_id)))
    }

    /// Builds a plaintext link (Fig 10 no-encryption baseline only).
    pub fn plain(transport: impl FrameTransport + 'static) -> Self {
        DataLink::Plain(Box::new(transport))
    }

    /// Builds a link per the `encrypt` flag.
    pub fn from_transport(
        transport: impl FrameTransport + 'static,
        encrypt: bool,
        secret: &[u8],
        role: Role,
        channel_id: u32,
    ) -> Self {
        if encrypt {
            Self::encrypted_from_secret(transport, secret, role, channel_id)
        } else {
            Self::plain(transport)
        }
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
