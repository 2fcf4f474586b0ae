//! Loopback-TCP frame transport: the wire-level counterpart of the
//! in-memory transport, for distributed-setting demonstrations.
//!
//! The paper's monitor–variant channels run over TCP/IP sockets; MVTEE
//! "can be deployed either in a co-located or distributed setting". This
//! transport carries the same length-prefixed frames as
//! [`crate::channel::MemoryTransport`] over a real TCP connection, so a
//! [`crate::channel::SecureChannel`] works identically over either.
//!
//! Framing: 4-byte big-endian length, then the frame bytes. Frames are
//! capped at [`MAX_FRAME_LEN`], and a frame's buffer grows with the bytes
//! received, so a bare length prefix costs a few KiB, not its claim.

use crate::channel::FrameTransport;
use crate::{CryptoError, Result};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;

/// Upper bound on a single frame (64 MiB — far above any checkpoint
/// payload at the evaluated scales).
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// What a frame's buffer holds before any of its bytes arrive: frames up
/// to this size are read into one exact allocation, longer ones grow from
/// here by doubling as their bytes arrive.
const FIRST_READ_LEN: usize = 4096;

/// A TCP-backed [`FrameTransport`].
///
/// Internally the stream is split behind mutexes so `send_frame` and
/// `recv_frame` may be used from the sending and receiving sides of the
/// secure-channel machinery without additional locking by the caller.
#[derive(Debug)]
pub struct TcpTransport {
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
}

impl TcpTransport {
    /// Wraps an established TCP stream.
    ///
    /// # Errors
    ///
    /// Fails when the stream cannot be duplicated for split ownership.
    pub fn new(stream: TcpStream) -> Result<Self> {
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone().map_err(|_| CryptoError::MalformedFrame)?;
        Ok(TcpTransport { reader: Mutex::new(reader), writer: Mutex::new(stream) })
    }

    /// Connects to a listening peer.
    ///
    /// # Errors
    ///
    /// Fails when the connection cannot be established.
    pub fn connect(addr: &str) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(|_| {
            CryptoError::HandshakeFailed(format!("tcp connect to {addr} failed"))
        })?;
        Self::new(stream)
    }

    /// Accepts one inbound connection on `listener`.
    ///
    /// # Errors
    ///
    /// Fails when accepting fails.
    pub fn accept(listener: &TcpListener) -> Result<Self> {
        let (stream, _) = listener
            .accept()
            .map_err(|_| CryptoError::HandshakeFailed("tcp accept failed".into()))?;
        Self::new(stream)
    }
}

/// Binds a loopback listener on an OS-assigned port (port 0) and returns
/// it with the port actually chosen. Every loopback rendezvous — tests,
/// worker-process spawning — goes through this, so parallel runs never
/// collide on a fixed port.
///
/// # Errors
///
/// Fails when the loopback interface cannot be bound at all.
pub fn bind_loopback() -> Result<(TcpListener, u16)> {
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|_| CryptoError::HandshakeFailed("loopback bind failed".into()))?;
    let port = listener
        .local_addr()
        .map_err(|_| CryptoError::HandshakeFailed("loopback addr unavailable".into()))?
        .port();
    Ok((listener, port))
}

/// Creates a connected loopback pair (client, server) over an ephemeral
/// port — the TCP analogue of [`crate::channel::memory_pair`].
///
/// # Errors
///
/// Fails when binding, connecting or accepting fails.
pub fn loopback_pair() -> Result<(TcpTransport, TcpTransport)> {
    let (listener, port) = bind_loopback()?;
    let join = std::thread::spawn(move || TcpTransport::accept(&listener));
    let client = TcpTransport::connect(&format!("127.0.0.1:{port}"))?;
    let server = join
        .join()
        .map_err(|_| CryptoError::HandshakeFailed("accept thread panicked".into()))??;
    Ok((client, server))
}

impl FrameTransport for TcpTransport {
    fn send_frame(&self, frame: Vec<u8>) -> Result<()> {
        if frame.len() > MAX_FRAME_LEN {
            return Err(CryptoError::MalformedFrame);
        }
        let mut writer = self.writer.lock().expect("tcp writer poisoned");
        let len = (frame.len() as u32).to_be_bytes();
        writer.write_all(&len).map_err(|_| CryptoError::MalformedFrame)?;
        writer.write_all(&frame).map_err(|_| CryptoError::MalformedFrame)?;
        writer.flush().map_err(|_| CryptoError::MalformedFrame)?;
        Ok(())
    }

    fn recv_frame(&self) -> Result<Vec<u8>> {
        let mut reader = self.reader.lock().expect("tcp reader poisoned");
        let mut len_buf = [0u8; 4];
        reader.read_exact(&mut len_buf).map_err(|_| CryptoError::MalformedFrame)?;
        let len = u32::from_be_bytes(len_buf) as usize;
        if len > MAX_FRAME_LEN {
            return Err(CryptoError::MalformedFrame);
        }
        // The prefix is unauthenticated: the buffer starts small and grows
        // with the bytes that actually arrive, never with the claim.
        let mut frame = Vec::with_capacity(len.min(FIRST_READ_LEN));
        let read = (&mut *reader).take(len as u64).read_to_end(&mut frame);
        match read {
            Ok(n) if n == len => Ok(frame),
            _ => Err(CryptoError::MalformedFrame),
        }
    }

    fn close(&self) {
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.shutdown(std::net::Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{Role, SecureChannel};
    use std::thread;

    fn loopback_pair() -> (TcpTransport, TcpTransport) {
        super::loopback_pair().expect("loopback pair")
    }

    #[test]
    fn bind_loopback_reports_the_chosen_port() {
        let (listener, port) = bind_loopback().expect("bind");
        assert_ne!(port, 0, "the OS-assigned port must be propagated, not the wildcard");
        assert_eq!(listener.local_addr().expect("addr").port(), port);
    }

    #[test]
    fn parallel_loopback_pairs_never_collide() {
        // Each pair binds its own ephemeral port; a fixed port would make
        // one of these binds fail or cross-connect.
        let pairs: Vec<_> = (0..4).map(|_| loopback_pair()).collect();
        for (i, (client, server)) in pairs.iter().enumerate() {
            client.send_frame(vec![i as u8]).unwrap();
            assert_eq!(server.recv_frame().unwrap(), vec![i as u8]);
        }
    }

    #[test]
    fn close_unblocks_the_peer() {
        let (client, server) = loopback_pair();
        let join = thread::spawn(move || server.recv_frame());
        client.close();
        assert!(join.join().expect("recv thread").is_err());
    }

    #[test]
    fn frames_round_trip_over_tcp() {
        let (client, server) = loopback_pair();
        client.send_frame(b"hello over tcp".to_vec()).unwrap();
        assert_eq!(server.recv_frame().unwrap(), b"hello over tcp");
        server.send_frame(vec![0u8; 100_000]).unwrap();
        assert_eq!(client.recv_frame().unwrap().len(), 100_000);
    }

    #[test]
    fn empty_frames_allowed() {
        let (client, server) = loopback_pair();
        client.send_frame(Vec::new()).unwrap();
        assert_eq!(server.recv_frame().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn oversized_frame_rejected_on_send() {
        let (client, _server) = loopback_pair();
        let huge = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(client.send_frame(huge), Err(CryptoError::MalformedFrame)));
    }

    #[test]
    fn disconnect_surfaces_as_error() {
        let (client, server) = loopback_pair();
        drop(server);
        // Depending on timing the first send may be buffered; the read
        // side must error.
        let _ = client.send_frame(b"into the void".to_vec());
        assert!(client.recv_frame().is_err());
    }

    #[test]
    fn secure_channel_runs_over_tcp() {
        let (client, server) = loopback_pair();
        let join = thread::spawn(move || {
            SecureChannel::establish(Role::Responder, server, 9).expect("responder")
        });
        let mut c = SecureChannel::establish(Role::Initiator, client, 9).expect("initiator");
        let mut s = join.join().expect("thread");
        c.send(b"checkpoint tensor over real sockets").unwrap();
        assert_eq!(s.recv().unwrap(), b"checkpoint tensor over real sockets");
        s.send(b"ack").unwrap();
        assert_eq!(c.recv().unwrap(), b"ack");
    }

    #[test]
    fn tampering_on_the_wire_is_detected() {
        // A MITM TCP hop that flips one byte of every frame.
        let (client, mitm_side) = loopback_pair();
        let (mitm_out, server) = loopback_pair();
        thread::spawn(move || {
            while let Ok(mut frame) = mitm_side.recv_frame() {
                if !frame.is_empty() {
                    let last = frame.len() - 1;
                    frame[last] ^= 0x01;
                }
                if mitm_out.send_frame(frame).is_err() {
                    break;
                }
            }
        });
        // Pre-shared-key channel (the handshake itself would also fail
        // under tampering; PSK isolates the data-plane check).
        use crate::channel::Handshake;
        let mut tx =
            SecureChannel::new(client, &Handshake::from_pre_shared(b"k", Role::Initiator), 1);
        let mut rx =
            SecureChannel::new(server, &Handshake::from_pre_shared(b"k", Role::Responder), 1);
        tx.send(b"integrity matters").unwrap();
        assert!(matches!(rx.recv(), Err(CryptoError::AuthenticationFailed)));
    }
}
