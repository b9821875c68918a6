//! Real-socket transport: one loopback `std::net::UdpSocket` per node, read
//! by the driver loop itself when the NAT emulator rings its doorbell.
//!
//! Deliberately `std`-based — no async runtime and no receive threads. The
//! container vendors all dependencies, and every datagram a node socket
//! receives was forwarded by the [`crate::NatEmulator`] thread, which names
//! the receiving peer on a channel right after the forward. The driver
//! waits on that channel and reads exactly one datagram from the named
//! socket, so a live stack runs one thread besides the driver whatever the
//! population, idles without a system call, and stays single-threaded and
//! deterministic-ish, mirroring the simulator's event loop.

use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::sync::mpsc::{Receiver, TryRecvError};
use std::time::Duration;

use nylon_net::{Endpoint, PeerId};
use nylon_obs::Counters;
use nylon_sim::SimTime;

use crate::clock::LiveClock;
use crate::codec::{self, WireMessage};
use crate::transport::{Arrival, Transport};

/// How long a read waits for the datagram its doorbell announced. Loopback
/// normally queues a datagram before the emulator's send returns; the wait
/// covers one still in the kernel's backlog. A read that times out found a
/// datagram the receive buffer dropped. The kernel rounds the wait up to a
/// scheduler tick (up to 10 ms).
const READ_TIMEOUT: Duration = Duration::from_millis(1);
/// Longest single block inside `poll`, so far-future deadlines stay
/// responsive to arrivals.
const POLL_SLICE: Duration = Duration::from_millis(50);
/// The largest datagram a socket can hand over.
const MAX_DATAGRAM: usize = 65_536;

nylon_obs::keyed_counters! {
    /// What the live path counts, under the `live` telemetry layer.
    enum Live {
        /// Frames sent to the NAT emulator.
        PacketsSent = "frames sent" => "packets_sent",
        /// Bytes of those frames.
        BytesSent = "frame bytes sent" => "bytes_sent",
        /// Frames whose socket write failed; the frame is lost.
        SendErrors = "socket write failed" => "send_errors",
        /// Datagrams read off the nodes' sockets.
        PacketsReceived = "datagrams received" => "packets_received",
        /// Datagrams whose frame failed to decode.
        DecodeErrors = "undecodable frame" => "decode_errors",
        /// Doorbells whose datagram never reached the socket: the kernel's
        /// receive buffer was full and dropped it.
        OverflowDrops = "receive buffer full" => "overflow_drops",
        /// Doorbells whose socket read failed with an error other than
        /// finding nothing to read.
        RecvErrors = "socket read failed" => "recv_errors",
    }
    /// [`Live`] counts.
    struct LiveCounts;
}

/// Binds one loopback socket per peer, in peer-id order.
pub fn bind_loopback(peer_count: usize) -> std::io::Result<Vec<UdpSocket>> {
    (0..peer_count).map(|_| UdpSocket::bind(("127.0.0.1", 0))).collect()
}

/// A [`Transport`] over real UDP sockets.
///
/// Every node's socket is connected to the NAT emulator's (the middlebox
/// owns the virtual address space), so it sends only there and receives
/// only what the emulator forwarded. The emulator rings a doorbell naming
/// the receiver after each forward; [`Transport::poll`] waits on the
/// doorbells and reads one datagram per ring on the driver thread. No
/// thread belongs to the transport, so dropping it only closes sockets.
#[derive(Debug)]
pub struct UdpTransport<P> {
    sockets: Vec<UdpSocket>,
    doorbell: Receiver<PeerId>,
    clock: LiveClock,
    /// Outbound frames are encoded here, one after the other.
    frame: Vec<u8>,
    /// Inbound datagrams are read here before they decode.
    datagram: Vec<u8>,
    counts: LiveCounts,
    payload: PhantomData<fn() -> P>,
}

impl<P: WireMessage> UdpTransport<P> {
    /// Takes ownership of the nodes' sockets (index = peer id) and connects
    /// each to `emulator`, where outbound frames go. `doorbell` names the
    /// peer whose socket the emulator just forwarded a datagram to.
    pub fn start(
        sockets: Vec<UdpSocket>,
        emulator: SocketAddr,
        doorbell: Receiver<PeerId>,
        clock: LiveClock,
    ) -> std::io::Result<Self> {
        for socket in &sockets {
            socket.connect(emulator)?;
            socket.set_read_timeout(Some(READ_TIMEOUT))?;
        }
        Ok(UdpTransport {
            sockets,
            doorbell,
            clock,
            frame: Vec::with_capacity(512),
            datagram: vec![0; MAX_DATAGRAM],
            counts: LiveCounts::default(),
            payload: PhantomData,
        })
    }

    /// Frames handed to the sockets for the NAT emulator, a failed write
    /// included.
    pub fn packets_sent(&self) -> u64 {
        self.counts[Live::PacketsSent]
    }

    /// Datagrams discarded because their frame failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.counts[Live::DecodeErrors]
    }

    /// Datagrams the emulator forwarded that the receiving socket's kernel
    /// buffer dropped because it was full (read attempts that found
    /// nothing).
    pub fn overflow_drops(&self) -> u64 {
        self.counts[Live::OverflowDrops]
    }

    /// Reports live-path traffic under the `live` telemetry layer.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.counts.report(out, "live");
    }

    /// Reads the one datagram a doorbell announced on `peer`'s socket.
    fn read(&mut self, peer: PeerId) -> Option<Arrival<P>> {
        let len = match self.sockets[peer.index()].recv(&mut self.datagram) {
            Ok(len) => len,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                self.counts.bump(Live::OverflowDrops);
                return None;
            }
            Err(_) => {
                self.counts.bump(Live::RecvErrors);
                return None;
            }
        };
        self.counts.bump(Live::PacketsReceived);
        match codec::decode_frame::<P>(&self.datagram[..len]) {
            Ok(frame) => Some(Arrival { to: peer, from_ep: frame.src, payload: frame.payload }),
            Err(_) => {
                self.counts.bump(Live::DecodeErrors);
                None
            }
        }
    }
}

impl<P: WireMessage> Transport<P> for UdpTransport<P> {
    /// Encodes and ships one frame to the NAT emulator. A failed write
    /// loses the frame, as a full interface queue would, and counts it.
    fn send(
        &mut self,
        _now: SimTime,
        from: PeerId,
        src: Endpoint,
        dst: Endpoint,
        payload: P,
        _payload_bytes: u32,
    ) {
        codec::encode_frame_into(&mut self.frame, src, dst, &payload);
        self.counts.bump(Live::PacketsSent);
        self.counts.add(Live::BytesSent, self.frame.len() as u64);
        if self.sockets[from.index()].send(&self.frame).is_err() {
            self.counts.bump(Live::SendErrors);
        }
    }

    /// Blocks until the wall clock reaches `deadline`'s instant, returning
    /// arrivals as their doorbells ring; `None` once the deadline passed
    /// and no doorbell is pending.
    fn poll(&mut self, deadline: SimTime) -> Option<Arrival<P>> {
        loop {
            let peer = match self.doorbell.try_recv() {
                Ok(peer) => peer,
                Err(TryRecvError::Empty) => {
                    let wait = self.clock.wall_until(deadline)?;
                    match self.doorbell.recv_timeout(wait.min(POLL_SLICE)) {
                        Ok(peer) => peer,
                        Err(_) => continue,
                    }
                }
                Err(TryRecvError::Disconnected) => {
                    // The emulator is gone: nothing arrives any more, but
                    // the wall clock still paces the caller.
                    if let Some(wait) = self.clock.wall_until(deadline) {
                        std::thread::sleep(wait);
                    }
                    return None;
                }
            };
            if let Some(arrival) = self.read(peer) {
                return Some(arrival);
            }
        }
    }
}
