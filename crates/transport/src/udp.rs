//! Real-socket transport: one loopback `std::net::UdpSocket` per node, a
//! receive thread per socket, and bounded channels into the driver loop.
//!
//! Deliberately `std`-thread based — no async runtime. The container
//! vendors all dependencies, and N blocking receive threads parked on
//! loopback sockets are cheap at the scales a single process hosts; the
//! driver loop stays single-threaded and deterministic-ish, mirroring the
//! simulator's event loop.

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use nylon_net::{Endpoint, PeerId};
use nylon_obs::Counters;
use nylon_sim::SimTime;

use crate::clock::LiveClock;
use crate::codec::{self, WireMessage};
use crate::transport::{Arrival, Transport};

/// Receive timeout so threads notice shutdown promptly.
const RECV_TIMEOUT: Duration = Duration::from_millis(20);
/// Longest single block inside `poll`, so far-future deadlines stay
/// responsive to arrivals.
const POLL_SLICE: Duration = Duration::from_millis(50);
/// Arrivals buffered across all receive threads; beyond this, frames are
/// dropped like an overflowing UDP socket buffer (never block — a blocked
/// sender could deadlock shutdown).
const CHANNEL_BOUND: usize = 4096;

nylon_obs::keyed_counters! {
    /// What the live path counts, under the `live` telemetry layer.
    enum Live {
        /// Frames sent to the NAT emulator.
        PacketsSent = "frames sent" => "packets_sent",
        /// Bytes of those frames.
        BytesSent = "frame bytes sent" => "bytes_sent",
        /// Datagrams read off the nodes' sockets.
        PacketsReceived = "datagrams received" => "packets_received",
        /// Datagrams whose frame failed to decode.
        DecodeErrors = "undecodable frame" => "decode_errors",
        /// Decoded frames dropped because the arrival channel was full.
        OverflowDrops = "arrival channel full" => "overflow_drops",
    }
    /// [`Live`] counts.
    struct LiveCounts;
    /// [`LiveCounts`] shared by the driver loop and the receive threads.
    struct AtomicLiveCounts;
}

/// Binds one loopback socket per peer, in peer-id order.
pub fn bind_loopback(peer_count: usize) -> std::io::Result<Vec<UdpSocket>> {
    (0..peer_count).map(|_| UdpSocket::bind(("127.0.0.1", 0))).collect()
}

/// A [`Transport`] over real UDP sockets.
///
/// Every node sends its frames to the NAT emulator's socket (the
/// middlebox owns the virtual address space) and receives on its own
/// socket, each pumped by a dedicated receive thread into one bounded
/// channel the driver loop drains. Dropping the transport stops and joins
/// all threads.
#[derive(Debug)]
pub struct UdpTransport<P> {
    sockets: Vec<UdpSocket>,
    emulator: SocketAddr,
    clock: LiveClock,
    rx: Receiver<Arrival<P>>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    counts: Arc<AtomicLiveCounts>,
}

impl<P: WireMessage + Send + 'static> UdpTransport<P> {
    /// Takes ownership of the nodes' sockets (index = peer id) and starts
    /// one receive thread per socket. `emulator` is where outbound frames
    /// are sent.
    ///
    /// # Panics
    ///
    /// Panics, naming the peer and socket address, if a socket cannot be
    /// cloned or configured for its receive thread.
    pub fn start(
        sockets: Vec<UdpSocket>,
        emulator: SocketAddr,
        clock: LiveClock,
    ) -> std::io::Result<Self> {
        let (tx, rx) = std::sync::mpsc::sync_channel(CHANNEL_BOUND);
        let shutdown = Arc::new(AtomicBool::new(false));
        let counts = Arc::new(AtomicLiveCounts::default());
        let mut threads = Vec::with_capacity(sockets.len());
        for (i, socket) in sockets.iter().enumerate() {
            let peer = PeerId(i as u32);
            let addr = socket
                .local_addr()
                .unwrap_or_else(|e| panic!("UdpTransport: no local address for {peer}: {e}"));
            let sock = socket.try_clone().unwrap_or_else(|e| {
                panic!("UdpTransport: cannot clone socket of {peer} at {addr}: {e}")
            });
            sock.set_read_timeout(Some(RECV_TIMEOUT)).unwrap_or_else(|e| {
                panic!("UdpTransport: cannot set read timeout for {peer} at {addr}: {e}")
            });
            let tx: SyncSender<Arrival<P>> = tx.clone();
            let shutdown = Arc::clone(&shutdown);
            let counts = Arc::clone(&counts);
            let handle = std::thread::Builder::new()
                .name(format!("udp-recv-{peer}"))
                .spawn(move || receive_loop(peer, addr, &sock, &tx, &shutdown, &counts))?;
            threads.push(handle);
        }
        drop(tx);
        Ok(UdpTransport { sockets, emulator, clock, rx, shutdown, threads, counts })
    }

    /// Datagrams discarded because their frame failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.counts.snapshot()[Live::DecodeErrors]
    }

    /// Datagrams discarded because the arrival channel was full (the
    /// user-space analogue of a UDP socket buffer overflowing).
    pub fn overflow_drops(&self) -> u64 {
        self.counts.snapshot()[Live::OverflowDrops]
    }

    /// Reports live-path traffic under the `live` telemetry layer.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.counts.snapshot().report(out, "live");
    }
}

fn receive_loop<P: WireMessage>(
    peer: PeerId,
    addr: SocketAddr,
    sock: &UdpSocket,
    tx: &SyncSender<Arrival<P>>,
    shutdown: &AtomicBool,
    counts: &AtomicLiveCounts,
) {
    let mut buf = [0u8; 65_536];
    while !shutdown.load(Ordering::Relaxed) {
        let len = match sock.recv_from(&mut buf) {
            Ok((len, _)) => len,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => {
                if shutdown.load(Ordering::Relaxed) {
                    break;
                }
                panic!("UdpTransport: receive thread of {peer} at {addr} failed: {e}");
            }
        };
        counts.add(Live::PacketsReceived, 1);
        match codec::decode_frame::<P>(&buf[..len]) {
            Ok(frame) => {
                let arrival = Arrival { to: peer, from_ep: frame.src, payload: frame.payload };
                // try_send, never send: a blocking send could wedge this
                // thread on a full channel while Drop waits to join it.
                // A full buffer drops the datagram — exactly what a real
                // UDP socket buffer does under an overwhelmed receiver.
                match tx.try_send(arrival) {
                    Ok(()) => {}
                    Err(TrySendError::Full(_)) => counts.add(Live::OverflowDrops, 1),
                    Err(TrySendError::Disconnected(_)) => break, // driver gone
                }
            }
            Err(_) => counts.add(Live::DecodeErrors, 1),
        }
    }
}

impl<P> Drop for UdpTransport<P> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<P: WireMessage + Send + 'static> Transport<P> for UdpTransport<P> {
    /// Encodes and ships one frame to the NAT emulator.
    ///
    /// # Panics
    ///
    /// Panics, naming the sending peer, its socket address and the
    /// emulator address, if the socket write fails.
    fn send(
        &mut self,
        _now: SimTime,
        from: PeerId,
        src: Endpoint,
        dst: Endpoint,
        payload: P,
        _payload_bytes: u32,
    ) {
        let frame = codec::encode_frame(src, dst, &payload);
        self.counts.add(Live::PacketsSent, 1);
        self.counts.add(Live::BytesSent, frame.len() as u64);
        let socket = &self.sockets[from.index()];
        socket.send_to(&frame, self.emulator).unwrap_or_else(|e| {
            let local = socket
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "<unknown>".to_string());
            panic!(
                "UdpTransport: send from {from} ({local}) to NAT emulator {} failed: {e}",
                self.emulator
            )
        });
    }

    /// Blocks until the wall clock reaches `deadline`'s instant, returning
    /// arrivals as they land; `None` once the deadline passed and the
    /// channel is drained.
    fn poll(&mut self, deadline: SimTime) -> Option<Arrival<P>> {
        loop {
            match self.rx.try_recv() {
                Ok(a) => return Some(a),
                Err(TryRecvError::Disconnected) => return None, // all threads gone
                Err(TryRecvError::Empty) => {}
            }
            let wait = self.clock.wall_until(deadline)?;
            match self.rx.recv_timeout(wait.min(POLL_SLICE)) {
                Ok(a) => return Some(a),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}
