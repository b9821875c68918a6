//! Real-socket transport: one loopback `std::net::UdpSocket` per node, all
//! on the driver thread.
//!
//! Deliberately `std`-based — no async runtime and no threads. The
//! container vendors all dependencies. `send` runs each frame through the
//! [`crate::NatEmulator`]'s middlebox, sends an admitted frame from the
//! sender's socket straight to the receiver's, and notes the receiver in a
//! FIFO; `poll` reads one datagram from each socket the FIFO names, in send
//! order. A live stack thus starts no thread whatever the population,
//! idles without a system call, and stays single-threaded and
//! deterministic-ish, mirroring the simulator's event loop.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::net::{SocketAddr, UdpSocket};
use std::rc::Rc;
use std::time::Duration;

use nylon_net::{Endpoint, PeerId};
use nylon_obs::Counters;
use nylon_sim::SimTime;

use crate::clock::LiveClock;
use crate::codec::{self, WireMessage};
use crate::natemu::{Emu, Middlebox, NatEmulator};
use crate::transport::{Arrival, Transport};

/// How long a read waits for the datagram its FIFO entry announced.
/// Loopback queues a datagram before the sender's `send_to` returns, so a
/// read that times out found a datagram the receive buffer dropped. The
/// kernel rounds the wait up to a scheduler tick (up to 10 ms).
const READ_TIMEOUT: Duration = Duration::from_millis(1);
/// The largest datagram a socket can hand over.
const MAX_DATAGRAM: usize = 65_536;

nylon_obs::keyed_counters! {
    /// What the live path counts, under the `live` telemetry layer.
    enum Live {
        /// Frames handed to the transport.
        PacketsSent = "frames sent" => "packets_sent",
        /// Bytes of those frames.
        BytesSent = "frame bytes sent" => "bytes_sent",
        /// Admitted frames whose socket write failed; the frame is lost.
        SendErrors = "socket write failed" => "send_errors",
        /// Datagrams read off the nodes' sockets.
        PacketsReceived = "datagrams received" => "packets_received",
        /// Datagrams whose frame failed to decode.
        DecodeErrors = "undecodable frame" => "decode_errors",
        /// Forwarded frames that never reached the socket: the kernel's
        /// receive buffer was full and dropped them.
        OverflowDrops = "receive buffer full" => "overflow_drops",
        /// Reads for a forwarded frame that failed with an error other
        /// than finding nothing to read.
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
/// The NAT emulator's middlebox (the owner of the virtual address space)
/// decides every frame's fate inside [`Transport::send`]; an admitted
/// frame goes from the sender's socket to the receiver's, and
/// [`Transport::poll`] reads it there. No thread belongs to the transport,
/// so dropping it only closes sockets.
///
/// Every frame `send` takes ends in exactly one place: read
/// (`live/packets_received`), `live/overflow_drops`, `live/recv_errors`,
/// `live/send_errors`, one of the fabric's `emulator/drop_*`, or
/// `emulator/malformed` — or it waits in the FIFO for `poll`.
/// [`UdpTransport::unaccounted`] is what that law leaves over.
#[derive(Debug)]
pub struct UdpTransport<P> {
    sockets: Vec<UdpSocket>,
    /// `addrs[i]` is the real address of peer `i`'s socket.
    addrs: Vec<SocketAddr>,
    /// The same addresses, sorted, to tell the stack's senders from
    /// outsiders: no node socket is connected, so the kernel filters none.
    known: Vec<SocketAddr>,
    middlebox: Rc<RefCell<Middlebox>>,
    /// The receiver of each forwarded frame not yet read, in send order.
    arrivals: VecDeque<PeerId>,
    clock: LiveClock,
    /// Outbound frames are encoded here, one after the other.
    frame: Vec<u8>,
    /// Inbound datagrams are read here before they decode.
    datagram: Vec<u8>,
    counts: LiveCounts,
    payload: PhantomData<fn() -> P>,
}

impl<P: WireMessage> UdpTransport<P> {
    /// Takes ownership of the nodes' sockets (index = peer id) and routes
    /// every frame through `emulator`'s middlebox, at `clock`'s instants.
    pub fn start(
        sockets: Vec<UdpSocket>,
        emulator: &NatEmulator,
        clock: LiveClock,
    ) -> std::io::Result<Self> {
        let mut addrs = Vec::with_capacity(sockets.len());
        for socket in &sockets {
            socket.set_read_timeout(Some(READ_TIMEOUT))?;
            addrs.push(socket.local_addr()?);
        }
        let mut known = addrs.clone();
        known.sort_unstable();
        Ok(UdpTransport {
            sockets,
            addrs,
            known,
            middlebox: emulator.middlebox(),
            arrivals: VecDeque::new(),
            clock,
            frame: Vec::with_capacity(512),
            datagram: vec![0; MAX_DATAGRAM],
            counts: LiveCounts::default(),
            payload: PhantomData,
        })
    }

    /// Frames handed to the transport, refused and failed ones included.
    pub fn packets_sent(&self) -> u64 {
        self.counts[Live::PacketsSent]
    }

    /// Datagrams discarded because their frame failed to decode.
    pub fn decode_errors(&self) -> u64 {
        self.counts[Live::DecodeErrors]
    }

    /// Forwarded frames that the receiving socket's kernel buffer dropped
    /// because it was full (read attempts that found nothing).
    pub fn overflow_drops(&self) -> u64 {
        self.counts[Live::OverflowDrops]
    }

    /// Frames sent that ended in no counted place and wait in no FIFO
    /// entry: zero unless the transport lost track of one.
    pub fn unaccounted(&self) -> u64 {
        let c = &self.counts;
        let accounted = c[Live::PacketsReceived]
            + c[Live::OverflowDrops]
            + c[Live::RecvErrors]
            + c[Live::SendErrors]
            + self.middlebox.borrow().refused()
            + self.arrivals.len() as u64;
        c[Live::PacketsSent].saturating_sub(accounted)
    }

    /// Reports live-path traffic under the `live` telemetry layer.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.counts.report(out, "live");
    }

    /// Reads the one datagram a FIFO entry announced on `peer`'s socket,
    /// skipping (and counting) any an outside socket sent there.
    fn read(&mut self, peer: PeerId) -> Option<Arrival<P>> {
        let len = loop {
            match self.sockets[peer.index()].recv_from(&mut self.datagram) {
                Ok((len, src)) if self.known.binary_search(&src).is_ok() => break len,
                Ok(_) => self.middlebox.borrow_mut().counts.bump(Emu::OutsideSenders),
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
    /// Encodes a frame, runs it through the NAT emulator's middlebox and
    /// sends an admitted frame from the sender's socket to the receiver's.
    /// A failed write loses the frame, as a full interface queue would, and
    /// counts it.
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
        let mut middlebox = self.middlebox.borrow_mut();
        let Some(to) = middlebox.admit(self.clock.now_sim(), from, &mut self.frame) else {
            return;
        };
        match self.sockets[from.index()].send_to(&self.frame, self.addrs[to.index()]) {
            Ok(_) => {
                middlebox.counts.bump(Emu::Forwarded);
                self.arrivals.push_back(to);
            }
            Err(_) => self.counts.bump(Live::SendErrors),
        }
    }

    /// Returns the forwarded frames in send order, then blocks until the
    /// wall clock reaches `deadline`'s instant and returns `None`. Every
    /// datagram comes from this thread's own sends, so none can arrive
    /// while it sleeps.
    fn poll(&mut self, deadline: SimTime) -> Option<Arrival<P>> {
        while let Some(peer) = self.arrivals.pop_front() {
            if let Some(arrival) = self.read(peer) {
                return Some(arrival);
            }
        }
        if let Some(wait) = self.clock.wall_until(deadline) {
            std::thread::sleep(wait);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::live::udp_over_emulated_nat;
    use nylon::NylonMsg;
    use nylon_net::{private_endpoint, NatClass, NetConfig};

    /// A node socket takes datagrams from anyone: one from outside the
    /// stack is counted and skipped, and the frame its FIFO entry
    /// announced is still read.
    #[test]
    fn a_datagram_from_outside_the_stack_is_skipped_and_counted() {
        let classes = [NatClass::Public; 2];
        let net_cfg = NetConfig::default();
        let clock = LiveClock::start_now();
        let (mut transport, emulator) =
            udp_over_emulated_nat::<NylonMsg>(&classes, &net_cfg, clock.clone()).unwrap();
        let outsider = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        outsider.send_to(b"not a frame", transport.addrs[1]).unwrap();

        let plan: crate::SimTransport<NylonMsg> = crate::SimTransport::new(&classes, net_cfg, 0);
        let (from, to) = (PeerId(0), PeerId(1));
        let ping = NylonMsg::Ping { from };
        let dst = plan.net().identity_endpoint(to);
        transport.send(clock.now_sim(), from, private_endpoint(from), dst, ping, 8);

        let arrival = transport.poll(clock.now_sim()).expect("the frame sent is read");
        assert_eq!(arrival.to, to);
        assert!(matches!(arrival.payload, NylonMsg::Ping { from: PeerId(0) }));
        assert!(transport.poll(clock.now_sim()).is_none());
        let mut out = nylon_obs::Report::new();
        emulator.obs_report(&mut out);
        let outside = out.get("emulator", "outside_senders");
        assert_eq!(outside, Some(&nylon_obs::MetricValue::Counter(1)));
        assert_eq!((transport.packets_sent(), transport.counts[Live::PacketsReceived]), (1, 1));
        assert_eq!(transport.unaccounted(), 0);
    }
}
