//! The user-space NAT emulator: a middlebox thread that filters and
//! rewrites real loopback UDP packets with the *same*
//! [`nylon_net::natbox::NatBox`] state machine the simulator uses.
//!
//! Topology of a live run: every node binds a loopback socket (its
//! "private" interface) and addresses peers by their **virtual** endpoints
//! — the synthetic address plan of the simulated fabric, carried in the
//! frame header ([`crate::codec`]). All datagrams physically cross the
//! emulator's socket, which plays the internet-plus-NAT-devices role:
//!
//! 1. the real source socket identifies the sending peer;
//! 2. egress NAT processing maps its private virtual endpoint to a public
//!    one (opening/refreshing holes on its NAT box);
//! 3. the destination virtual endpoint is resolved and ingress filtering
//!    runs on the target's box — `FC`/`RC`/`PRC`/`SYM` behaviour exactly
//!    as on the simulated fabric, because it *is* the fabric's code:
//!    the emulator drives a payload-opaque [`nylon_net::Network`] over real packets;
//! 4. admitted frames get their source endpoint rewritten to the post-NAT
//!    one (the user-space analogue of IP-header rewriting) and are
//!    forwarded to the destination peer's real socket. Rejected frames are
//!    dropped silently, like a NAT drops unsolicited traffic.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nylon_net::{Delivery, DropCounters, NatClass, NetConfig, PeerId};
use nylon_sim::{SimDuration, SimTime};

use crate::clock::LiveClock;
use crate::codec;

/// Payload-opaque fabric: the emulator routes bytes, not messages.
type EmuNet = nylon_net::Network<()>;

/// Interval between NAT garbage-collection sweeps, in virtual time.
const PURGE_EVERY: SimDuration = SimDuration::from_secs(60);
/// Receive timeout so the thread notices shutdown promptly.
const RECV_TIMEOUT: Duration = Duration::from_millis(20);

/// A running NAT emulator; dropping the handle shuts the thread down.
#[derive(Debug)]
pub struct NatEmulator {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    net: Arc<Mutex<EmuNet>>,
    forwarded: Arc<AtomicU64>,
    malformed: Arc<AtomicU64>,
}

impl NatEmulator {
    /// Spawns the middlebox for a peer population.
    ///
    /// `classes` must list the peers in id order (the same order the engine
    /// added them, so both sides agree on the virtual address plan) and
    /// `peer_addrs[i]` must be the real loopback socket of peer `i`.
    /// Latency, jitter and loss of `net_cfg` are ignored — the real wire
    /// supplies those — but the NAT `hole_timeout` is honoured against
    /// `clock`.
    pub fn spawn(
        classes: &[NatClass],
        net_cfg: &NetConfig,
        clock: LiveClock,
        peer_addrs: &[SocketAddr],
    ) -> std::io::Result<NatEmulator> {
        assert_eq!(
            classes.len(),
            peer_addrs.len(),
            "one real socket address per peer class is required"
        );
        let cfg = NetConfig {
            latency: SimDuration::ZERO,
            latency_jitter: SimDuration::ZERO,
            loss_probability: 0.0,
            ..net_cfg.clone()
        };
        let mut net = EmuNet::new(cfg, 0);
        let mut peer_by_real: HashMap<SocketAddr, PeerId> = HashMap::new();
        for (i, class) in classes.iter().enumerate() {
            let id = net.add_peer(*class);
            peer_by_real.insert(peer_addrs[i], id);
        }
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        socket.set_read_timeout(Some(RECV_TIMEOUT))?;
        let addr = socket.local_addr()?;

        let net = Arc::new(Mutex::new(net));
        let shutdown = Arc::new(AtomicBool::new(false));
        let forwarded = Arc::new(AtomicU64::new(0));
        let malformed = Arc::new(AtomicU64::new(0));
        let real_addrs: Vec<SocketAddr> = peer_addrs.to_vec();

        let thread = {
            let net = Arc::clone(&net);
            let shutdown = Arc::clone(&shutdown);
            let forwarded = Arc::clone(&forwarded);
            let malformed = Arc::clone(&malformed);
            std::thread::Builder::new().name("nat-emulator".into()).spawn(move || {
                run_loop(
                    &socket,
                    addr,
                    &net,
                    &clock,
                    &peer_by_real,
                    &real_addrs,
                    &shutdown,
                    &forwarded,
                    &malformed,
                );
            })?
        };
        Ok(NatEmulator { addr, shutdown, thread: Some(thread), net, forwarded, malformed })
    }

    /// The real socket address nodes must send their frames to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Frames forwarded end-to-end so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Datagrams discarded because their frame did not parse.
    pub fn malformed(&self) -> u64 {
        self.malformed.load(Ordering::Relaxed)
    }

    /// Drop counters of the emulated fabric, by cause (`no_mapping`,
    /// `filtered`, `no_route`, …) — the on-wire NAT behaviour, observable.
    pub fn drop_counters(&self) -> DropCounters {
        self.net.lock().expect("emulator lock poisoned").drop_counters()
    }

    /// Replays a mapping-rebind fault on the wire: the peer's NAT box
    /// forgets every mapping and hole and renumbers its public side, so
    /// live traffic towards the old observed endpoints blackholes until
    /// the overlay re-punches — exactly the `rebind` event of a
    /// `nylon-faults` plan, applied to real packets. Returns `false` for
    /// public peers (nothing to rebind).
    pub fn rebind_nat(&self, peer: PeerId) -> bool {
        self.net.lock().expect("emulator lock poisoned").rebind_nat(peer)
    }

    /// Stacks a carrier-grade NAT of `nat_type` onto a natted peer's path
    /// (the `cgn` topology fault of a `nylon-faults` plan, on-wire). Call
    /// before traffic flows — CGN egress rewrites apply to new mappings.
    /// Returns `false` for public peers.
    pub fn stack_cgn(&self, peer: PeerId, nat_type: nylon_net::NatType) -> bool {
        self.net.lock().expect("emulator lock poisoned").stack_cgn(peer, nat_type)
    }

    /// Reports middlebox activity under the `emulator` telemetry layer:
    /// frames forwarded (source endpoints rewritten), malformed frames,
    /// and the fabric's ingress verdicts by drop cause.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        out.counter("emulator", "forwarded", self.forwarded());
        out.counter("emulator", "malformed", self.malformed());
        let drops = self.drop_counters();
        out.counter("emulator", "drop_no_route", drops.no_route);
        out.counter("emulator", "drop_no_mapping", drops.no_mapping);
        out.counter("emulator", "drop_filtered", drops.filtered);
    }
}

impl Drop for NatEmulator {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn run_loop(
    socket: &UdpSocket,
    addr: SocketAddr,
    net: &Mutex<EmuNet>,
    clock: &LiveClock,
    peer_by_real: &HashMap<SocketAddr, PeerId>,
    real_addrs: &[SocketAddr],
    shutdown: &AtomicBool,
    forwarded: &AtomicU64,
    malformed: &AtomicU64,
) {
    let mut buf = [0u8; 65_536];
    let mut last_purge = SimTime::ZERO;
    while !shutdown.load(Ordering::Relaxed) {
        let (len, real_src) = match socket.recv_from(&mut buf) {
            Ok(x) => x,
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
                panic!("NAT emulator at {addr}: receive failed: {e}");
            }
        };
        // Unknown senders and unparseable frames are dropped like line
        // noise; the emulator must survive anything the wire hands it.
        let Some(peer) = peer_by_real.get(&real_src).copied() else { continue };
        let frame = &mut buf[..len];
        let header = match codec::peek_header(frame) {
            Ok(h) => h,
            Err(_) => {
                malformed.fetch_add(1, Ordering::Relaxed);
                continue;
            }
        };
        let now = clock.now_sim();
        let mut fabric = net.lock().expect("emulator lock poisoned");
        if now.saturating_since(last_purge) >= PURGE_EVERY {
            fabric.purge_expired_nat_state(now);
            last_purge = now;
        }
        // Egress NAT (mapping + hole refresh) then immediate ingress
        // filtering — the wire itself adds the latency.
        let Some(flight) = fabric.send(now, peer, header.dst, (), len as u32) else { continue };
        let verdict = fabric.deliver(flight.arrive_at, flight);
        drop(fabric);
        match verdict {
            Delivery::ToPeer { to, from_ep, .. } => {
                if codec::rewrite_src(frame, from_ep).is_err() {
                    malformed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                match socket.send_to(frame, real_addrs[to.index()]) {
                    Ok(_) => {
                        forwarded.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!(
                        "NAT emulator at {addr}: forward to {to} ({}) failed: {e}",
                        real_addrs[to.index()]
                    ),
                }
            }
            Delivery::Dropped { .. } => {} // counted by the fabric, like a real NAT: silence
        }
    }
}
