//! The NAT device state machine: mappings, filtering rules, hole expiry.
//!
//! A box costs nothing until it carries traffic: the one cone mapping a
//! subscriber box ever holds lives inline (`ConeTable`), the tables only
//! some boxes need — symmetric mappings, UPnP forwardings — are allocated
//! on first use, and [`NatBox::new`] plus [`NatBox::stable_public_endpoint`]
//! touch no heap. A box lives only on the worker owning the peer behind it.

use nylon_sim::{SimDuration, SimTime};

use crate::addr::{Endpoint, Ip, Port};
use crate::densemap::{DenseKey, DenseMap};
use crate::nat::NatType;
use crate::network::DropReason;

/// A session: one (private endpoint → remote endpoint) flow with an expiry.
///
/// The paper: "The public IP address and port mapping, as well as the
/// filtering rule, only remain valid a limited time after the last message
/// was sent (or received) in a session."
#[derive(Debug, Clone, Copy, Default)]
struct Session {
    expires: SimTime,
}

/// State of an endpoint-independent (cone) mapping for one private endpoint.
#[derive(Debug, Clone, Default)]
struct ConeMapping {
    /// The stable public port reserved for this private endpoint — the
    /// peer's durable identity, which is why purging never removes the
    /// mapping itself (only expired sessions).
    port: Port,
    /// Live sessions keyed by remote endpoint.
    sessions: DenseMap<Endpoint, Session>,
    /// Largest expiry over all sessions ever noted. Sessions only gain
    /// lifetime (inserts/refreshes), and purging removes only expired
    /// ones, so `max_expires > now` is *exactly* "some session is live" —
    /// without scanning the session map on every inbound packet.
    max_expires: SimTime,
}

impl ConeMapping {
    fn new(port: Port) -> Self {
        ConeMapping { port, sessions: DenseMap::new(), max_expires: SimTime::ZERO }
    }

    fn live(&self, now: SimTime) -> bool {
        self.max_expires > now
    }

    /// Inserts or refreshes the session towards `remote`.
    fn note(&mut self, remote: Endpoint, expires: SimTime) {
        self.sessions.insert(remote, Session { expires });
        self.max_expires = self.max_expires.max(expires);
    }

    /// Endpoint-restricted admission: some live session towards `ip`. The
    /// exact-endpoint probe settles the common case (the sender we are
    /// already talking to) with one hash lookup; only misses scan.
    fn admits_ip(&self, now: SimTime, src: Endpoint) -> bool {
        if self.sessions.get(&src).is_some_and(|s| s.expires > now) {
            return true;
        }
        self.sessions.iter().any(|(r, s)| s.expires > now && r.ip == src.ip)
    }

    /// The filtering rule of a cone box of `nat_type` applied to `src`.
    fn admits(&self, nat_type: NatType, now: SimTime, src: Endpoint) -> bool {
        match nat_type {
            NatType::FullCone => true,
            NatType::RestrictedCone => self.admits_ip(now, src),
            NatType::PortRestrictedCone => self.sessions.get(&src).is_some_and(|s| s.expires > now),
            NatType::Symmetric => unreachable!("cone mapping on a symmetric box"),
        }
    }
}

/// The cone mappings of a box, one per private endpoint behind it.
///
/// A subscriber box fronts exactly one private endpoint, so the first
/// mapping lives inline and resolving a private endpoint or a public port
/// is one comparison. Only a carrier-grade box stacked over a *symmetric*
/// subscriber box sees more — one per mapping of the inner box — and then
/// everything moves into maps.
#[derive(Debug, Clone, Default)]
enum ConeTable {
    #[default]
    Empty,
    One(Endpoint, ConeMapping),
    Many(Box<ConeMaps>),
}

#[derive(Debug, Clone, Default)]
struct ConeMaps {
    by_private: DenseMap<Endpoint, ConeMapping>,
    /// Reverse index: public port → owning private endpoint.
    by_port: DenseMap<Port, Endpoint>,
}

impl ConeTable {
    fn get(&self, private: &Endpoint) -> Option<&ConeMapping> {
        match self {
            ConeTable::One(p, m) if p == private => Some(m),
            ConeTable::Many(maps) => maps.by_private.get(private),
            _ => None,
        }
    }

    fn get_mut(&mut self, private: &Endpoint) -> Option<&mut ConeMapping> {
        match self {
            ConeTable::One(p, m) if p == private => Some(m),
            ConeTable::Many(maps) => maps.by_private.get_mut(private),
            _ => None,
        }
    }

    /// The mapping holding public `port`, with its private endpoint.
    fn at_port(&self, port: Port) -> Option<(Endpoint, &ConeMapping)> {
        match self {
            ConeTable::One(p, m) if m.port == port => Some((*p, m)),
            ConeTable::Many(maps) => {
                let private = *maps.by_port.get(&port)?;
                Some((private, maps.by_private.get(&private)?))
            }
            _ => None,
        }
    }

    /// Adds the mapping of a private endpoint not yet in the table.
    fn insert(&mut self, private: Endpoint, mapping: ConeMapping) {
        match std::mem::take(self) {
            ConeTable::Empty => *self = ConeTable::One(private, mapping),
            ConeTable::One(first, first_mapping) => {
                let mut maps = Box::<ConeMaps>::default();
                for (p, m) in [(first, first_mapping), (private, mapping)] {
                    maps.by_port.insert(m.port, p);
                    maps.by_private.insert(p, m);
                }
                *self = ConeTable::Many(maps);
            }
            ConeTable::Many(mut maps) => {
                maps.by_port.insert(mapping.port, private);
                maps.by_private.insert(private, mapping);
                *self = ConeTable::Many(maps);
            }
        }
    }

    /// Moves the mapping of `private` to `port`.
    fn move_port(&mut self, private: &Endpoint, port: Port) -> &mut ConeMapping {
        if let ConeTable::Many(maps) = self {
            let old = maps.by_private.get(private).expect("mapping exists").port;
            maps.by_port.remove(&old);
            maps.by_port.insert(port, *private);
        }
        let mapping = self.get_mut(private).expect("mapping exists");
        mapping.port = port;
        mapping
    }

    fn iter(&self) -> impl Iterator<Item = (Endpoint, &ConeMapping)> {
        let (one, many) = match self {
            ConeTable::Empty => (None, None),
            ConeTable::One(p, m) => (Some((*p, m)), None),
            ConeTable::Many(maps) => (None, Some(maps.by_private.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = (Endpoint, &mut ConeMapping)> {
        let (one, many) = match self {
            ConeTable::Empty => (None, None),
            ConeTable::One(p, m) => (Some((*p, m)), None),
            ConeTable::Many(maps) => (None, Some(maps.by_private.iter_mut())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }
}

/// A symmetric (per-destination) mapping.
#[derive(Debug, Clone, Copy, Default)]
struct SymMapping {
    private: Endpoint,
    remote: Endpoint,
    expires: SimTime,
}

/// The tables only some boxes ever need, allocated on first use.
#[derive(Debug, Clone, Default)]
struct RareTables {
    /// Symmetric mappings keyed by (private, remote).
    sym: DenseMap<(Endpoint, Endpoint), Port>,
    /// Reverse index: public port → symmetric mapping.
    sym_by_port: DenseMap<Port, SymMapping>,
    /// Permanent UPnP/NAT-PMP port forwardings: public port → private
    /// endpoint, never expiring and never filtered.
    forwarded: DenseMap<Port, Endpoint>,
}

/// Interval between two [`NatBox::purge_expired`] sweeps, in the simulated
/// fabric and the live NAT emulator alike.
///
/// Sessions live `hole_timeout` (90 s by default, see
/// [`crate::NetConfig`]) and are purged every 60 s, so a box holds up to
/// 150 s worth of sessions just before a purge and 90 s worth just after:
/// a 5/3 swing, above the 3/2 of its fit at which a purge refits a map.
pub const PURGE_EVERY: SimDuration = SimDuration::from_secs(60);

/// A NAT device fronting one or more private endpoints.
///
/// The box owns one public IP. Cone types reserve a *stable* public port per
/// private endpoint (reused across mapping re-creations — common vendor
/// behaviour, and what lets cone peers advertise a durable identity
/// endpoint). Symmetric mappings get a fresh public port per destination.
///
/// All rules expire `hole_timeout` after the last packet sent *or received*
/// on their session, matching Section 2.1.
///
/// ```
/// use nylon_net::addr::{Endpoint, Ip, Port};
/// use nylon_net::nat::NatType;
/// use nylon_net::natbox::NatBox;
/// use nylon_sim::{SimDuration, SimTime};
///
/// let mut nat = NatBox::new(Ip(0x0100_0001), NatType::PortRestrictedCone,
///                           SimDuration::from_secs(90));
/// let private = Endpoint::new(Ip(Ip::PRIVATE_BASE), Port(5000));
/// let remote = Endpoint::new(Ip(0x0200_0002), Port(9000));
///
/// // Outbound packet opens a hole towards `remote`...
/// let public_src = nat.on_outbound(SimTime::ZERO, private, remote);
/// // ...so `remote` can now answer through the hole.
/// assert_eq!(nat.on_inbound(SimTime::from_secs(1), public_src.port, remote),
///            Ok(private));
/// // A different source is filtered by the PRC rule.
/// let other = Endpoint::new(Ip(0x0300_0003), Port(9000));
/// assert!(nat.on_inbound(SimTime::from_secs(1), public_src.port, other).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct NatBox {
    public_ip: Ip,
    nat_type: NatType,
    hole_timeout: SimDuration,
    /// Cone state. The mapping carries the stable port reservation, so the
    /// egress hot path touches one table instead of a separate reservation
    /// table.
    cone: ConeTable,
    rare: Option<Box<RareTables>>,
    /// Whether a packet ever left through this box — until one does there
    /// is no session to expire.
    carried: bool,
    /// Hairpinning (NAT loopback): whether a packet from the private side
    /// addressed to this box's own public endpoint is translated back in.
    /// A vendor option that most devices ship disabled — the default here.
    hairpin: bool,
    next_port: u16,
}

/// First port handed out by the allocator (below are considered reserved).
const FIRST_DYNAMIC_PORT: u16 = 1024;

// Every natted peer holds one, most of them idle: keep it small.
const _: () = assert!(std::mem::size_of::<NatBox>() <= 88, "NatBox must stay small while idle");

impl NatBox {
    /// Creates a NAT box that owns `public_ip` and behaves per `nat_type`,
    /// expiring rules `hole_timeout` after the last activity.
    pub fn new(public_ip: Ip, nat_type: NatType, hole_timeout: SimDuration) -> Self {
        NatBox {
            public_ip,
            nat_type,
            hole_timeout,
            cone: ConeTable::Empty,
            rare: None,
            carried: false,
            hairpin: false,
            next_port: FIRST_DYNAMIC_PORT,
        }
    }

    /// Enables or disables hairpinning (NAT loopback) on this box.
    pub fn set_hairpin(&mut self, enabled: bool) {
        self.hairpin = enabled;
    }

    fn rare(&self) -> Option<&RareTables> {
        self.rare.as_deref()
    }

    fn rare_mut(&mut self) -> &mut RareTables {
        self.rare.get_or_insert_with(Box::default)
    }

    /// `true` if this box translates hairpin packets: a packet from behind
    /// it addressed to its own public IP re-enters through regular ingress
    /// filtering, as if it came from the internet, instead of being
    /// dropped (see [`Network::deliver`](crate::Network::deliver)).
    pub fn hairpin_enabled(&self) -> bool {
        self.hairpin
    }

    /// Mobile-style mid-session rebinding: the box loses its dynamic state
    /// as if it rebooted or the carrier re-assigned it. Cone mappings keep
    /// their private endpoints but move to *fresh* public ports with every
    /// session dropped; symmetric mappings are discarded wholesale (their
    /// next outbound re-ports anyway). Permanent UPnP forwardings are
    /// pinned by the control protocol and survive. Returns how many
    /// mappings were affected.
    pub fn rebind(&mut self) -> u64 {
        let mut moved = 0u64;
        let mut mappings: Vec<(Endpoint, Port)> =
            self.cone.iter().map(|(p, m)| (p, m.port)).collect();
        // Fresh ports go out in private-endpoint order, whatever order the
        // table keeps its mappings in.
        mappings.sort_unstable();
        for (private, old_port) in mappings {
            if self.is_forwarded(old_port) {
                continue; // UPnP-pinned: the reservation survives.
            }
            // Allocate before releasing the old port so the fresh port is
            // guaranteed to differ.
            let new_port = self.alloc_port();
            let mapping = self.cone.move_port(&private, new_port);
            mapping.sessions.clear();
            // Sessions only ever gain lifetime, which is what makes
            // `max_expires` a liveness oracle — a rebind is the one event
            // that resets it.
            mapping.max_expires = SimTime::ZERO;
            moved += 1;
        }
        if let Some(rare) = &mut self.rare {
            moved += rare.sym_by_port.len() as u64;
            rare.sym.clear();
            rare.sym_by_port.clear();
        }
        moved
    }

    /// Installs a permanent UPnP/NAT-PMP port forwarding for `private` and
    /// returns the forwarded public endpoint.
    ///
    /// The paper's related-work section discusses these protocols as an
    /// alternative to traversal: they "create permanent NAT filtering
    /// rules" but "are not supported by all NAT devices" and "pose
    /// security issues". A forwarded port behaves like a public endpoint:
    /// no expiry, no filtering — regardless of the box's NAT type.
    /// Idempotent per private endpoint.
    pub fn enable_port_forwarding(&mut self, private: Endpoint) -> Endpoint {
        let forwarded = self.rare().and_then(|r| r.forwarded.iter().find(|(_, p)| **p == private));
        if let Some((port, _)) = forwarded {
            return Endpoint::new(self.public_ip, port);
        }
        // Reuse the stable reservation for cone boxes so the identity
        // endpoint does not change; symmetric boxes get a fresh port.
        let port = match self.stable_public_endpoint(private) {
            Some(ep) => ep.port,
            None => self.alloc_port(),
        };
        self.rare_mut().forwarded.insert(port, private);
        Endpoint::new(self.public_ip, port)
    }

    /// `true` if `public_port` is a permanent UPnP forwarding.
    pub fn is_forwarded(&self, public_port: Port) -> bool {
        self.rare().is_some_and(|r| r.forwarded.contains_key(&public_port))
    }

    /// The public IP owned by this box.
    pub fn public_ip(&self) -> Ip {
        self.public_ip
    }

    /// The behaviour of this box.
    pub fn nat_type(&self) -> NatType {
        self.nat_type
    }

    /// The configured rule lifetime.
    pub fn hole_timeout(&self) -> SimDuration {
        self.hole_timeout
    }

    fn alloc_port(&mut self) -> Port {
        // Skip ports that are still indexed; wrap at the end of the range.
        loop {
            let p = Port(self.next_port);
            self.next_port =
                if self.next_port == u16::MAX { FIRST_DYNAMIC_PORT } else { self.next_port + 1 };
            let taken = self.cone.at_port(p).is_some()
                || self.rare().is_some_and(|r| {
                    r.sym_by_port.contains_key(&p) || r.forwarded.contains_key(&p)
                });
            if !taken {
                return p;
            }
        }
    }

    /// The stable public endpoint reserved for `private` under a cone
    /// mapping; `None` for symmetric boxes (their port is per-destination).
    ///
    /// Reserving does not open any hole: packets to this endpoint are still
    /// subject to mapping liveness and filtering.
    pub fn stable_public_endpoint(&mut self, private: Endpoint) -> Option<Endpoint> {
        if !self.nat_type.is_cone() {
            return None;
        }
        if let Some(m) = self.cone.get(&private) {
            return Some(Endpoint::new(self.public_ip, m.port));
        }
        let port = self.alloc_port();
        self.cone.insert(private, ConeMapping::new(port));
        Some(Endpoint::new(self.public_ip, port))
    }

    /// Processes an outbound packet from `private` to `remote` at `now`,
    /// creating or refreshing the mapping and filtering rule. Returns the
    /// public source endpoint the packet leaves with.
    pub fn on_outbound(&mut self, now: SimTime, private: Endpoint, remote: Endpoint) -> Endpoint {
        self.carried = true;
        let expires = now + self.hole_timeout;
        let port = match self.live_port(now, private, remote) {
            Some(port) => {
                self.touch(private, port, remote, expires);
                port
            }
            None if self.nat_type.is_cone() => {
                let port = self.alloc_port();
                let mut mapping = ConeMapping::new(port);
                mapping.note(remote, expires);
                self.cone.insert(private, mapping);
                port
            }
            None => {
                // An expired mapping is replaced by a fresh port, which is
                // exactly what makes symmetric NATs hard to traverse; the
                // stale one releases its port first.
                let key = (private, remote);
                let rare = self.rare_mut();
                if let Some(stale) = rare.sym.remove(&key) {
                    rare.sym_by_port.remove(&stale);
                }
                let port = self.alloc_port();
                let rare = self.rare_mut();
                rare.sym.insert(key, port);
                rare.sym_by_port.insert(port, SymMapping { private, remote, expires });
                port
            }
        };
        Endpoint::new(self.public_ip, port)
    }

    /// The public port a packet from `private` to `remote` leaves through
    /// at `now` without creating a mapping: a cone box's mapping for
    /// `private`, a symmetric box's live mapping towards `remote`. `None`
    /// when the packet needs a new mapping.
    fn live_port(&self, now: SimTime, private: Endpoint, remote: Endpoint) -> Option<Port> {
        if self.nat_type.is_cone() {
            return self.cone.get(&private).map(|m| m.port);
        }
        let rare = self.rare()?;
        let port = *rare.sym.get(&(private, remote))?;
        rare.sym_by_port.get(&port).is_some_and(|m| m.expires > now).then_some(port)
    }

    /// Keeps the live session between `private`, mapped at `port`, and
    /// `remote` alive until `expires`.
    fn touch(&mut self, private: Endpoint, port: Port, remote: Endpoint, expires: SimTime) {
        if self.nat_type.is_cone() {
            self.cone.get_mut(&private).expect("mapped").note(remote, expires);
        } else {
            self.rare_mut().sym_by_port.get_mut(&port).expect("mapped").expires = expires;
        }
    }

    /// Read-only [`NatBox::on_outbound`]: the public source endpoint a
    /// packet from `private` to `remote` would leave with right now. Its
    /// port is [`Port::UNKNOWN`] when the packet would need a new mapping
    /// (on a symmetric box, an unpredictable port).
    pub fn egress_preview(&self, now: SimTime, private: Endpoint, remote: Endpoint) -> Endpoint {
        let port = self.live_port(now, private, remote).unwrap_or(Port::UNKNOWN);
        Endpoint::new(self.public_ip, port)
    }

    /// The admission rule: the private endpoint a packet from `src`
    /// addressed to `public_port` is forwarded to at `now`, or why it is
    /// dropped. A permanent forwarding admits anyone; otherwise the
    /// mapping at the port must be live and its filter must admit `src`.
    /// Creates and refreshes nothing.
    pub fn inbound(
        &self,
        now: SimTime,
        public_port: Port,
        src: Endpoint,
    ) -> Result<Endpoint, DropReason> {
        if public_port == Port::UNKNOWN {
            return Err(DropReason::NoMapping);
        }
        if let Some(private) = self.rare().and_then(|r| r.forwarded.get(&public_port)) {
            return Ok(*private);
        }
        if self.nat_type.is_cone() {
            let (private, mapping) = self.cone.at_port(public_port).ok_or(DropReason::NoMapping)?;
            if !mapping.live(now) {
                return Err(DropReason::NoMapping);
            }
            if !mapping.admits(self.nat_type, now, src) {
                return Err(DropReason::Filtered);
            }
            Ok(private)
        } else {
            let m = self.rare().and_then(|r| r.sym_by_port.get(&public_port));
            let m = m.ok_or(DropReason::NoMapping)?;
            if m.expires <= now {
                return Err(DropReason::NoMapping);
            }
            if m.remote != src {
                return Err(DropReason::Filtered);
            }
            Ok(m.private)
        }
    }

    /// Refreshes the session a packet from `src` to `public_port`, which
    /// [`inbound`](Self::inbound) admitted to `private`, arrived on:
    /// receiving keeps a rule alive as sending does ("sent (or
    /// received)"). A permanent forwarding has nothing to refresh.
    pub(crate) fn refresh(
        &mut self,
        now: SimTime,
        public_port: Port,
        private: Endpoint,
        src: Endpoint,
    ) {
        if !self.is_forwarded(public_port) {
            self.touch(private, public_port, src, now + self.hole_timeout);
        }
    }

    /// Processes an inbound packet addressed to `public_port` coming from
    /// `src`: the admission rule ([`inbound`](Self::inbound)), then on
    /// success the session refresh. Returns the private destination
    /// endpoint, or why the packet was dropped.
    pub fn on_inbound(
        &mut self,
        now: SimTime,
        public_port: Port,
        src: Endpoint,
    ) -> Result<Endpoint, DropReason> {
        let private = self.inbound(now, public_port, src)?;
        self.refresh(now, public_port, private, src);
        Ok(private)
    }

    /// Number of live sessions (cone) plus live symmetric mappings.
    pub fn live_rule_count(&self, now: SimTime) -> usize {
        let cone: usize = self
            .cone
            .iter()
            .map(|(_, m)| m.sessions.values().filter(|s| s.expires > now).count())
            .sum();
        let sym =
            self.rare().map_or(0, |r| r.sym_by_port.values().filter(|m| m.expires > now).count());
        cone + sym
    }

    /// Sessions held (cone sessions plus symmetric mappings, expired ones
    /// included until the next purge) and the map slots allocated to hold
    /// them, the symmetric mappings' forward index included — what
    /// `net/nat_sessions` and `net/nat_session_slots` sum.
    pub fn session_footprint(&self) -> (usize, usize) {
        let (mut held, mut slots) = self
            .rare()
            .map_or((0, 0), |r| (r.sym_by_port.len(), r.sym_by_port.capacity() + r.sym.capacity()));
        for (_, mapping) in self.cone.iter() {
            held += mapping.sessions.len();
            slots += mapping.sessions.capacity();
        }
        (held, slots)
    }

    /// Bytes this box holds: itself inline, its boxed tables, and every
    /// slot its maps allocated — what `net/nat_box_bytes` sums.
    pub fn bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<NatBox>();
        for (_, mapping) in self.cone.iter() {
            bytes += mapping.sessions.heap_bytes();
        }
        if let ConeTable::Many(maps) = &self.cone {
            bytes += std::mem::size_of::<ConeMaps>();
            bytes += maps.by_private.heap_bytes() + maps.by_port.heap_bytes();
        }
        if let Some(r) = self.rare() {
            bytes += std::mem::size_of::<RareTables>();
            bytes += r.sym.heap_bytes() + r.sym_by_port.heap_bytes() + r.forwarded.heap_bytes();
        }
        bytes
    }

    /// Drops expired sessions and mappings to bound memory, and refits
    /// every map the purge leaves over 3/2 of its fit, so a box that once
    /// held a burst of sessions gives the slots back. Port reservations
    /// for cone mappings are kept (they are the peer's stable identity).
    pub fn purge_expired(&mut self, now: SimTime) {
        if !self.carried {
            return;
        }
        // Mappings themselves persist (the port is the peer's stable
        // identity); only expired sessions are reclaimed.
        for (_, mapping) in self.cone.iter_mut() {
            mapping.sessions.retain(|_, s| s.expires > now);
            refit(&mut mapping.sessions);
        }
        if let ConeTable::Many(maps) = &mut self.cone {
            refit(&mut maps.by_private);
            refit(&mut maps.by_port);
        }
        let Some(rare) = &mut self.rare else { return };
        let RareTables { sym, sym_by_port, .. } = &mut **rare;
        // `retain` visits only survivors twice, so each dead mapping drops
        // its forward-index key once.
        sym_by_port.retain(|_, m| {
            let live = m.expires > now;
            if !live {
                sym.remove(&(m.private, m.remote));
            }
            live
        });
        refit(sym);
        refit(sym_by_port);
    }
}

/// Rebuilds `map` to [`DenseMap::fit`] of its entries when its capacity
/// is above 3/2 of that — to no storage at all once it is empty.
fn refit<K: DenseKey, V: Default>(map: &mut DenseMap<K, V>) {
    let fit = DenseMap::<K, V>::fit(map.len());
    if 2 * map.capacity() > 3 * fit {
        map.rebuild(fit);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMEOUT: SimDuration = SimDuration::from_secs(90);

    fn private() -> Endpoint {
        Endpoint::new(Ip(Ip::PRIVATE_BASE + 1), Port(5000))
    }

    fn remote(n: u32) -> Endpoint {
        Endpoint::new(Ip(0x0200_0000 + n), Port(9000))
    }

    fn boxed(t: NatType) -> NatBox {
        NatBox::new(Ip(0x0100_0001), t, TIMEOUT)
    }

    #[test]
    fn cone_mapping_is_endpoint_independent() {
        for t in [NatType::FullCone, NatType::RestrictedCone, NatType::PortRestrictedCone] {
            let mut nat = boxed(t);
            let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
            let b = nat.on_outbound(SimTime::ZERO, private(), remote(2));
            assert_eq!(a, b, "{t}: cone mapping must reuse the public endpoint");
        }
    }

    #[test]
    fn symmetric_mapping_is_per_destination() {
        let mut nat = boxed(NatType::Symmetric);
        let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let b = nat.on_outbound(SimTime::ZERO, private(), remote(2));
        assert_ne!(a.port, b.port, "SYM must allocate a fresh port per destination");
        assert_eq!(a.ip, b.ip);
        // Same destination reuses the same live mapping.
        let a2 = nat.on_outbound(SimTime::from_secs(1), private(), remote(1));
        assert_eq!(a, a2);
    }

    #[test]
    fn full_cone_admits_anyone_while_alive() {
        let mut nat = boxed(NatType::FullCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        // A peer never contacted is forwarded.
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(9)), Ok(private()));
    }

    #[test]
    fn restricted_cone_filters_by_ip_only() {
        let mut nat = boxed(NatType::RestrictedCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        // Same IP, different port: admitted.
        let same_ip = Endpoint::new(remote(1).ip, Port(4242));
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), pub_ep.port, same_ip), Ok(private()));
        // Different IP: filtered.
        assert_eq!(
            nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(2)),
            Err(DropReason::Filtered)
        );
    }

    #[test]
    fn port_restricted_cone_filters_by_exact_endpoint() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(1)), Ok(private()));
        let same_ip = Endpoint::new(remote(1).ip, Port(4242));
        assert_eq!(
            nat.on_inbound(SimTime::from_secs(1), pub_ep.port, same_ip),
            Err(DropReason::Filtered)
        );
    }

    #[test]
    fn symmetric_filters_by_exact_destination() {
        let mut nat = boxed(NatType::Symmetric);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(1)), Ok(private()));
        assert_eq!(
            nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(2)),
            Err(DropReason::Filtered)
        );
    }

    #[test]
    fn rules_expire_after_hole_timeout() {
        for t in NatType::ALL {
            let mut nat = boxed(t);
            let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
            let just_before = SimTime::ZERO + TIMEOUT - SimDuration::from_millis(1);
            let just_after = SimTime::ZERO + TIMEOUT;
            assert!(nat.on_inbound(just_before, pub_ep.port, remote(1)).is_ok(), "{t}");
            // Admission at `just_before` refreshed the rule...
            let after_refresh = just_before + TIMEOUT;
            assert_eq!(
                nat.on_inbound(after_refresh, pub_ep.port, remote(1)),
                Err(DropReason::NoMapping),
                "{t}: rule must expire when idle"
            );
            let _ = just_after;
        }
    }

    #[test]
    fn receive_refreshes_rule() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let mid = SimTime::ZERO + SimDuration::from_secs(60);
        assert!(nat.on_inbound(mid, pub_ep.port, remote(1)).is_ok());
        // 60 + 90 > 90: without the refresh this would be expired.
        let later = SimTime::ZERO + SimDuration::from_secs(120);
        assert!(nat.on_inbound(later, pub_ep.port, remote(1)).is_ok());
    }

    #[test]
    fn expired_symmetric_mapping_gets_fresh_port() {
        let mut nat = boxed(NatType::Symmetric);
        let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let later = SimTime::ZERO + TIMEOUT + SimDuration::from_secs(1);
        let b = nat.on_outbound(later, private(), remote(1));
        assert_ne!(a.port, b.port, "expired SYM mapping must not reuse its port");
    }

    #[test]
    fn cone_keeps_stable_port_across_expiry() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let later = SimTime::ZERO + TIMEOUT * 2;
        nat.purge_expired(later);
        let b = nat.on_outbound(later, private(), remote(2));
        assert_eq!(a, b, "cone identity endpoint must be stable");
    }

    #[test]
    fn stable_endpoint_is_none_for_symmetric() {
        let mut nat = boxed(NatType::Symmetric);
        assert_eq!(nat.stable_public_endpoint(private()), None);
        let mut cone = boxed(NatType::RestrictedCone);
        let ep = cone.stable_public_endpoint(private()).unwrap();
        assert_eq!(ep.ip, Ip(0x0100_0001));
        // Idempotent.
        assert_eq!(cone.stable_public_endpoint(private()), Some(ep));
    }

    #[test]
    fn reserving_does_not_open_hole() {
        let mut nat = boxed(NatType::FullCone);
        let ep = nat.stable_public_endpoint(private()).unwrap();
        assert_eq!(
            nat.on_inbound(SimTime::ZERO, ep.port, remote(1)),
            Err(DropReason::NoMapping),
            "no outbound traffic yet, even FC must drop"
        );
    }

    #[test]
    fn unknown_port_always_dropped() {
        let mut nat = boxed(NatType::FullCone);
        nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(
            nat.on_inbound(SimTime::ZERO, Port::UNKNOWN, remote(1)),
            Err(DropReason::NoMapping)
        );
    }

    #[test]
    fn inbound_is_on_inbound_without_refresh() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let t = SimTime::from_secs(10);
        assert_eq!(nat.inbound(t, pub_ep.port, remote(1)), Ok(private()));
        assert_eq!(nat.inbound(t, pub_ep.port, remote(2)), Err(DropReason::Filtered));
        // The oracle must not refresh: the rule still expires on schedule.
        let after = SimTime::ZERO + TIMEOUT;
        assert_eq!(nat.inbound(after, pub_ep.port, remote(1)), Err(DropReason::NoMapping));
    }

    #[test]
    fn egress_preview_marks_new_mappings_unknown() {
        let mut nat = boxed(NatType::Symmetric);
        let unknown = Endpoint::new(nat.public_ip(), Port::UNKNOWN);
        assert_eq!(nat.egress_preview(SimTime::ZERO, private(), remote(1)), unknown);
        let ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.egress_preview(SimTime::from_secs(1), private(), remote(1)), ep);
        // Different destination, or the mapping expired: a new one again.
        assert_eq!(nat.egress_preview(SimTime::from_secs(1), private(), remote(2)), unknown);
        assert_eq!(nat.egress_preview(SimTime::ZERO + TIMEOUT, private(), remote(1)), unknown);
        // A cone box previews its one mapping, whatever the destination.
        let mut cone = boxed(NatType::RestrictedCone);
        let unknown = Endpoint::new(cone.public_ip(), Port::UNKNOWN);
        assert_eq!(cone.egress_preview(SimTime::ZERO, private(), remote(1)), unknown);
        let ep = cone.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(cone.egress_preview(SimTime::from_secs(1), private(), remote(2)), ep);
    }

    #[test]
    fn purge_bounds_state() {
        let mut nat = boxed(NatType::Symmetric);
        for i in 0..100 {
            nat.on_outbound(SimTime::ZERO, private(), remote(i));
        }
        assert_eq!(nat.live_rule_count(SimTime::ZERO), 100);
        let later = SimTime::ZERO + TIMEOUT * 2;
        nat.purge_expired(later);
        assert_eq!(nat.live_rule_count(later), 0);
        // Internals are actually emptied, not just filtered.
        let rare = nat.rare().expect("symmetric tables exist");
        assert!(rare.sym_by_port.is_empty());
        assert!(rare.sym.is_empty());
    }

    #[test]
    fn purge_refits_maps_to_what_survives() {
        // Sessions towards 1 000 remotes, of which 10 stay live past the
        // purge: the maps that grew for all of them shrink to the fit of
        // 10, on a cone box (its one session map) and on a symmetric box
        // (its mappings and their forward index).
        let fit = DenseMap::<Endpoint, Session>::fit(10);
        for (t, maps) in [(NatType::PortRestrictedCone, 1), (NatType::Symmetric, 2)] {
            let mut nat = boxed(t);
            for i in 0..1_000 {
                nat.on_outbound(SimTime::ZERO, private(), remote(i));
            }
            let grown = nat.bytes();
            for i in 0..10 {
                nat.on_outbound(SimTime::from_secs(60), private(), remote(i));
            }
            nat.purge_expired(SimTime::from_secs(100));
            assert_eq!(nat.session_footprint(), (10, maps * fit), "{t}");
            assert!(nat.bytes() * 20 < grown, "{t}: {} of {grown} bytes kept", nat.bytes());
            let at = SimTime::from_secs(101);
            for i in 0..10 {
                let port = nat.egress_preview(at, private(), remote(i)).port;
                assert_eq!(nat.inbound(at, port, remote(i)), Ok(private()), "{t}: survivor {i}");
            }
        }
    }

    #[test]
    fn multiple_private_endpoints_behind_one_box() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let p1 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 1), Port(5000));
        let p2 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 2), Port(5000));
        let a = nat.on_outbound(SimTime::ZERO, p1, remote(1));
        let b = nat.on_outbound(SimTime::ZERO, p2, remote(1));
        assert_ne!(a.port, b.port, "distinct private endpoints need distinct public ports");
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), a.port, remote(1)), Ok(p1));
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), b.port, remote(1)), Ok(p2));
    }

    #[test]
    fn port_forwarding_admits_anyone_forever() {
        for t in NatType::ALL {
            let mut nat = boxed(t);
            let ep = nat.enable_port_forwarding(private());
            assert!(nat.is_forwarded(ep.port), "{t}");
            // Unsolicited, from anyone, long after any timeout.
            let late = SimTime::ZERO + TIMEOUT * 10;
            assert_eq!(nat.on_inbound(late, ep.port, remote(42)), Ok(private()), "{t}");
            assert_eq!(nat.inbound(late, ep.port, remote(43)), Ok(private()), "{t}");
            // Idempotent.
            assert_eq!(nat.enable_port_forwarding(private()), ep, "{t}");
        }
    }

    #[test]
    fn forwarding_reuses_cone_reservation() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let stable = nat.stable_public_endpoint(private()).unwrap();
        let fwd = nat.enable_port_forwarding(private());
        assert_eq!(stable, fwd, "cone identity endpoint must be preserved");
    }

    #[test]
    fn accessors() {
        let nat = boxed(NatType::RestrictedCone);
        assert_eq!(nat.public_ip(), Ip(0x0100_0001));
        assert_eq!(nat.nat_type(), NatType::RestrictedCone);
        assert_eq!(nat.hole_timeout(), TIMEOUT);
        assert!(!nat.hairpin_enabled(), "hairpinning must default off");
    }

    #[test]
    fn rebind_reports_cone_mapping_and_drops_sessions() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let before = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert!(nat.inbound(SimTime::from_secs(1), before.port, remote(1)).is_ok());
        assert_eq!(nat.rebind(), 1);
        let after = nat.on_outbound(SimTime::from_secs(2), private(), remote(1));
        assert_ne!(before.port, after.port, "rebind must move the mapping to a fresh port");
        assert_eq!(after.ip, before.ip);
        // The old port is gone and the old sessions did not survive.
        assert_eq!(
            nat.inbound(SimTime::from_secs(2), before.port, remote(1)),
            Err(DropReason::NoMapping)
        );
        // The re-STUNed stable endpoint agrees with the new mapping.
        assert_eq!(nat.stable_public_endpoint(private()), Some(after));
    }

    #[test]
    fn rebind_drops_symmetric_mappings_wholesale() {
        let mut nat = boxed(NatType::Symmetric);
        let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.rebind(), 1);
        assert_eq!(
            nat.inbound(SimTime::from_secs(1), a.port, remote(1)),
            Err(DropReason::NoMapping)
        );
        let b = nat.on_outbound(SimTime::from_secs(1), private(), remote(1));
        assert_ne!(a.port, b.port);
    }

    #[test]
    fn rebind_keeps_upnp_forwardings() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let fwd = nat.enable_port_forwarding(private());
        // A second private host with a dynamic mapping does move.
        let p2 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 2), Port(5000));
        let dyn_before = nat.on_outbound(SimTime::ZERO, p2, remote(1));
        assert_eq!(nat.rebind(), 1, "only the dynamic mapping rebinds");
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), fwd.port, remote(9)), Ok(private()));
        let dyn_after = nat.on_outbound(SimTime::from_secs(1), p2, remote(1));
        assert_ne!(dyn_before.port, dyn_after.port);
    }

    #[test]
    fn idle_box_holds_one_inline_mapping() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let ep = nat.stable_public_endpoint(private()).unwrap();
        assert!(matches!(nat.cone, ConeTable::One(..)) && nat.rare.is_none());
        assert_eq!(nat.session_footprint(), (0, 0));
        assert_eq!(nat.bytes(), std::mem::size_of::<NatBox>());
        // Nothing was ever sent: the purge has nothing to walk.
        assert!(!nat.carried);
        nat.purge_expired(SimTime::from_secs(1_000));
        nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.session_footprint().0, 1);
        assert_eq!(nat.stable_public_endpoint(private()), Some(ep));
    }

    #[test]
    fn rebind_ports_do_not_depend_on_arrival_order() {
        // A carrier box over a symmetric subscriber sees many private
        // endpoints. Which fresh port each gets from `rebind` must not
        // depend on the order they arrived in, and so on where the table
        // keeps them: the ports go out in private-endpoint order.
        let privates: Vec<Endpoint> =
            (0..40).map(|i| Endpoint::new(Ip(0x4000_0001), Port(2000 + i))).collect();
        let rebound = |arrivals: &mut dyn Iterator<Item = &Endpoint>| {
            let mut nat = boxed(NatType::PortRestrictedCone);
            for p in arrivals {
                nat.on_outbound(SimTime::ZERO, *p, remote(1));
            }
            assert!(matches!(nat.cone, ConeTable::Many(_)));
            assert_eq!(nat.rebind(), 40);
            let fresh: Vec<Port> = privates.iter().map(|p| nat.cone.get(p).unwrap().port).collect();
            // The reverse index moved with the ports.
            for p in &privates {
                let public = nat.on_outbound(SimTime::from_secs(1), *p, remote(2));
                assert_eq!(nat.on_inbound(SimTime::from_secs(1), public.port, remote(2)), Ok(*p));
            }
            fresh
        };
        let forward = rebound(&mut privates.iter());
        assert_eq!(forward, rebound(&mut privates.iter().rev()));
        assert!(forward.windows(2).all(|w| w[0].0 + 1 == w[1].0), "ports follow endpoint order");
    }

    #[test]
    fn stacked_cgn_rewrites_egress_twice() {
        // Carrier-grade NAT: the subscriber box's public side is the
        // carrier box's private side. An outbound packet is rewritten at
        // each level; the remote peer sees only the carrier's endpoint,
        // and the reply unwinds the chain level by level.
        let mut inner = NatBox::new(Ip(0x4000_0001), NatType::PortRestrictedCone, TIMEOUT);
        let mut outer = NatBox::new(Ip(0x4000_0002), NatType::PortRestrictedCone, TIMEOUT);
        let dst = remote(1);
        let hop1 = inner.on_outbound(SimTime::ZERO, private(), dst);
        assert_eq!(hop1.ip, Ip(0x4000_0001));
        let hop2 = outer.on_outbound(SimTime::ZERO, hop1, dst);
        assert_eq!(hop2.ip, Ip(0x4000_0002), "the wire source must be the carrier's");
        assert_ne!(hop2, hop1);
        // Reply from the contacted remote unwinds both levels...
        assert_eq!(outer.on_inbound(SimTime::from_secs(1), hop2.port, dst), Ok(hop1));
        assert_eq!(inner.on_inbound(SimTime::from_secs(1), hop1.port, dst), Ok(private()));
        // ...and a stranger is filtered at the carrier already.
        assert_eq!(
            outer.on_inbound(SimTime::from_secs(1), hop2.port, remote(2)),
            Err(DropReason::Filtered)
        );
        // `inbound` resolves the chain without refreshing any session.
        assert_eq!(outer.inbound(SimTime::from_secs(1), hop2.port, dst), Ok(hop1));
        assert_eq!(inner.inbound(SimTime::from_secs(1), hop1.port, dst), Ok(private()));
    }
}
