//! The NAT device state machine: mappings, filtering rules, hole expiry.
//!
//! A box costs nothing until it carries traffic: the one cone mapping a
//! subscriber box ever holds lives inline (`ConeTable`), the tables only
//! some boxes need — symmetric mappings, UPnP forwardings — are allocated
//! on first use, and [`NatBox::new`] plus [`NatBox::stable_public_endpoint`]
//! touch no heap. A box lives only on the worker owning the peer behind it.

use nylon_sim::{SimDuration, SimTime};

use crate::addr::{Endpoint, Ip, Port};
use crate::densemap::DenseMap;
use crate::nat::NatType;

/// Why an inbound packet was not forwarded by the NAT.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NatReject {
    /// No mapping exists at the destination public port (never created, or
    /// every session expired).
    NoMapping,
    /// A mapping exists but the filtering rule rejects this source.
    Filtered,
    /// A packet from the private side addressed the box's own public
    /// endpoint, and the box does not support hairpinning (NAT loopback).
    HairpinBlocked,
}

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

    fn at_port_mut(&mut self, port: Port) -> Option<(Endpoint, &mut ConeMapping)> {
        match self {
            ConeTable::One(p, m) if m.port == port => Some((*p, m)),
            ConeTable::Many(maps) => {
                let private = *maps.by_port.get(&port)?;
                Some((private, maps.by_private.get_mut(&private)?))
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

    /// `true` if this box translates hairpin packets (see
    /// [`NatBox::on_hairpin`]).
    pub fn hairpin_enabled(&self) -> bool {
        self.hairpin
    }

    /// Processes a packet from `from_private` addressed to this box's *own*
    /// public endpoint `to` (hairpin / NAT loopback). A hairpinning box
    /// applies regular egress translation and then regular ingress
    /// processing against the translated source — the packet re-enters as
    /// if it had come from the public internet. Non-hairpinning boxes
    /// (the default) drop it outright.
    ///
    /// Returns the private destination endpoint on success.
    pub fn on_hairpin(
        &mut self,
        now: SimTime,
        from_private: Endpoint,
        to: Endpoint,
    ) -> Result<Endpoint, NatReject> {
        debug_assert_eq!(to.ip, self.public_ip, "hairpin packet must address this box");
        if !self.hairpin {
            return Err(NatReject::HairpinBlocked);
        }
        let src = self.on_outbound(now, from_private, to);
        self.on_inbound(now, to.port, src)
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
        let expires = now + self.hole_timeout;
        let public_ip = self.public_ip;
        self.carried = true;
        if self.nat_type.is_cone() {
            if let Some(mapping) = self.cone.get_mut(&private) {
                mapping.note(remote, expires);
                return Endpoint::new(public_ip, mapping.port);
            }
            let port = self.alloc_port();
            let mut mapping = ConeMapping::new(port);
            mapping.note(remote, expires);
            self.cone.insert(private, mapping);
            Endpoint::new(public_ip, port)
        } else {
            let key = (private, remote);
            let rare = self.rare_mut();
            // A live mapping keeps its port; an expired one is replaced by a
            // fresh port, which is exactly what makes symmetric NATs hard to
            // traverse.
            if let Some(port) = rare.sym.get(&key).copied() {
                let live = rare
                    .sym_by_port
                    .get_mut(&port)
                    .filter(|m| m.expires > now && m.private == private && m.remote == remote);
                if let Some(m) = live {
                    m.expires = expires;
                    return Endpoint::new(public_ip, port);
                }
                rare.sym.remove(&key);
                rare.sym_by_port.remove(&port);
            }
            let port = self.alloc_port();
            let rare = self.rare_mut();
            rare.sym.insert(key, port);
            rare.sym_by_port.insert(port, SymMapping { private, remote, expires });
            Endpoint::new(public_ip, port)
        }
    }

    /// Processes an inbound packet addressed to `public_port` coming from
    /// `src`. On success returns the private destination endpoint and
    /// refreshes the session; on failure reports why the packet was dropped.
    pub fn on_inbound(
        &mut self,
        now: SimTime,
        public_port: Port,
        src: Endpoint,
    ) -> Result<Endpoint, NatReject> {
        if public_port == Port::UNKNOWN {
            return Err(NatReject::NoMapping);
        }
        if let Some(private) = self.rare().and_then(|r| r.forwarded.get(&public_port)) {
            return Ok(*private);
        }
        let (nat_type, expires) = (self.nat_type, now + self.hole_timeout);
        if nat_type.is_cone() {
            let (private, mapping) =
                self.cone.at_port_mut(public_port).ok_or(NatReject::NoMapping)?;
            if !mapping.live(now) {
                return Err(NatReject::NoMapping);
            }
            if !mapping.admits(nat_type, now, src) {
                return Err(NatReject::Filtered);
            }
            // Receiving refreshes the session ("sent (or received)").
            mapping.note(src, expires);
            Ok(private)
        } else {
            let sym = self.rare.as_mut().and_then(|r| r.sym_by_port.get_mut(&public_port));
            let m = sym.ok_or(NatReject::NoMapping)?;
            if m.expires <= now {
                return Err(NatReject::NoMapping);
            }
            if m.remote != src {
                return Err(NatReject::Filtered);
            }
            m.expires = expires;
            Ok(m.private)
        }
    }

    /// Read-only filtering oracle: would a packet from `src` addressed to
    /// `public_port` be forwarded at `now`? Unlike [`NatBox::on_inbound`],
    /// no session is refreshed or created. Used by the staleness metric.
    pub fn would_admit(&self, now: SimTime, public_port: Port, src: Endpoint) -> bool {
        self.peek_inbound(now, public_port, src).is_some()
    }

    /// Read-only [`NatBox::on_inbound`]: the private endpoint a packet
    /// from `src` addressed to `public_port` would be forwarded to at
    /// `now`, or `None` if it would be dropped. No session is refreshed or
    /// created. Used to resolve stacked (carrier-grade) NAT chains without
    /// disturbing the inner box's state.
    pub fn peek_inbound(&self, now: SimTime, public_port: Port, src: Endpoint) -> Option<Endpoint> {
        if public_port == Port::UNKNOWN {
            return None;
        }
        if let Some(private) = self.rare().and_then(|r| r.forwarded.get(&public_port)) {
            return Some(*private);
        }
        if self.nat_type.is_cone() {
            let (private, mapping) = self.cone.at_port(public_port)?;
            (mapping.live(now) && mapping.admits(self.nat_type, now, src)).then_some(private)
        } else {
            let m = self.rare()?.sym_by_port.get(&public_port)?;
            (m.expires > now && m.remote == src).then_some(m.private)
        }
    }

    /// Read-only egress preview: the public source endpoint a packet from
    /// `private` to `remote` would leave with right now, plus whether that
    /// would require creating a *new* mapping (relevant for symmetric boxes,
    /// where a new mapping means an unpredictable port).
    pub fn egress_preview(
        &self,
        now: SimTime,
        private: Endpoint,
        remote: Endpoint,
    ) -> (Endpoint, bool) {
        if self.nat_type.is_cone() {
            match self.cone.get(&private) {
                Some(m) => (Endpoint::new(self.public_ip, m.port), false),
                None => (Endpoint::new(self.public_ip, Port::UNKNOWN), true),
            }
        } else {
            let live = self.rare().and_then(|r| {
                let port = r.sym.get(&(private, remote))?;
                r.sym_by_port.get(port).is_some_and(|m| m.expires > now).then_some(*port)
            });
            match live {
                Some(port) => (Endpoint::new(self.public_ip, port), false),
                None => (Endpoint::new(self.public_ip, Port::UNKNOWN), true),
            }
        }
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
    /// them — what `net/nat_sessions` and `net/nat_session_slots` sum.
    pub fn session_footprint(&self) -> (usize, usize) {
        let (mut held, mut slots) =
            self.rare().map_or((0, 0), |r| (r.sym_by_port.len(), r.sym_by_port.capacity()));
        for (_, mapping) in self.cone.iter() {
            held += mapping.sessions.len();
            slots += mapping.sessions.capacity();
        }
        (held, slots)
    }

    /// Drops expired sessions and mappings to bound memory. Port
    /// reservations for cone mappings are kept (they are the peer's stable
    /// identity).
    pub fn purge_expired(&mut self, now: SimTime) {
        if !self.carried {
            return;
        }
        // Mappings themselves persist (the port is the peer's stable
        // identity); only expired sessions are reclaimed.
        for (_, mapping) in self.cone.iter_mut() {
            mapping.sessions.retain(|_, s| s.expires > now);
        }
        let Some(rare) = &mut self.rare else { return };
        let dead: Vec<Port> =
            rare.sym_by_port.iter().filter(|(_, m)| m.expires <= now).map(|(p, _)| p).collect();
        for port in dead {
            if let Some(m) = rare.sym_by_port.remove(&port) {
                rare.sym.remove(&(m.private, m.remote));
            }
        }
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
            Err(NatReject::Filtered)
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
            Err(NatReject::Filtered)
        );
    }

    #[test]
    fn symmetric_filters_by_exact_destination() {
        let mut nat = boxed(NatType::Symmetric);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(1)), Ok(private()));
        assert_eq!(
            nat.on_inbound(SimTime::from_secs(1), pub_ep.port, remote(2)),
            Err(NatReject::Filtered)
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
                Err(NatReject::NoMapping),
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
            Err(NatReject::NoMapping),
            "no outbound traffic yet, even FC must drop"
        );
    }

    #[test]
    fn unknown_port_always_dropped() {
        let mut nat = boxed(NatType::FullCone);
        nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(
            nat.on_inbound(SimTime::ZERO, Port::UNKNOWN, remote(1)),
            Err(NatReject::NoMapping)
        );
    }

    #[test]
    fn would_admit_matches_on_inbound_without_refresh() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let pub_ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let t = SimTime::from_secs(10);
        assert!(nat.would_admit(t, pub_ep.port, remote(1)));
        assert!(!nat.would_admit(t, pub_ep.port, remote(2)));
        // Oracle must not refresh: rule still expires on schedule.
        let after = SimTime::ZERO + TIMEOUT;
        assert!(!nat.would_admit(after, pub_ep.port, remote(1)));
    }

    #[test]
    fn egress_preview_reports_fresh_mappings() {
        let mut nat = boxed(NatType::Symmetric);
        let (_, fresh) = nat.egress_preview(SimTime::ZERO, private(), remote(1));
        assert!(fresh);
        let ep = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        let (seen, fresh) = nat.egress_preview(SimTime::from_secs(1), private(), remote(1));
        assert!(!fresh);
        assert_eq!(seen, ep);
        // Different destination: fresh again.
        let (_, fresh) = nat.egress_preview(SimTime::from_secs(1), private(), remote(2));
        assert!(fresh);
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
            assert!(nat.would_admit(late, ep.port, remote(43)), "{t}");
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
    fn hairpin_blocked_by_default_translated_when_enabled() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let p1 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 1), Port(5000));
        let p2 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 2), Port(5000));
        // p2 opens a hole towards p1's public mapping.
        let pub1 = nat.on_outbound(SimTime::ZERO, p1, remote(1));
        let pub2 = nat.on_outbound(SimTime::ZERO, p2, pub1);
        nat.on_outbound(SimTime::ZERO, p1, pub2); // p1 opens back
                                                  // Default: the loopback packet is dropped at the box.
        assert_eq!(nat.on_hairpin(SimTime::from_secs(1), p2, pub1), Err(NatReject::HairpinBlocked));
        // Enabled: egress-translate, then regular ingress admission.
        nat.set_hairpin(true);
        assert_eq!(nat.on_hairpin(SimTime::from_secs(1), p2, pub1), Ok(p1));
        // Filtering still applies: a third private host p1 never talked to
        // is rejected by the port-restricted rule even over hairpin.
        let p3 = Endpoint::new(Ip(Ip::PRIVATE_BASE + 3), Port(5000));
        assert_eq!(nat.on_hairpin(SimTime::from_secs(1), p3, pub1), Err(NatReject::Filtered));
    }

    #[test]
    fn rebind_reports_cone_mapping_and_drops_sessions() {
        let mut nat = boxed(NatType::PortRestrictedCone);
        let before = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert!(nat.would_admit(SimTime::from_secs(1), before.port, remote(1)));
        assert_eq!(nat.rebind(), 1);
        let after = nat.on_outbound(SimTime::from_secs(2), private(), remote(1));
        assert_ne!(before.port, after.port, "rebind must move the mapping to a fresh port");
        assert_eq!(after.ip, before.ip);
        // The old port is gone and the old sessions did not survive.
        assert!(!nat.would_admit(SimTime::from_secs(2), before.port, remote(1)));
        // The re-STUNed stable endpoint agrees with the new mapping.
        assert_eq!(nat.stable_public_endpoint(private()), Some(after));
    }

    #[test]
    fn rebind_drops_symmetric_mappings_wholesale() {
        let mut nat = boxed(NatType::Symmetric);
        let a = nat.on_outbound(SimTime::ZERO, private(), remote(1));
        assert_eq!(nat.rebind(), 1);
        assert!(!nat.would_admit(SimTime::from_secs(1), a.port, remote(1)));
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
            Err(NatReject::Filtered)
        );
        // peek_inbound resolves the chain without refreshing any session.
        assert_eq!(outer.peek_inbound(SimTime::from_secs(1), hop2.port, dst), Some(hop1));
        assert_eq!(inner.peek_inbound(SimTime::from_secs(1), hop1.port, dst), Some(private()));
    }
}
