//! The Nylon routing table: rendez-vous peers (RVPs) with TTLs.
//!
//! Every peer maintains, for each natted peer it knows of, the *next RVP* to
//! use when sending to it — the peer it shuffled with to obtain the
//! reference (Figure 5 of the paper). A route whose RVP is the destination
//! itself is *direct*: a live NAT hole exists. Each entry carries a TTL
//! equal to the minimum remaining lifetime of the NAT holes along the whole
//! chain (the 120/140/170 example of Figure 5); TTLs decrease every shuffle
//! period and entries are purged on expiry
//! (`decrease_routing_table_ttls`, Figure 6 line 14).
//!
//! # Storage
//!
//! This is the protocol's hottest data structure *and* what a Nylon run's
//! memory is made of — `install_from_shuffle` runs for every descriptor of
//! every shuffle, `entry_of`/`touch_direct` on every receive, and every
//! peer owns one table. It sits on the workspace's one open-addressed map,
//! a [`DenseMap`] from destination to a packed `Route`:
//!
//! * 16-byte slots (const-asserted), four to a cache line: key, expiry and
//!   payload side by side, so a probe hit, a commit or a backward shift
//!   touches one line; an update or an insert pays a single probe
//!   ([`DenseMap::probe`] yields the hit or the vacancy);
//! * fitted capacity at ≤ 3/4 load with backward-shift deletion (no
//!   tombstones, so a sweep compacts in place without rehashing);
//! * batch installs reserve once per shuffle, so a whole descriptor run
//!   pays a single occupancy/growth check;
//! * *reclaim before grow*: a reservation that would cross the load
//!   threshold first purges the lapsed entries and rebuilds only if the
//!   threshold is still crossed, so capacity tracks the *live* routes, not
//!   live plus up to a sweep period of stale ones.
//!
//! ## Slot layout
//!
//! | field        | type  | holds                                             |
//! |--------------|-------|---------------------------------------------------|
//! | key          | `u32` | destination; `DenseKey::EMPTY` marks a vacancy    |
//! | `via`        | `u32` | chain route: the RVP — direct route: contact IP   |
//! | `expires_lo` | `u32` | absolute expiry in ms, bits 0‥32                  |
//! | `port`       | `u16` | direct route: contact port                        |
//! | `expires_hi` | `u8`  | absolute expiry in ms, bits 32‥40                 |
//! | `meta`       | `u8`  | hops (5 bits), `DIRECT`, `HAS_CONTACT`            |
//!
//! A direct route's RVP *is* its key and only direct routes carry a
//! contact, so the two never need `via` at once. Forty bits of
//! milliseconds are 34.8 years of virtual time (`Route::HORIZON`);
//! an expiry past it saturates, which can only lapse a route early.
//!
//! ## The fit rule
//!
//! Every rebuild allocates [`DenseMap::fit`]`(n)` slots for the `n` entries
//! it must hold: `n × 4/3` for the load factor times a fixed 5/4 of
//! headroom, i.e. 5/3 slots per entry, rounded up to a whole cache line —
//! the rule every `DenseMap` grows by. The table decides *when*: it
//! rebuilds when a reservation still does not fit after the lapsed
//! entries were reclaimed — the table was over 3/4 full of live routes, so
//! the new capacity is at least 5/4 of the old, growth is geometric and
//! installs stay amortised O(1) — or when a sweep, scheduled or early,
//! leaves the table over *twice* its fit: a table that overshot during
//! warm-up or lost its traffic follows its routes back down, to no storage
//! at all once the last one lapsed. Between growing at 3/4 load and
//! shrinking at 3/10 there is no population that can do both, so a steady
//! table never thrashes.
//!
//! Headroom is the one trade in here. Lapsed routes stay resident until a
//! sweep, and the slack above the live routes is what they fill before a
//! reservation forces one: less headroom means fewer bytes per node and
//! more frequent (if shorter) sweeps, more means the opposite. At 20 000
//! peers a quarter of headroom costs about 1.9 slots per live route and a
//! sweep every three to four rounds; the power-of-two table it replaces
//! paid 2.6 24-byte slots for one every five to six.
//! [`RoutingTable::work`] counts both sides exactly.
//!
//! Expiry bookkeeping is an age accumulator plus a *lower bound on the
//! earliest expiry*: entries expire passively (every accessor filters by
//! `expires > age`, a field of the slot the probe already loaded) and
//! [`RoutingTable::decrease_ttls`] purges them in an amortized sweep every
//! `SWEEP_EVERY` (90 s) of accumulated age — skipped entirely (no walk at
//! all) when the earliest-expiry bound proves nothing has lapsed. The same
//! bound gates the early reclaim (a sweep that purges nothing lifts it
//! above the age, so the next crossing goes straight to growth) and gives
//! [`RoutingTable::len`] an O(1) fast path: while it exceeds the age, the
//! stored occupancy *is* the live count. Observable behavior is identical
//! to the retained hash-map implementation (proven by the differential
//! proptest at the bottom of this file, which also checks that purges plus
//! resident stale entries account for every lapsed route).

use nylon_net::{DenseMap, Endpoint, Ip, PeerId, Port, Probe};
use nylon_sim::SimDuration;

/// One routing entry: the next RVP towards a destination, the remaining
/// lifetime of the chain, and the estimated chain length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Next hop; equal to the destination itself for direct routes.
    pub rvp: PeerId,
    /// Remaining validity; the entry is purged when this reaches zero.
    pub ttl: SimDuration,
    /// Estimated number of physical hops to the destination (1 = direct).
    /// This is the distance-vector metric that keeps chains short and
    /// suppresses routing cycles: information traversing a cycle grows its
    /// hop count and loses to fresher, shorter routes.
    pub hops: u8,
}

/// Routes estimated longer than this are not installed (RIP-style
/// infinity; honest Nylon chains average below 4).
pub const MAX_ROUTE_HOPS: u8 = 16;

/// Accumulated age between expired-entry sweeps: expiry is already
/// enforced passively by the read-path filters, so the sweep only bounds
/// memory and can run rarely.
const SWEEP_EVERY: SimDuration = SimDuration::from_secs(90);

/// One stored route, the value of a 16-byte slot whose key is the
/// destination (layout table in the module docs).
#[derive(Debug, Clone, Copy, Default)]
struct Route {
    /// The RVP of a chain route; the IP of a direct route's contact.
    via: u32,
    expires_lo: u32,
    /// Last observed (post-NAT) endpoint of the destination, recorded
    /// alongside direct routes: replies travel back through the hole it
    /// names. Only meaningful while the route is direct — exactly the
    /// lifetime the engines need, which is why the endpoint lives here
    /// instead of in a second per-node map paying a second lookup per
    /// receive.
    port: Port,
    expires_hi: u8,
    meta: u8,
}

/// The table's storage: destination → route.
type Routes = DenseMap<PeerId, Route>;

const _: () = assert!(RoutingTable::SLOT_BYTES == 16, "a route slot must stay 16 bytes");
const _: () = assert!(MAX_ROUTE_HOPS <= Route::HOPS_MASK);

impl Route {
    /// `meta`: the hop count's bits, and the two flags above them.
    const HOPS_MASK: u8 = 0x1f;
    const DIRECT: u8 = 0x20;
    const HAS_CONTACT: u8 = 0x40;

    /// The latest expiry a slot can hold: 2⁴⁰ − 1 ms, 34.8 years of
    /// virtual time.
    const HORIZON: SimDuration = SimDuration::from_millis((1 << 40) - 1);

    /// The 40 stored bits of `expires`, saturating at [`Self::HORIZON`]:
    /// a stored expiry never exceeds the one asked for, so no lapsed route
    /// reads as live.
    const fn pack_expiry(expires: SimDuration) -> (u32, u8) {
        let horizon = Self::HORIZON.as_millis();
        let ms = if expires.as_millis() < horizon { expires.as_millis() } else { horizon };
        (ms as u32, (ms >> 32) as u8)
    }

    fn new(expires: SimDuration, via: u32, port: Port, meta: u8) -> Self {
        debug_assert!(expires <= Self::HORIZON, "route expiry {expires} past the slot's 40 bits");
        let (expires_lo, expires_hi) = Self::pack_expiry(expires);
        Route { via, expires_lo, port, expires_hi, meta }
    }

    /// A chain route through `rvp` (never the destination itself, never a
    /// contact).
    fn chain(expires: SimDuration, rvp: PeerId, hops: u8) -> Self {
        Self::new(expires, rvp.0, Port(0), hops)
    }

    /// A direct route, with the endpoint its last datagram came from.
    fn direct(expires: SimDuration, contact: Option<Endpoint>) -> Self {
        match contact {
            Some(ep) => Self::new(expires, ep.ip.0, ep.port, 1 | Self::DIRECT | Self::HAS_CONTACT),
            None => Self::new(expires, 0, Port(0), 1 | Self::DIRECT),
        }
    }

    /// Absolute expiry against the table's age accumulator.
    #[inline]
    fn expires(&self) -> SimDuration {
        SimDuration::from_millis(u64::from(self.expires_hi) << 32 | u64::from(self.expires_lo))
    }

    #[inline]
    fn is_direct(&self) -> bool {
        self.meta & Self::DIRECT != 0
    }

    /// The next hop towards `dest`, this route's destination.
    #[inline]
    fn rvp(&self, dest: PeerId) -> PeerId {
        if self.is_direct() {
            dest
        } else {
            PeerId(self.via)
        }
    }

    #[inline]
    fn hops(&self) -> u8 {
        self.meta & Self::HOPS_MASK
    }

    fn contact(&self) -> Option<Endpoint> {
        (self.meta & Self::HAS_CONTACT != 0).then_some(Endpoint::new(Ip(self.via), self.port))
    }

    fn entry(&self, dest: PeerId, age: SimDuration) -> RouteEntry {
        RouteEntry {
            rvp: self.rvp(dest),
            ttl: self.expires().saturating_sub(age),
            hops: self.hops(),
        }
    }
}

/// What keeping a table fitted has cost over its lifetime (telemetry):
/// the other side of the bytes that [`RoutingTable::probe_stats`] reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteWork {
    /// Expiry sweeps run, scheduled or early.
    pub sweeps: u64,
    /// Slots those sweeps walked (each walks the whole table).
    pub sweep_slots: u64,
    /// Storage rebuilds, growing or shrinking.
    pub rebuilds: u64,
    /// Slots those rebuilds walked: the old lane read, the new one written.
    pub rebuild_slots: u64,
}

/// The routing table of one Nylon peer, backed by a [`DenseMap`] (see the
/// module docs for the storage and expiry design).
///
/// ```
/// use nylon::routing::RoutingTable;
/// use nylon_net::PeerId;
/// use nylon_sim::SimDuration;
///
/// let mut rt = RoutingTable::new(PeerId(0));
/// // A shuffle with p1 makes p1 directly reachable...
/// rt.update_direct(PeerId(1), SimDuration::from_secs(90));
/// // ...and p1 handed us a reference to p9, becoming our RVP for it.
/// rt.update_next_rvp(PeerId(9), PeerId(1), SimDuration::from_secs(60), 2);
/// assert_eq!(rt.next_rvp(PeerId(9)), Some(PeerId(1)));
/// assert!(rt.is_direct(PeerId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    owner: PeerId,
    map: Routes,
    /// Accumulated virtual age (total of all `decrease_ttls` calls).
    age: SimDuration,
    /// Age at which the next amortized purge sweep runs.
    next_sweep: SimDuration,
    /// Lower bound on the earliest `expires` among stored entries; `None`
    /// when the table is empty. Kept as a bound, not an exact minimum —
    /// refreshes that extend an entry leave it stale-low, costing at worst
    /// one sweep walk that purges nothing. While the bound exceeds the
    /// age, *every stored entry is provably live*, which is the O(1) fast
    /// path of [`RoutingTable::len`] and the no-walk skip of the sweep.
    min_expires: Option<SimDuration>,
    /// Entries purged by reclaim-before-grow over the table's lifetime,
    /// and how many of them `decrease_ttls` has reported so far.
    reclaimed_early: u64,
    reclaims_reported: u64,
    work: RouteWork,
}

impl RoutingTable {
    /// Bytes of storage per slot (live, stale or vacant).
    pub const SLOT_BYTES: usize = Routes::SLOT_BYTES;

    /// An empty table owned by `owner`.
    pub fn new(owner: PeerId) -> Self {
        RoutingTable {
            owner,
            map: Routes::new(),
            age: SimDuration::ZERO,
            next_sweep: SWEEP_EVERY,
            min_expires: None,
            reclaimed_early: 0,
            reclaims_reported: 0,
            work: RouteWork::default(),
        }
    }

    /// The owning peer.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// Lowers the earliest-expiry bound to cover a newly written expiry.
    #[inline]
    fn note_expiry(&mut self, expires: SimDuration) {
        self.min_expires = Some(self.min_expires.map_or(expires, |m| m.min(expires)));
    }

    /// `true` while the earliest-expiry bound cannot prove every stored
    /// entry live.
    #[inline]
    fn may_hold_stale(&self) -> bool {
        self.min_expires.is_some_and(|min| min <= self.age)
    }

    /// Purges the lapsed entries and tightens the earliest-expiry bound to
    /// the exact survivor minimum. Returns the purge count.
    fn sweep(&mut self) -> u64 {
        self.work.sweeps += 1;
        self.work.sweep_slots += self.map.capacity() as u64;
        let (age, before, mut min) = (self.age, self.map.len(), None);
        // One fused pass purges and takes the exact survivor minimum; a
        // survivor the walk meets twice is min'd twice, which is idempotent.
        self.map.retain(|_, r| {
            let e = r.expires();
            let live = e > age;
            if live {
                min = Some(min.map_or(e, |m: SimDuration| m.min(e)));
            }
            live
        });
        self.min_expires = min;
        (before - self.map.len()) as u64
    }

    /// Rebuilds the storage to [`DenseMap::fit`] `additional` more entries
    /// when they do not fit under the load factor, or when the table is
    /// over twice that fit.
    fn refit(&mut self, additional: usize) {
        let (cap, fit) = (self.map.capacity(), Routes::fit(self.map.len() + additional));
        if !self.map.has_room(additional) || cap > 2 * fit {
            self.work.rebuilds += 1;
            self.work.rebuild_slots += (cap + fit) as u64;
            self.map.rebuild(fit);
        }
    }

    /// Room for `additional` more entries, reclaiming before growing: the
    /// lapsed entries go first, and the storage is rebuilt only if the
    /// load threshold is still crossed without them (or they were most of
    /// the table).
    #[inline]
    fn reserve(&mut self, additional: usize) {
        if !self.map.has_room(additional) {
            if self.may_hold_stale() {
                self.reclaimed_early += self.sweep();
            }
            self.refit(additional);
        }
    }

    /// The slot of `dest` if present *and live* — the filter every
    /// accessor shares.
    #[inline]
    fn find_live(&self, dest: PeerId) -> Option<&Route> {
        self.map.get(&dest).filter(|r| r.expires() > self.age)
    }

    /// Number of live routes. O(1) while the earliest-expiry bound proves
    /// every stored entry live (always right after a sweep); otherwise one
    /// walk of the slots.
    pub fn len(&self) -> usize {
        if self.may_hold_stale() {
            self.iter().count()
        } else {
            self.map.len()
        }
    }

    /// `true` if no live routes are known.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The next RVP towards `dest` (`Some(dest)` itself when direct), or
    /// `None` when no live route exists (Figure 6 `next_RVP()`).
    pub fn next_rvp(&self, dest: PeerId) -> Option<PeerId> {
        self.find_live(dest).map(|r| r.rvp(dest))
    }

    /// `true` if a live direct route (open NAT hole) to `dest` exists.
    pub fn is_direct(&self, dest: PeerId) -> bool {
        self.find_live(dest).is_some_and(Route::is_direct)
    }

    /// Remaining TTL of the route towards `dest`.
    pub fn ttl_of(&self, dest: PeerId) -> Option<SimDuration> {
        self.entry_of(dest).map(|e| e.ttl)
    }

    /// The full route entry towards `dest`.
    pub fn entry_of(&self, dest: PeerId) -> Option<RouteEntry> {
        self.find_live(dest).map(|r| r.entry(dest, self.age))
    }

    /// Installs or refreshes the *direct* route for `dest` (Figure 6
    /// `update_next_RVP(p, p, HOLE_TIMEOUT)`, run on every receive): the
    /// hole is provably open, so the route always wins and its TTL is never
    /// shortened.
    pub fn update_direct(&mut self, dest: PeerId, ttl: SimDuration) {
        self.touch_direct_inner(dest, ttl, None);
    }

    /// [`RoutingTable::update_direct`] plus the observed endpoint the
    /// datagram came from — the engines' per-receive `touch`, folded into
    /// one probe.
    pub fn touch_direct(&mut self, dest: PeerId, ttl: SimDuration, observed: Endpoint) {
        self.touch_direct_inner(dest, ttl, Some(observed));
    }

    fn touch_direct_inner(&mut self, dest: PeerId, ttl: SimDuration, observed: Option<Endpoint>) {
        if dest == self.owner || ttl.is_zero() {
            return;
        }
        let fresh = Route::direct(self.age + ttl, observed);
        self.reserve(1);
        match self.map.probe(dest) {
            Probe::Hit(s) => {
                // A stale (expired, not yet swept) entry is absent for all
                // observable purposes: overwrite it wholesale. A live one
                // keeps the larger expiry and the freshest endpoint —
                // unless the observed endpoint *moved*: a mid-session NAT
                // rebind re-ported the peer, so the accumulated expiry is
                // trust in a hole that no longer exists and the entry is
                // reset to the fresh observation (the silent-blackhole
                // fix: never serve a dead contact on borrowed time).
                let (stale, prior) = (s.expires() <= self.age, s.contact());
                let remapped = !stale && matches!((observed, prior), (Some(o), Some(c)) if o != c);
                *s = if stale || remapped {
                    fresh
                } else {
                    let expires = s.expires().max(fresh.expires());
                    Route::direct(expires, observed.or(prior))
                };
                if remapped {
                    // The reset may have *shortened* this entry's expiry
                    // below the tracked earliest-expiry bound.
                    self.note_expiry(fresh.expires());
                }
            }
            Probe::Vacant(slot) => {
                slot.insert(fresh);
                self.note_expiry(fresh.expires());
            }
        }
    }

    /// The last observed endpoint of `dest`, available exactly while a
    /// live *direct* route exists (replies through the hole it names).
    pub fn contact_of(&self, dest: PeerId) -> Option<Endpoint> {
        self.find_live(dest).and_then(Route::contact)
    }

    /// Updates (or creates) the entry for `dest` (Figure 6
    /// `update_next_RVP()`). `hops` is the estimated chain length through
    /// `rvp`.
    ///
    /// Precedence rules keeping the table sound *and loop-free*:
    ///
    /// * a direct route (`rvp == dest`, `hops == 1`) always overwrites;
    /// * a chain route never downgrades a live direct route;
    /// * among chain routes, the shorter estimated chain wins; on equal
    ///   length the longer TTL wins; the same provider refreshes in place.
    ///
    /// Updates with zero TTL or more than [`MAX_ROUTE_HOPS`] hops are
    /// ignored.
    pub fn update_next_rvp(&mut self, dest: PeerId, rvp: PeerId, ttl: SimDuration, hops: u8) {
        if dest == self.owner || ttl.is_zero() || hops > MAX_ROUTE_HOPS {
            return;
        }
        if rvp == dest {
            return self.update_direct(dest, ttl);
        }
        self.reserve(1);
        self.update_chain_prereserved(dest, rvp, ttl, hops);
    }

    /// Chain-route update with the occupancy check already paid (shared by
    /// the point API above and the batch install below). `rvp != dest`,
    /// `ttl > 0` and `hops <= MAX_ROUTE_HOPS` hold on entry.
    #[inline]
    fn update_chain_prereserved(&mut self, dest: PeerId, rvp: PeerId, ttl: SimDuration, hops: u8) {
        let hops = hops.max(2);
        let new = Route::chain(self.age + ttl, rvp, hops);
        let expires = new.expires();
        match self.map.probe(dest) {
            Probe::Vacant(slot) => {
                slot.insert(new);
                self.note_expiry(expires);
            }
            Probe::Hit(cur) => {
                let stale = cur.expires() <= self.age;
                if !stale && cur.is_direct() {
                    // Keep the direct route.
                } else if !stale && cur.rvp(dest) == rvp {
                    // Same provider: take the fresher estimate.
                    *cur = Route::chain(cur.expires().max(expires), rvp, hops);
                } else if stale
                    || hops < cur.hops()
                    || (hops == cur.hops() && expires > cur.expires())
                {
                    // A stale entry is observably absent, so the update
                    // wins outright; a live one loses to a shorter chain
                    // or, on equal length, a longer TTL. Either way the
                    // replacement may expire earlier than what it
                    // displaced.
                    *cur = new;
                    self.note_expiry(expires);
                }
            }
        }
    }

    /// Installs chain routes for descriptors received in a shuffle with
    /// `partner` (Figure 6 `update_routing_table()`): the partner becomes
    /// the RVP for every natted peer it handed us.
    ///
    /// Each received TTL is capped by the TTL of our own route to the
    /// partner — the chain cannot outlive its first hop (Figure 5's
    /// minimum-along-the-chain invariant) — and each received hop estimate
    /// grows by the partner's own distance.
    ///
    /// This is a true batch operation: the partner entry is read once, and
    /// the whole run of descriptors is covered by a single occupancy/growth
    /// check sized from the iterator's upper bound.
    pub fn install_from_shuffle(
        &mut self,
        partner: PeerId,
        received: impl IntoIterator<Item = (PeerId, SimDuration, u8)>,
    ) -> u64 {
        let Some(p) = self.entry_of(partner) else { return 0 };
        let it = received.into_iter();
        let upper = it.size_hint().1;
        if let Some(upper) = upper {
            self.reserve(upper);
        }
        let mut installed = 0;
        for (dest, ttl, hops) in it {
            if dest == self.owner || dest == partner {
                continue;
            }
            let ttl = ttl.min(p.ttl);
            let hops = hops.saturating_add(p.hops);
            if ttl.is_zero() || hops > MAX_ROUTE_HOPS {
                // Counted as handled (matching the point API, which
                // ignores zero-TTL/overlong updates after the attempt).
                installed += 1;
                continue;
            }
            if upper.is_none() {
                self.reserve(1);
            }
            self.update_chain_prereserved(dest, partner, ttl, hops);
            installed += 1;
        }
        installed
    }

    /// Decreases every TTL by `elapsed` (Figure 6
    /// `decrease_routing_table_ttls()`, line 14).
    ///
    /// O(1) bookkeeping: advances the age accumulator. Expiry itself is
    /// enforced by the read-path filters; every `SWEEP_EVERY` of
    /// accumulated age an amortized sweep purges the lapsed entries in one
    /// pass (backward-shift compaction, then a rebuild only if the table is
    /// left over twice its fit). When the earliest-expiry bound proves
    /// nothing has lapsed, the scheduled sweep is skipped without touching
    /// the slots.
    ///
    /// Returns the number of entries physically purged since the last
    /// scheduled sweep — by that sweep or by reclaim-before-grow in
    /// between — so summing the returns counts every purge once (0 between
    /// sweeps: the cadence the retained hash-map implementation reported).
    pub fn decrease_ttls(&mut self, elapsed: SimDuration) -> u64 {
        self.age += elapsed;
        if self.age < self.next_sweep {
            return 0;
        }
        self.next_sweep = self.age + SWEEP_EVERY;
        let mut purged = self.reclaimed_early
            - std::mem::replace(&mut self.reclaims_reported, self.reclaimed_early);
        if self.may_hold_stale() {
            purged += self.sweep();
            self.refit(0);
        }
        purged
    }

    /// Entries purged ahead of the scheduled sweep by reclaim-before-grow,
    /// over the table's lifetime (telemetry).
    pub fn reclaimed_early(&self) -> u64 {
        self.reclaimed_early
    }

    /// Sweeps and rebuilds over the table's lifetime (telemetry).
    pub fn work(&self) -> RouteWork {
        self.work
    }

    /// Drops every route and frees the slot storage — for a peer that will
    /// never use its table again. Age and telemetry counters survive.
    pub fn release(&mut self) {
        self.map = Routes::new();
        self.min_expires = None;
    }

    /// Removes the entry for `dest`, returning it if it was still live
    /// (a stale entry is dropped from storage but reported as absent).
    pub fn remove(&mut self, dest: PeerId) -> Option<RouteEntry> {
        let r = self.map.remove(&dest)?;
        (r.expires() > self.age).then(|| r.entry(dest, self.age))
    }

    /// Resolves the chain towards `dest` down to a *directly reachable*
    /// first hop: follows `next_RVP` links within this table until hitting
    /// a direct route.
    ///
    /// Returns `None` if the chain is broken (a hop without a live route)
    /// or longer than `max_depth` (cycle guard). For a direct `dest`
    /// returns `dest` itself.
    pub fn resolve_first_hop(&self, dest: PeerId, max_depth: usize) -> Option<PeerId> {
        let mut hop = dest;
        for _ in 0..max_depth {
            let rvp = self.next_rvp(hop)?;
            if rvp == hop {
                return Some(hop);
            }
            hop = rvp;
        }
        None
    }

    /// Iterates over live `(dest, entry)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (PeerId, RouteEntry)> + '_ {
        let live = self.map.iter().filter(|(_, r)| r.expires() > self.age);
        live.map(|(dest, r)| (dest, r.entry(dest, self.age)))
    }

    /// Snapshot-time instrumentation: records the probe distance of every
    /// resident entry into `hist` (a read-only walk — the hot path carries
    /// no histogram state; stale entries still occupy slots and lengthen
    /// probes, so they are recorded too) and returns
    /// `(live entries, slot capacity)` for occupancy gauges.
    pub fn probe_stats(&self, hist: &mut nylon_obs::Histogram) -> (u64, u64) {
        let mut live = 0u64;
        for (r, probe_len) in self.map.probe_lens() {
            live += u64::from(r.expires() > self.age);
            hist.record(probe_len as u64);
        }
        (live, self.map.capacity() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const S90: SimDuration = SimDuration::from_secs(90);
    const S60: SimDuration = SimDuration::from_secs(60);
    const S30: SimDuration = SimDuration::from_secs(30);

    fn rt() -> RoutingTable {
        RoutingTable::new(PeerId(0))
    }

    #[test]
    fn empty_table_has_no_routes() {
        let t = rt();
        assert!(t.is_empty());
        assert_eq!(t.next_rvp(PeerId(1)), None);
        assert!(!t.is_direct(PeerId(1)));
        assert_eq!(t.ttl_of(PeerId(1)), None);
        assert_eq!(t.entry_of(PeerId(1)), None);
    }

    #[test]
    fn direct_route_roundtrip() {
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        assert_eq!(t.next_rvp(PeerId(1)), Some(PeerId(1)));
        assert!(t.is_direct(PeerId(1)));
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90));
        assert_eq!(t.entry_of(PeerId(1)).unwrap().hops, 1);
    }

    #[test]
    fn never_routes_to_self() {
        let mut t = rt();
        t.update_direct(PeerId(0), S90);
        t.update_next_rvp(PeerId(0), PeerId(1), S90, 2);
        assert!(t.is_empty());
    }

    #[test]
    fn zero_ttl_updates_ignored() {
        let mut t = rt();
        t.update_direct(PeerId(1), SimDuration::ZERO);
        t.update_next_rvp(PeerId(2), PeerId(1), SimDuration::ZERO, 2);
        assert!(t.is_empty());
    }

    #[test]
    fn overlong_routes_ignored() {
        let mut t = rt();
        t.update_next_rvp(PeerId(2), PeerId(1), S90, MAX_ROUTE_HOPS + 1);
        assert!(t.is_empty());
        t.update_next_rvp(PeerId(2), PeerId(1), S90, MAX_ROUTE_HOPS);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn chain_route_does_not_downgrade_direct() {
        let mut t = rt();
        t.update_direct(PeerId(9), S60);
        t.update_next_rvp(PeerId(9), PeerId(1), S90, 2);
        assert!(t.is_direct(PeerId(9)), "chain must not replace live direct route");
        assert_eq!(t.ttl_of(PeerId(9)), Some(S60));
    }

    #[test]
    fn direct_overwrites_chain() {
        let mut t = rt();
        t.update_next_rvp(PeerId(9), PeerId(1), S90, 2);
        t.update_direct(PeerId(9), S30);
        assert!(t.is_direct(PeerId(9)));
        // Direct refresh keeps the larger TTL.
        assert_eq!(t.ttl_of(PeerId(9)), Some(S90));
    }

    #[test]
    fn direct_refresh_never_shortens() {
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        t.update_direct(PeerId(1), S30);
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90));
        t.update_direct(PeerId(1), S90 + S30);
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90 + S30));
    }

    #[test]
    fn shorter_chain_wins() {
        let mut t = rt();
        t.update_next_rvp(PeerId(9), PeerId(1), S90, 4);
        t.update_next_rvp(PeerId(9), PeerId(2), S30, 2);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)), "shorter chain must win");
        t.update_next_rvp(PeerId(9), PeerId(3), S90, 3);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)), "longer chain must not win");
    }

    #[test]
    fn equal_length_longer_ttl_wins() {
        let mut t = rt();
        t.update_next_rvp(PeerId(9), PeerId(1), S30, 2);
        t.update_next_rvp(PeerId(9), PeerId(2), S60, 2);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)));
        t.update_next_rvp(PeerId(9), PeerId(3), S30, 2);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)));
    }

    #[test]
    fn same_provider_refreshes_in_place() {
        let mut t = rt();
        t.update_next_rvp(PeerId(9), PeerId(1), S30, 2);
        t.update_next_rvp(PeerId(9), PeerId(1), S60, 3);
        let e = t.entry_of(PeerId(9)).unwrap();
        assert_eq!(e.ttl, S60);
        assert_eq!(e.hops, 3, "same provider updates the estimate");
    }

    #[test]
    fn chain_hops_floor_is_two() {
        let mut t = rt();
        t.update_next_rvp(PeerId(9), PeerId(1), S30, 0);
        assert_eq!(t.entry_of(PeerId(9)).unwrap().hops, 2);
    }

    #[test]
    fn install_from_shuffle_caps_ttl_and_grows_hops() {
        let mut t = rt();
        t.update_direct(PeerId(1), S60); // hole to partner: 60 s, 1 hop
        t.install_from_shuffle(PeerId(1), [(PeerId(9), S90, 1), (PeerId(8), S30, 3)]);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(1)));
        assert_eq!(t.ttl_of(PeerId(9)), Some(S60), "chain TTL capped by first hop");
        assert_eq!(t.entry_of(PeerId(9)).unwrap().hops, 2, "1 (partner) + 1 (received)");
        assert_eq!(t.ttl_of(PeerId(8)), Some(S30), "smaller received TTL kept");
        assert_eq!(t.entry_of(PeerId(8)).unwrap().hops, 4);
    }

    #[test]
    fn install_from_shuffle_without_partner_route_is_noop() {
        let mut t = rt();
        t.install_from_shuffle(PeerId(1), [(PeerId(9), S90, 1)]);
        assert!(t.is_empty());
    }

    #[test]
    fn install_skips_self_and_partner() {
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        t.install_from_shuffle(PeerId(1), [(PeerId(0), S90, 1), (PeerId(1), S30, 1)]);
        assert_eq!(t.len(), 1, "only the direct partner route remains");
        assert!(t.is_direct(PeerId(1)));
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90), "partner entry untouched");
    }

    #[test]
    fn touch_direct_invalidates_on_endpoint_mismatch() {
        // A NAT rebind re-ports the peer mid-session: the next datagram
        // arrives from a new endpoint while the stale entry still holds
        // accumulated TTL. Keeping the max expiry would keep serving
        // trust in a hole that no longer exists (silent blackhole).
        let e1 = Endpoint::new(nylon_net::Ip(1), nylon_net::Port(1000));
        let e2 = Endpoint::new(nylon_net::Ip(1), nylon_net::Port(2000));
        let mut t = rt();
        t.touch_direct(PeerId(1), S90, e1);
        t.decrease_ttls(S30);
        assert_eq!(t.contact_of(PeerId(1)), Some(e1));
        // Rebind: same peer, new observed endpoint, fresh 30 s hole.
        t.touch_direct(PeerId(1), S30, e2);
        assert_eq!(t.contact_of(PeerId(1)), Some(e2), "fresh endpoint replaces the dead one");
        assert_eq!(t.ttl_of(PeerId(1)), Some(S30), "expiry resets to the fresh hole");
        // Same-endpoint refreshes still never shorten.
        t.touch_direct(PeerId(1), S90, e2);
        t.touch_direct(PeerId(1), S30, e2);
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90));
    }

    #[test]
    fn touch_after_mismatch_keeps_expiry_bound_sound() {
        // The remap path can *shorten* an entry's expiry; the
        // earliest-expiry bound must follow or len()'s O(1) fast path
        // would count a lapsed entry as live.
        let e1 = Endpoint::new(nylon_net::Ip(1), nylon_net::Port(1000));
        let e2 = Endpoint::new(nylon_net::Ip(1), nylon_net::Port(2000));
        let mut t = rt();
        t.touch_direct(PeerId(1), S90 + S90, e1);
        t.touch_direct(PeerId(1), S30, e2); // remap: expiry drops to 30 s
        t.decrease_ttls(S60);
        assert_eq!(t.len(), 0);
        assert_eq!(t.contact_of(PeerId(1)), None);
    }

    #[test]
    fn decrease_ttls_purges_expired() {
        let mut t = rt();
        t.update_direct(PeerId(1), S60);
        t.update_next_rvp(PeerId(2), PeerId(1), S30, 2);
        t.decrease_ttls(S30);
        assert_eq!(t.ttl_of(PeerId(1)), Some(S30));
        assert_eq!(t.ttl_of(PeerId(2)), None, "expired entry must be purged");
        t.decrease_ttls(S30);
        assert!(t.is_empty());
    }

    #[test]
    fn len_is_exact_after_expiry() {
        // len must agree with the live set at every age, whether it takes
        // the O(1) counter fast path or the expiry-lane walk.
        let mut t = rt();
        for i in 1..=10u32 {
            t.update_direct(PeerId(i), SimDuration::from_secs(10 * i as u64));
        }
        assert_eq!(t.len(), 10);
        for step in 1..=10usize {
            t.decrease_ttls(SimDuration::from_secs(10));
            assert_eq!(t.len(), 10 - step);
            assert_eq!(t.iter().count(), t.len());
        }
        assert!(t.is_empty());
    }

    #[test]
    fn resolve_first_hop_follows_chain() {
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        t.update_next_rvp(PeerId(2), PeerId(1), S60, 2);
        t.update_next_rvp(PeerId(3), PeerId(2), S30, 3);
        assert_eq!(t.resolve_first_hop(PeerId(1), 8), Some(PeerId(1)));
        assert_eq!(t.resolve_first_hop(PeerId(2), 8), Some(PeerId(1)));
        assert_eq!(t.resolve_first_hop(PeerId(3), 8), Some(PeerId(1)));
    }

    #[test]
    fn resolve_first_hop_detects_breaks_and_cycles() {
        let mut t = rt();
        t.update_next_rvp(PeerId(3), PeerId(2), S30, 2);
        assert_eq!(t.resolve_first_hop(PeerId(3), 8), None, "broken chain");
        // Cycle: 4 -> 5 -> 4.
        t.update_next_rvp(PeerId(4), PeerId(5), S30, 2);
        t.update_next_rvp(PeerId(5), PeerId(4), S30, 2);
        assert_eq!(t.resolve_first_hop(PeerId(4), 8), None, "cycle must hit depth guard");
    }

    #[test]
    fn remove_and_iter() {
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        t.update_next_rvp(PeerId(2), PeerId(1), S60, 2);
        let collected: Vec<(PeerId, RouteEntry)> = t.iter().collect();
        assert_eq!(collected.len(), 2);
        let removed = t.remove(PeerId(1)).unwrap();
        assert_eq!(removed.rvp, PeerId(1));
        assert_eq!(t.len(), 1);
        assert!(t.remove(PeerId(1)).is_none());
    }

    #[test]
    fn contact_roundtrips_through_packed_slot() {
        let ep = |ip, port| Endpoint::new(Ip(ip), Port(port));
        let mut t = rt();
        // No observation: a direct route without a contact.
        t.update_direct(PeerId(1), S90);
        assert!(t.is_direct(PeerId(1)));
        assert_eq!(t.contact_of(PeerId(1)), None);
        // Every bit of ip and port survives, the unknown-port sentinel too.
        for (id, e) in [(2, ep(u32::MAX, u16::MAX)), (3, ep(0x0A00_0001, Port::UNKNOWN.0))] {
            t.touch_direct(PeerId(id), S90, e);
            assert_eq!(t.contact_of(PeerId(id)), Some(e));
        }
        // An endpoint-less refresh keeps the recorded contact...
        t.update_direct(PeerId(2), S30);
        assert_eq!(t.contact_of(PeerId(2)), Some(ep(u32::MAX, u16::MAX)));
        // ...a rebind resets it, and a chain route carries none.
        t.touch_direct(PeerId(2), S30, ep(7, 7));
        assert_eq!(t.contact_of(PeerId(2)), Some(ep(7, 7)));
        assert_eq!(t.ttl_of(PeerId(2)), Some(S30));
        t.update_next_rvp(PeerId(4), PeerId(2), S30, 2);
        assert_eq!(t.contact_of(PeerId(4)), None);
        // A stale direct entry is overwritten wholesale, contact included.
        t.decrease_ttls(S60);
        t.update_direct(PeerId(2), S30);
        assert_eq!(t.contact_of(PeerId(2)), None);

        // One key through chain → direct → stale → chain: its `via` word is
        // an RVP, then a contact IP, then an RVP again, and neither reading
        // ever sees the other's bits.
        let (mut t, k) = (rt(), PeerId(5));
        let route = |rvp, ttl, hops| Some(RouteEntry { rvp: PeerId(rvp), ttl, hops });
        t.update_next_rvp(k, PeerId(0x0A00_0001), S60, 3);
        assert_eq!((t.entry_of(k), t.contact_of(k)), (route(0x0A00_0001, S60, 3), None));
        t.update_direct(k, S30);
        assert_eq!((t.entry_of(k), t.contact_of(k)), (route(5, S60, 1), None), "RVP read as IP");
        t.touch_direct(k, S30, ep(0xDEAD_BEEF, 4242));
        assert_eq!(t.contact_of(k), Some(ep(0xDEAD_BEEF, 4242)));
        t.update_next_rvp(k, PeerId(7), S90, 2);
        assert_eq!(t.entry_of(k), route(5, S60, 1), "a chain never downgrades a live hole");
        t.decrease_ttls(S60);
        assert!(t.map.contains_key(&k), "lapsed but still resident");
        assert_eq!((t.entry_of(k), t.contact_of(k)), (None, None));
        t.update_next_rvp(k, PeerId(7), S30, 4);
        assert_eq!((t.entry_of(k), t.contact_of(k)), (route(7, S30, 4), None), "IP read as RVP");
        assert_eq!(t.resolve_first_hop(k, 4), None, "no direct hop behind the stale contact");
    }

    #[test]
    fn expiry_is_exact_across_the_32_bit_boundary() {
        // 2³² ms is 49.7 days of age: a 90 s route installed 30 s before it
        // has an expiry whose low word wrapped and whose high byte is 1.
        let mut t = rt();
        t.decrease_ttls(SimDuration::from_millis((1 << 32) - 30_000));
        t.update_direct(PeerId(1), S90);
        t.update_next_rvp(PeerId(2), PeerId(1), SimDuration::from_secs(10), 2);
        assert_eq!(t.ttl_of(PeerId(1)), Some(S90));
        // Equal-length chains: the longer TTL wins, on either side of 2³².
        t.update_next_rvp(PeerId(9), PeerId(1), SimDuration::from_secs(20), 2);
        t.update_next_rvp(PeerId(9), PeerId(2), S60, 2);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)), "an expiry above 2^32 read as earlier");
        t.update_next_rvp(PeerId(9), PeerId(3), SimDuration::from_secs(25), 2);
        assert_eq!(t.next_rvp(PeerId(9)), Some(PeerId(2)), "an expiry below 2^32 read as later");
        t.decrease_ttls(SimDuration::from_secs(10));
        assert_eq!((t.ttl_of(PeerId(2)), t.len()), (None, 2));
        t.decrease_ttls(S30);
        assert_eq!(t.ttl_of(PeerId(1)), Some(SimDuration::from_secs(50)), "age past 2^32");
        assert_eq!(t.ttl_of(PeerId(9)), Some(SimDuration::from_secs(20)));
        t.decrease_ttls(SimDuration::from_secs(50));
        assert!(t.is_empty());
    }

    #[test]
    fn expiry_clamp_never_revives_a_lapsed_route() {
        let horizon = Route::HORIZON.as_millis();
        for asked in [horizon - 1, horizon, horizon + 1, 2 * horizon, u64::MAX] {
            let (expires_lo, expires_hi) = Route::pack_expiry(SimDuration::from_millis(asked));
            let stored = Route { expires_lo, expires_hi, ..Route::default() }.expires();
            assert_eq!(stored.as_millis(), asked.min(horizon));
            // Live is `expires > age`: a stored expiry at or below the one
            // asked for cannot pass where that one fails.
            for age in [asked - 1, asked, horizon, u64::MAX] {
                assert!(stored.as_millis() <= age || asked > age);
            }
        }
    }

    #[test]
    fn capacity_tracks_live_routes_not_stale_ones() {
        // A steady workload: every 5 s round refreshes the partner's hole
        // and installs 12 never-seen routes with the full hole timeout —
        // ~205 live at steady state, and as many again lapsed between two
        // scheduled sweeps.
        let (mut t, mut next_id, mut peak_live, mut purged) = (rt(), 2u32, 0usize, 0u64);
        for _ in 0..1_000 {
            t.update_direct(PeerId(1), S90);
            t.install_from_shuffle(PeerId(1), (next_id..next_id + 12).map(|i| (PeerId(i), S90, 1)));
            next_id += 12;
            purged += t.decrease_ttls(SimDuration::from_secs(5));
            peak_live = peak_live.max(t.len());
        }
        assert!((200..=230).contains(&peak_live), "peak live {peak_live}");
        // The largest reservation ever made was for the live routes plus
        // one batch; lapsed-but-resident ones must not have added to it.
        let bound = Routes::fit(peak_live + 16);
        assert!(
            t.map.capacity() <= bound,
            "{} slots for {peak_live} live routes: stale entries forced a growth",
            t.map.capacity()
        );
        // Every physical purge is reported exactly once, early or not.
        assert!(t.reclaimed_early() > 0, "the reclaim path never ran");
        let unreported = t.reclaimed_early - t.reclaims_reported;
        let installed = u64::from(next_id - 2) + 1;
        assert_eq!(purged + unreported + t.map.len() as u64, installed);
    }

    #[test]
    fn capacity_follows_live_routes_down() {
        let round = SimDuration::from_secs(5);
        let mut t = rt();
        t.update_direct(PeerId(1), S90);
        t.install_from_shuffle(PeerId(1), (2..601).map(|i| (PeerId(i), S90, 1)));
        assert_eq!(t.len(), 600);
        assert!(t.map.capacity() >= 800, "{} slots for 600 routes", t.map.capacity());
        // Traffic drops to six fresh routes a round, ~100 live: one sweep
        // cadence later the warm-up capacity is gone.
        let mut next_id = 1_000;
        for _ in 0..SWEEP_EVERY.as_millis() / round.as_millis() {
            t.update_direct(PeerId(1), S90);
            t.install_from_shuffle(PeerId(1), (next_id..next_id + 6).map(|i| (PeerId(i), S90, 1)));
            next_id += 6;
            t.decrease_ttls(round);
        }
        let (live, slots) = (t.len(), t.map.capacity());
        assert!((90..=120).contains(&live), "{live} live routes");
        assert!(slots <= 2 * Routes::fit(live), "{slots} slots for {live} live routes");
        // Traffic stops: once the last route lapsed a sweep frees the lane.
        for _ in 0..2 * SWEEP_EVERY.as_millis() / round.as_millis() {
            t.decrease_ttls(round);
        }
        assert!(t.is_empty());
        assert_eq!(t.map.capacity(), 0, "an empty table still holds storage");
        assert!(t.work().rebuilds >= 3, "grew, shrank and released: {:?}", t.work());
    }

    #[test]
    fn reclaim_keeps_expiry_bound_sound() {
        // Drive the table across the load threshold again and again with a
        // mix of lifetimes, so early reclaims interleave with refreshes,
        // replacements and scheduled sweeps.
        let (mut t, mut rng) = (rt(), nylon_sim::SimRng::new(7));
        for round in 0..400 {
            t.update_direct(PeerId(1), S90);
            let batch: Vec<_> = (0..16)
                .map(|_| {
                    let ttl = SimDuration::from_secs(rng.gen_range(0..90u64));
                    (PeerId(rng.gen_range(2..602u32)), ttl, 1u8)
                })
                .collect();
            t.install_from_shuffle(PeerId(1), batch);
            if round % 3 == 0 {
                t.decrease_ttls(SimDuration::from_secs(5));
            }
            let true_min = t.map.values().map(Route::expires).min();
            assert!(t.min_expires <= true_min, "bound {:?} above {true_min:?}", t.min_expires);
            assert_eq!(t.min_expires.is_none(), t.map.is_empty());
            assert_eq!(t.len(), t.iter().count(), "O(1) len disagrees with the walk");
        }
        assert!(t.reclaimed_early() > 0, "the reclaim path never ran");
    }

    proptest! {
        /// Chain TTLs never exceed the first-hop TTL at install time, hop
        /// estimates always exceed the partner's, and decrease_ttls keeps
        /// every remaining TTL positive.
        #[test]
        fn prop_ttl_invariants(
            partner_ttl_s in 1u64..200,
            recv in proptest::collection::vec((2u32..40, 1u64..200, 0u8..8), 0..30),
            dec_s in 1u64..100,
        ) {
            let mut t = RoutingTable::new(PeerId(0));
            let partner = PeerId(1);
            let pttl = SimDuration::from_secs(partner_ttl_s);
            t.update_direct(partner, pttl);
            t.install_from_shuffle(
                partner,
                recv.iter().map(|(id, s, h)| (PeerId(*id), SimDuration::from_secs(*s), *h)),
            );
            for (dest, e) in t.iter() {
                if dest != partner {
                    prop_assert!(e.ttl <= pttl, "chain TTL exceeds first hop");
                    prop_assert!(e.hops >= 2, "chain hop estimate below 2");
                }
            }
            t.decrease_ttls(SimDuration::from_secs(dec_s));
            for (_, e) in t.iter() {
                prop_assert!(!e.ttl.is_zero());
            }
        }

        /// resolve_first_hop never loops forever and, when it returns a
        /// hop, that hop is direct.
        #[test]
        fn prop_resolve_terminates(
            links in proptest::collection::vec((1u32..20, 1u32..20), 0..40),
        ) {
            let mut t = RoutingTable::new(PeerId(0));
            for (dest, rvp) in &links {
                t.update_next_rvp(PeerId(*dest), PeerId(*rvp), SimDuration::from_secs(30), 2);
            }
            for d in 1u32..20 {
                if let Some(hop) = t.resolve_first_hop(PeerId(d), 32) {
                    prop_assert!(t.is_direct(hop), "resolved hop must be direct");
                }
            }
        }
    }
}

/// The retained pre-open-addressing implementation (`FxHashMap` + lazy
/// expiry + periodic sweep), kept verbatim as the reference model for the
/// differential proptest below: the table's eager sweep must be
/// observably identical to lazy expiry at every step.
#[cfg(test)]
mod reference {
    use super::{RouteEntry, MAX_ROUTE_HOPS};
    use nylon_net::{Endpoint, PeerId};
    use nylon_sim::{FxHashMap, SimDuration};

    const SWEEP_EVERY: SimDuration = SimDuration::from_secs(90);

    #[derive(Debug, Clone, Copy)]
    struct Stored {
        rvp: PeerId,
        expires: SimDuration,
        hops: u8,
        contact: Option<Endpoint>,
    }

    impl Stored {
        fn ttl_at(&self, age: SimDuration) -> SimDuration {
            self.expires.saturating_sub(age)
        }
    }

    #[derive(Debug, Clone)]
    pub struct RefTable {
        owner: PeerId,
        entries: FxHashMap<PeerId, Stored>,
        age: SimDuration,
        next_sweep: SimDuration,
        /// Live → lapsed transitions so far (bookkeeping for the
        /// differential test's purge conservation law; not behaviour).
        lapsed: u64,
    }

    impl RefTable {
        pub fn new(owner: PeerId) -> Self {
            RefTable {
                owner,
                entries: FxHashMap::default(),
                age: SimDuration::ZERO,
                next_sweep: SWEEP_EVERY,
                lapsed: 0,
            }
        }

        /// Routes that have lapsed so far, whatever became of them since.
        pub fn lapsed(&self) -> u64 {
            self.lapsed
        }

        /// Lapsed entries still held in storage.
        pub fn stale_resident(&self) -> u64 {
            (self.entries.len() - self.len()) as u64
        }

        fn live(&self, dest: PeerId) -> Option<&Stored> {
            self.entries.get(&dest).filter(|e| !e.ttl_at(self.age).is_zero())
        }

        pub fn len(&self) -> usize {
            self.entries.values().filter(|e| !e.ttl_at(self.age).is_zero()).count()
        }

        pub fn next_rvp(&self, dest: PeerId) -> Option<PeerId> {
            self.live(dest).map(|e| e.rvp)
        }

        pub fn ttl_of(&self, dest: PeerId) -> Option<SimDuration> {
            self.live(dest).map(|e| e.ttl_at(self.age))
        }

        pub fn entry_of(&self, dest: PeerId) -> Option<RouteEntry> {
            self.live(dest).map(|e| RouteEntry {
                rvp: e.rvp,
                ttl: e.ttl_at(self.age),
                hops: e.hops,
            })
        }

        pub fn contact_of(&self, dest: PeerId) -> Option<Endpoint> {
            self.live(dest).filter(|e| e.rvp == dest).and_then(|e| e.contact)
        }

        pub fn is_direct(&self, dest: PeerId) -> bool {
            self.live(dest).is_some_and(|e| e.rvp == dest)
        }

        pub fn update_direct(&mut self, dest: PeerId, ttl: SimDuration) {
            self.touch_inner(dest, ttl, None);
        }

        pub fn touch_direct(&mut self, dest: PeerId, ttl: SimDuration, observed: Endpoint) {
            self.touch_inner(dest, ttl, Some(observed));
        }

        fn touch_inner(&mut self, dest: PeerId, ttl: SimDuration, observed: Option<Endpoint>) {
            if dest == self.owner || ttl.is_zero() {
                return;
            }
            let expires = self.age + ttl;
            match self.entries.get_mut(&dest) {
                Some(e) => {
                    let stale = e.ttl_at(self.age).is_zero();
                    let remapped =
                        !stale && matches!((observed, e.contact), (Some(o), Some(c)) if o != c);
                    e.rvp = dest;
                    e.hops = 1;
                    e.expires = if stale || remapped { expires } else { e.expires.max(expires) };
                    e.contact = if stale || remapped { observed } else { observed.or(e.contact) };
                }
                None => {
                    self.entries
                        .insert(dest, Stored { rvp: dest, expires, hops: 1, contact: observed });
                }
            }
        }

        pub fn update_next_rvp(&mut self, dest: PeerId, rvp: PeerId, ttl: SimDuration, hops: u8) {
            if dest == self.owner || ttl.is_zero() || hops > MAX_ROUTE_HOPS {
                return;
            }
            if rvp == dest {
                self.update_direct(dest, ttl);
                return;
            }
            let age = self.age;
            let new = Stored { rvp, expires: age + ttl, hops: hops.max(2), contact: None };
            match self.entries.get_mut(&dest) {
                None => {
                    self.entries.insert(dest, new);
                }
                Some(existing) if existing.ttl_at(age).is_zero() => {
                    *existing = new;
                }
                Some(existing) => {
                    if existing.rvp == dest {
                        // Keep the direct route.
                    } else if existing.rvp == rvp {
                        existing.expires = existing.expires.max(new.expires);
                        existing.hops = new.hops;
                    } else if new.hops < existing.hops
                        || (new.hops == existing.hops && new.ttl_at(age) > existing.ttl_at(age))
                    {
                        *existing = new;
                    }
                }
            }
        }

        pub fn install_from_shuffle(
            &mut self,
            partner: PeerId,
            received: impl IntoIterator<Item = (PeerId, SimDuration, u8)>,
        ) -> u64 {
            let Some(partner_entry) = self.live(partner).copied() else { return 0 };
            let partner_ttl = partner_entry.ttl_at(self.age);
            let mut installed = 0;
            for (dest, ttl, hops) in received {
                if dest == self.owner || dest == partner {
                    continue;
                }
                self.update_next_rvp(
                    dest,
                    partner,
                    ttl.min(partner_ttl),
                    hops.saturating_add(partner_entry.hops),
                );
                installed += 1;
            }
            installed
        }

        pub fn decrease_ttls(&mut self, elapsed: SimDuration) -> u64 {
            let live_before = self.len();
            self.age += elapsed;
            self.lapsed += (live_before - self.len()) as u64;
            if self.age >= self.next_sweep {
                let age = self.age;
                let before = self.entries.len();
                self.entries.retain(|_, e| !e.ttl_at(age).is_zero());
                self.next_sweep = age + SWEEP_EVERY;
                return (before - self.entries.len()) as u64;
            }
            0
        }

        pub fn remove(&mut self, dest: PeerId) -> Option<RouteEntry> {
            let age = self.age;
            self.entries.remove(&dest).filter(|e| !e.ttl_at(age).is_zero()).map(|e| RouteEntry {
                rvp: e.rvp,
                ttl: e.ttl_at(age),
                hops: e.hops,
            })
        }
    }
}

#[cfg(test)]
mod differential {
    use super::reference::RefTable;
    use super::*;
    use proptest::prelude::*;

    fn xorshift(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    proptest! {
        /// The table (open-addressed packed slots, passive expiry) and the
        /// retained `FxHashMap` reference must agree on every observable —
        /// `entry_of`, `next_rvp`, `contact_of`, `ttl_of`, `is_direct`,
        /// `len`, `remove`, install counts — after every step of a random
        /// interleaving of install/touch/decrease_ttls/remove ops.
        ///
        /// Purge *counts* obey a conservation law instead of per-call
        /// equality, because reclaim-before-grow purges some lapsed
        /// entries ahead of the shared 90 s cadence: "purged so far +
        /// lapsed entries still resident" never exceeds the routes that
        /// have lapsed (nothing is purged live or counted twice) and never
        /// falls below the reference's own figure (no lapsed entry leaves
        /// storage uncounted unless the reference lost it the same way, to
        /// an overwrite or a `remove`).
        ///
        /// Ops are decoded from plain tuples `(kind, a, b, ttl, hops)`:
        /// 0 update_direct, 1 touch_direct, 2 update_next_rvp,
        /// 3 install_from_shuffle (batch derived deterministically from
        /// the tuple), 4 decrease_ttls, 5 decrease_ttls by 10–49 days (so
        /// expiries carry into the slot's high byte), 6 remove.
        #[test]
        fn prop_routemap_matches_reference(
            ops in proptest::collection::vec(
                ((0u8..7, 0u32..24), (0u32..24, 0u64..200, 0u8..20)),
                0..150,
            ),
        ) {
            let owner = PeerId(0);
            let mut new = RoutingTable::new(owner);
            let mut old = RefTable::new(owner);
            let ep = |i: u32| Endpoint::new(nylon_net::Ip(0x0100_0000 + i), nylon_net::Port(9000));
            let (mut new_purged, mut old_purged) = (0u64, 0u64);
            for &((kind, a), (b, t, h)) in &ops {
                let ttl = SimDuration::from_secs(t);
                match kind {
                    0 => {
                        new.update_direct(PeerId(a), ttl);
                        old.update_direct(PeerId(a), ttl);
                    }
                    1 => {
                        new.touch_direct(PeerId(a), ttl, ep(b % 8));
                        old.touch_direct(PeerId(a), ttl, ep(b % 8));
                    }
                    2 => {
                        new.update_next_rvp(PeerId(a), PeerId(b), ttl, h);
                        old.update_next_rvp(PeerId(a), PeerId(b), ttl, h);
                    }
                    3 => {
                        // Shuffle batch: length and contents derived from
                        // the op tuple (the vendored proptest has no
                        // nested per-op collections).
                        let mut s = ((a as u64) << 32)
                            ^ (b as u64)
                            ^ t.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            ^ ((h as u64) << 17)
                            ^ 0xdead_beef;
                        let n = (xorshift(&mut s) % 14) as usize;
                        let batch: Vec<(PeerId, SimDuration, u8)> = (0..n)
                            .map(|_| {
                                (
                                    PeerId((xorshift(&mut s) % 24) as u32),
                                    SimDuration::from_secs(xorshift(&mut s) % 200),
                                    (xorshift(&mut s) % 20) as u8,
                                )
                            })
                            .collect();
                        let x = new.install_from_shuffle(PeerId(a), batch.clone());
                        let y = old.install_from_shuffle(PeerId(a), batch);
                        prop_assert_eq!(x, y, "installed counts diverge");
                    }
                    4 | 5 => {
                        let secs = if kind == 4 { t % 60 + 1 } else { (t % 40 + 10) * 86_400 };
                        new_purged += new.decrease_ttls(SimDuration::from_secs(secs));
                        old_purged += old.decrease_ttls(SimDuration::from_secs(secs));
                    }
                    _ => {
                        prop_assert_eq!(new.remove(PeerId(a)), old.remove(PeerId(a)));
                    }
                }
                prop_assert_eq!(new.len(), old.len(), "len diverges");
                let unreported = new.reclaimed_early - new.reclaims_reported;
                let accounted = new_purged + unreported + (new.map.len() - new.len()) as u64;
                prop_assert!(accounted <= old.lapsed(), "purged a live route or counted twice");
                prop_assert!(accounted >= old_purged + old.stale_resident(), "lost a purge");
                for d in 0u32..24 {
                    let d = PeerId(d);
                    prop_assert_eq!(new.entry_of(d), old.entry_of(d), "entry_of diverges");
                    prop_assert_eq!(new.next_rvp(d), old.next_rvp(d));
                    prop_assert_eq!(new.contact_of(d), old.contact_of(d));
                    prop_assert_eq!(new.ttl_of(d), old.ttl_of(d));
                    prop_assert_eq!(new.is_direct(d), old.is_direct(d));
                }
            }
        }
    }
}
