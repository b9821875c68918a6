//! The workspace's one open-addressed hash map, for the simulator's small
//! fixed-size keys.
//!
//! The paper's two stateful tables live in it — the NAT boxes' sessions,
//! mappings and filtering rules (Section 2.1) and, in `nylon`, the RVP
//! routing table with its per-entry TTLs (Figures 5–6) — and so do the
//! engines' per-node pending maps. Their access mix is runs of point
//! lookups and short insert bursts over keys no attacker chooses, and a
//! [`DenseMap`] is built for exactly that:
//!
//! * **Packed slots.** One array of `(key, value)` slots, so a probe hit,
//!   an insert or a backward shift touches one slot. Empty slots hold
//!   [`DenseKey::EMPTY`], a key value the caller's key space provably never
//!   produces (asserted on insert): no occupancy bitmap, no per-slot enum
//!   discriminant, no stored probe distance. A NAT session and a 12-byte
//!   route both make 16-byte slots, four to a cache line.
//! * **Fitted capacity.** Any multiple of four slots, not a power of two.
//!   A key's home slot is the multiply-high range reduction of its folded
//!   fx hash ([`DenseKey::hash_u64`] reuses
//!   [`nylon_sim::fxhash::FxHasher`], the workspace's one hashing scheme),
//!   uniform over any capacity without a division; probing is linear from
//!   there and wraps explicitly. An insert that would take the load past
//!   7/8 rebuilds to [`DenseMap::fit`] of the entries: 10/7 slots per entry
//!   in whole cache lines, so growth is geometric (at least 5/4 a step),
//!   inserts stay amortised O(1), and a map holds 8/7 to 10/7 slots per
//!   entry at its largest.
//! * **Robin Hood order** (Celis, 1986). Every cluster keeps its entries
//!   in the order of their home slots, so an entry's distance from home is
//!   at most its predecessor's plus one. A miss stops at the first
//!   resident that sits nearer its own home than the probe has walked from
//!   the key's — the key would have been stored there — instead of at the
//!   next vacancy, which is what keeps misses short at 7/8 load where plain
//!   linear probing would walk ½(1 + 1/(1 − α)²) = 32.5 slots. An insert
//!   takes that slot and shifts the rest of the cluster one slot right.
//! * **Backward-shift deletion** — no tombstones: a removal shifts the
//!   entries behind it back one slot until an entry already home, so
//!   probe chains never rot, load factor alone (≤ 7/8) bounds probe
//!   length, and [`DenseMap::retain`] compacts in place without rehashing.
//! * **A surface for owners with their own capacity policy.** The routing
//!   table reclaims lapsed routes before it grows and shrinks after a
//!   sweep, the NAT boxes refit their maps after a purge. They build that
//!   on [`DenseMap::probe`] (one probe yields the hit to update or the
//!   vacancy to fill), [`DenseMap::has_room`], [`DenseMap::fit`],
//!   [`DenseMap::rebuild`] and [`DenseMap::retain`].
//! * **Deterministic layout.** Slot positions are a pure function of the
//!   insertion history, so replay stays byte-identical. Iteration follows
//!   the slots, an order no output may depend on: the two callers whose
//!   output follows the order they walk a map in — `NatBox::rebind`
//!   handing out fresh ports, hardened Nylon retrying expired punches —
//!   sort what they collect first.

use std::hash::Hasher;

use nylon_sim::fxhash::FxHasher;

use crate::addr::{Endpoint, Ip, PeerId, Port};

/// A key storable in a [`DenseMap`]: small, copyable, with a reserved
/// sentinel value that no live key ever takes.
pub trait DenseKey: Copy + Eq + std::fmt::Debug {
    /// The sentinel marking an empty slot. Inserting it is a caller bug
    /// (asserted); looking it up simply misses.
    const EMPTY: Self;

    /// 64-bit fx hash of the key; its folded low word, scaled to the
    /// capacity, is the slot the probe sequence starts at.
    fn hash_u64(self) -> u64;
}

#[inline]
fn fx_u64(word: u64) -> u64 {
    let mut h = FxHasher::default();
    h.write_u64(word);
    h.finish()
}

impl DenseKey for PeerId {
    // Peer ids are dense creation-order indices; the network would need
    // 2^32 - 1 peers before this value were ever allocated.
    const EMPTY: Self = PeerId(u32::MAX);

    #[inline]
    fn hash_u64(self) -> u64 {
        fx_u64(self.0 as u64)
    }
}

impl DenseKey for Port {
    // Port 0 is `Port::UNKNOWN`: packets addressed to it are always
    // dropped and `alloc_port` starts at the dynamic range, so no NAT
    // mapping is ever keyed by it.
    const EMPTY: Self = Port::UNKNOWN;

    #[inline]
    fn hash_u64(self) -> u64 {
        fx_u64(self.0 as u64)
    }
}

impl DenseKey for Endpoint {
    // The synthetic address plan allocates public peer, NAT and private
    // addresses from low fixed bases; 255.255.255.255 is never handed
    // out. (Port alone would not do: symmetric-NAT identity endpoints
    // legitimately carry `Port::UNKNOWN`.)
    const EMPTY: Self = Endpoint::new(Ip(u32::MAX), Port(u16::MAX));

    #[inline]
    fn hash_u64(self) -> u64 {
        fx_u64(((self.ip.0 as u64) << 16) | self.port.0 as u64)
    }
}

impl DenseKey for (Endpoint, Endpoint) {
    const EMPTY: Self = (Endpoint::EMPTY, Endpoint::EMPTY);

    #[inline]
    fn hash_u64(self) -> u64 {
        let mut h = FxHasher::default();
        h.write_u64(((self.0.ip.0 as u64) << 16) | self.0.port.0 as u64);
        h.write_u64(((self.1.ip.0 as u64) << 16) | self.1.port.0 as u64);
        h.finish()
    }
}

/// Open-addressed map of packed slots. See the module docs for the design.
///
/// The API mirrors the `HashMap` subset the simulator uses; values must be
/// `Default` (vacant slots hold `V::default()`, which also lets `remove`
/// hand the value out without unsafe code).
#[derive(Debug, Clone)]
pub struct DenseMap<K: DenseKey, V> {
    /// `capacity` slots (0 until the first insert), probed linearly and
    /// kept in Robin Hood order; a key of `EMPTY` marks a vacancy.
    slots: Vec<(K, V)>,
    len: usize,
}

/// What [`DenseMap::probe`] found.
#[derive(Debug)]
pub enum Probe<'a, K: DenseKey, V> {
    /// The key is present: its value.
    Hit(&'a mut V),
    /// The key is absent: the slot it goes in.
    Vacant(Vacancy<'a, K, V>),
}

/// The vacant slot a probe for an absent key stopped at.
#[derive(Debug)]
pub struct Vacancy<'a, K: DenseKey, V> {
    map: &'a mut DenseMap<K, V>,
    key: K,
    slot: usize,
}

impl<K: DenseKey, V> Vacancy<'_, K, V> {
    /// Stores the probed key with `val`, shifting the rest of the cluster
    /// from its slot one slot right, up to the next vacancy.
    #[inline]
    pub fn insert(self, val: V) {
        let Vacancy { map, key, slot } = self;
        let (mut carry, mut i) = ((key, val), slot);
        while map.slots[i].0 != K::EMPTY {
            std::mem::swap(&mut map.slots[i], &mut carry);
            i = if i + 1 == map.slots.len() { 0 } else { i + 1 };
        }
        map.slots[i] = carry;
        map.len += 1;
    }
}

impl<K: DenseKey, V: Default> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, V: Default> DenseMap<K, V> {
    /// Bytes of one slot, vacant or not.
    pub const SLOT_BYTES: usize = std::mem::size_of::<(K, V)>();

    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        DenseMap { slots: Vec::new(), len: 0 }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Current slot count (0 until the first insert). Exposed for
    /// occupancy gauges.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of the slot array: [`DenseMap::SLOT_BYTES`] per slot, vacant
    /// or not.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * Self::SLOT_BYTES
    }

    /// Slots a rebuild allocates to hold `entries`: 8/7 for the load
    /// factor times 5/4 of headroom, i.e. 10/7 per entry, rounded up to a
    /// whole cache line of four slots. Nothing for no entries.
    pub fn fit(entries: usize) -> usize {
        (entries * 10).div_ceil(7).next_multiple_of(4)
    }

    /// Whether `additional` more entries fit under the ≤ 7/8 load factor
    /// that Robin Hood order keeps probes short at.
    #[inline]
    pub fn has_room(&self, additional: usize) -> bool {
        (self.len + additional) * 8 <= self.slots.len() * 7
    }

    /// The slot `key` hashes to in a map of `cap` slots: multiply-high
    /// range reduction of the folded fx hash.
    #[inline]
    fn home(key: K, cap: usize) -> usize {
        let h = key.hash_u64();
        ((u64::from((h ^ (h >> 32)) as u32) * cap as u64) >> 32) as usize
    }

    /// The slot after `i`, cyclically.
    #[inline]
    fn next(&self, i: usize) -> usize {
        if i + 1 == self.slots.len() {
            0
        } else {
            i + 1
        }
    }

    /// Steps from slot `from` forward to slot `to`, cyclically.
    #[inline]
    fn distance(&self, from: usize, to: usize) -> usize {
        if to >= from {
            to - from
        } else {
            to + self.slots.len() - from
        }
    }

    /// Probes for `key`: `Ok` is the slot holding it, `Err` the slot it
    /// would be inserted at — a vacancy, or the first resident nearer its
    /// own home than the probe has walked from `key`'s (the sentinel is
    /// never found). No resident is nearer home than 0, so the home slot
    /// itself is not checked. The load factor keeps the walk finite; a map
    /// that never allocated answers `Err(0)`, a slot it does not have —
    /// [`DenseMap::probe`] makes room before it looks.
    #[inline]
    fn find(&self, key: K) -> Result<usize, usize> {
        let cap = self.slots.len();
        let mut i = Self::home(key, cap);
        let mut walked = 0;
        loop {
            let k = self.slots.get(i).map_or(K::EMPTY, |s| s.0);
            if k == K::EMPTY {
                return Err(i);
            }
            if k == key {
                return Ok(i);
            }
            if walked > 0 && self.distance(Self::home(k, cap), i) < walked {
                return Err(i);
            }
            i = self.next(i);
            walked += 1;
        }
    }

    /// A reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(*key).ok().map(|i| &self.slots[i].1)
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(*key).ok().map(|i| &mut self.slots[i].1)
    }

    /// `true` when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(*key).is_ok()
    }

    /// Probes for `key` with room for it reserved — growing to the
    /// [`DenseMap::fit`] of one more entry if it would take the load past
    /// 7/8 — so one probe yields the value to update or the vacancy to fill.
    ///
    /// # Panics
    ///
    /// Panics if `key` is [`DenseKey::EMPTY`].
    #[inline]
    pub fn probe(&mut self, key: K) -> Probe<'_, K, V> {
        assert!(key != K::EMPTY, "DenseMap: probing for the sentinel key");
        if !self.has_room(1) {
            self.rebuild(Self::fit(self.len + 1));
        }
        match self.find(key) {
            Ok(i) => Probe::Hit(&mut self.slots[i].1),
            Err(slot) => Probe::Vacant(Vacancy { map: self, key, slot }),
        }
    }

    /// Inserts `key -> val`, returning the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        match self.probe(key) {
            Probe::Hit(v) => Some(std::mem::replace(v, val)),
            Probe::Vacant(slot) => {
                slot.insert(val);
                None
            }
        }
    }

    /// Removes `key`, returning its value. Backward-shifts the following
    /// probe chain so no tombstone is left behind.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(*key).ok().map(|i| self.remove_at(i))
    }

    /// Vacates slot `i` and shifts the entries behind it back one slot,
    /// up to a vacancy or an entry already in its home slot.
    fn remove_at(&mut self, mut i: usize) -> V {
        let val = std::mem::take(&mut self.slots[i].1);
        self.slots[i].0 = K::EMPTY;
        self.len -= 1;
        let mut j = self.next(i);
        while self.slots[j].0 != K::EMPTY && Self::home(self.slots[j].0, self.slots.len()) != j {
            self.slots.swap(i, j);
            (i, j) = (j, self.next(j));
        }
        val
    }

    /// Removes every entry, keeping the allocated slots for reuse.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        self.slots.fill_with(|| (K::EMPTY, V::default()));
        self.len = 0;
    }

    /// Keeps only entries for which `f` returns `true`, in one walk of the
    /// slots.
    ///
    /// Every entry is visited, but a survivor can be visited twice: when a
    /// deletion's backward shift wraps the end of the slots, it can move an
    /// entry the walk has passed into a slot the walk has yet to reach. So
    /// `f` must decide from `(key, value)` alone, and any side effect on a
    /// survivor must not mind repeating (taking a minimum is fine).
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let cap = self.slots.len();
        let mut i = 0;
        while i < cap {
            let (k, v) = &mut self.slots[i];
            if *k != K::EMPTY && !f(k, v) {
                self.remove_at(i);
                // The shift may have moved a later entry into slot i.
                continue;
            }
            i += 1;
        }
    }

    /// Iterates `(key, &value)` in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().filter(|s| s.0 != K::EMPTY).map(|(k, v)| (*k, v))
    }

    /// Iterates `(key, &mut value)` in unspecified (slot) order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots.iter_mut().filter(|s| s.0 != K::EMPTY).map(|(k, v)| (*k, v))
    }

    /// Iterates values in unspecified (slot) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Every value with its probe length — how many slots past its home
    /// slot the entry sits — in slot order, for occupancy telemetry.
    pub fn probe_lens(&self) -> impl Iterator<Item = (&V, usize)> {
        let cap = self.slots.len();
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.0 != K::EMPTY)
            .map(move |(i, (k, v))| (v, self.distance(Self::home(*k, cap), i)))
    }

    /// Rehashes every entry into a fresh array of `cap` slots: growth, a
    /// shrink, or — at 0, once the map is empty — freeing the storage.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` leaves a slot vacant (or is 0 for an empty map).
    pub fn rebuild(&mut self, cap: usize) {
        assert!(cap > self.len || cap == 0 && self.len == 0, "DenseMap: {cap} slots too few");
        let vacant = (0..cap).map(|_| (K::EMPTY, V::default())).collect();
        self.len = 0;
        for (key, val) in std::mem::replace(&mut self.slots, vacant) {
            if key == K::EMPTY {
                continue;
            }
            let Err(slot) = self.find(key) else { unreachable!("DenseMap: {key:?} stored twice") };
            Vacancy { map: self, key, slot }.insert(val);
        }
    }
}

#[cfg(test)]
impl<K: DenseKey, V: Default> DenseMap<K, V> {
    /// Asserts Robin Hood order: each occupied slot sits at most one
    /// further from its home than its predecessor does (so the slot after
    /// a vacancy is a home slot), and a probe for each `absent` key misses
    /// without walking past the first vacancy after its home.
    fn assert_robin_hood(&self, absent: impl IntoIterator<Item = K>) {
        let cap = self.slots.len();
        let dist = |i: usize| {
            let k = self.slots[i].0;
            (k != K::EMPTY).then(|| self.distance(Self::home(k, cap), i))
        };
        for i in 0..cap {
            if let Some(d) = dist(i) {
                let bound = dist((i + cap - 1) % cap).map_or(0, |before| before + 1);
                assert!(d <= bound, "slot {i} is {d} from home, its predecessor allows {bound}");
            }
        }
        for key in absent {
            let Err(stop) = self.find(key) else { panic!("absent {key:?} found") };
            let mut i = Self::home(key, cap);
            while i != stop {
                assert_ne!(self.slots[i].0, K::EMPTY, "a miss for {key:?} walked past a vacancy");
                i = self.next(i);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_sim::FxHashMap;

    #[test]
    fn empty_map_misses() {
        let m: DenseMap<PeerId, u32> = DenseMap::new();
        assert_eq!(m.len(), 0);
        assert!(m.is_empty());
        assert_eq!(m.get(&PeerId(3)), None);
        assert!(!m.contains_key(&PeerId(3)));
        assert_eq!(m.capacity(), 0, "no allocation before first insert");
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: DenseMap<PeerId, u32> = DenseMap::new();
        assert_eq!(m.insert(PeerId(1), 10), None);
        assert_eq!(m.insert(PeerId(2), 20), None);
        assert_eq!(m.insert(PeerId(1), 11), Some(10));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(&PeerId(1)), Some(&11));
        *m.get_mut(&PeerId(2)).unwrap() += 1;
        assert_eq!(m.remove(&PeerId(2)), Some(21));
        assert_eq!(m.remove(&PeerId(2)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn sentinel_key_lookup_misses() {
        let mut m: DenseMap<Port, u32> = DenseMap::new();
        m.insert(Port(1024), 1);
        assert_eq!(m.get(&Port::UNKNOWN), None, "sentinel lookup must miss, not scan");
        assert_eq!(m.remove(&Port::UNKNOWN), None);
    }

    #[test]
    #[should_panic(expected = "sentinel key")]
    fn sentinel_key_insert_panics() {
        let mut m: DenseMap<PeerId, u32> = DenseMap::new();
        m.insert(PeerId::EMPTY, 1);
    }

    #[test]
    fn growth_preserves_entries() {
        let (mut m, mut cap, mut growths) = (DenseMap::<PeerId, u32>::new(), 0, 0);
        for i in 0..1000 {
            m.insert(PeerId(i), i * 7);
            if m.capacity() != cap {
                // Only the insert that would pass 7/8 load grows the map,
                // and it grows to that many entries' fit.
                assert!(m.len() * 8 > cap * 7, "grew at {} entries in {cap} slots", m.len());
                assert_eq!(m.capacity(), DenseMap::<PeerId, u32>::fit(m.len()));
                (cap, growths) = (m.capacity(), growths + 1);
            }
        }
        assert_eq!((m.len(), m.capacity(), growths), (1000, 1156, 21));
        for i in 0..1000 {
            assert_eq!(m.get(&PeerId(i)), Some(&(i * 7)));
        }
    }

    #[test]
    fn retain_filters() {
        let mut m: DenseMap<PeerId, u32> = DenseMap::new();
        for i in 0..100 {
            m.insert(PeerId(i), i);
        }
        m.retain(|k, _| k.0 % 3 == 0);
        assert_eq!(m.len(), 34);
        assert!(m.contains_key(&PeerId(99)));
        assert!(!m.contains_key(&PeerId(98)));
    }

    #[test]
    fn endpoint_and_pair_keys() {
        let ep = |ip, port| Endpoint::new(Ip(ip), Port(port));
        let mut m: DenseMap<Endpoint, u32> = DenseMap::new();
        // Symmetric-NAT identity endpoints carry Port::UNKNOWN and must be
        // usable as keys (only 255.255.255.255:65535 is reserved).
        m.insert(ep(0x0100_0001, 0), 5);
        assert_eq!(m.get(&ep(0x0100_0001, 0)), Some(&5));

        let mut p: DenseMap<(Endpoint, Endpoint), u32> = DenseMap::new();
        p.insert((ep(1, 1), ep(2, 2)), 9);
        assert_eq!(p.get(&(ep(1, 1), ep(2, 2))), Some(&9));
        assert_eq!(p.get(&(ep(2, 2), ep(1, 1))), None);
    }

    /// Differential check against FxHashMap under a deterministic op mix
    /// heavy on collisions (small key range forces long probe chains and
    /// exercises backward shift, including wrap-around).
    #[test]
    fn differential_vs_fxhashmap() {
        let mut dense: DenseMap<PeerId, u64> = DenseMap::new();
        let mut reference: FxHashMap<PeerId, u64> = FxHashMap::default();
        // xorshift: deterministic, no external RNG dep.
        let mut s = 0x243f_6a88_85a3_08d3u64;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for step in 0..20_000u64 {
            let k = PeerId((rng() % 61) as u32);
            match rng() % 4 {
                0 | 1 => {
                    assert_eq!(dense.insert(k, step), reference.insert(k, step));
                }
                2 => {
                    assert_eq!(dense.remove(&k), reference.remove(&k));
                }
                _ => {
                    assert_eq!(dense.get(&k), reference.get(&k));
                }
            }
            assert_eq!(dense.len(), reference.len());
            dense.assert_robin_hood((0..61).map(PeerId).filter(|k| !reference.contains_key(k)));
        }
        let mut a: Vec<(PeerId, u64)> = dense.iter().map(|(k, v)| (k, *v)).collect();
        let mut b: Vec<(PeerId, u64)> = reference.iter().map(|(k, v)| (*k, *v)).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn backward_shift_keeps_chains_probeable() {
        // Dense consecutive ids collide into runs; deleting from the
        // middle of a run must keep the tail findable.
        let mut m: DenseMap<PeerId, u32> = DenseMap::new();
        for i in 0..32 {
            m.insert(PeerId(i), i);
        }
        for i in (0..32).step_by(2) {
            assert_eq!(m.remove(&PeerId(i)), Some(i));
        }
        for i in 0..32 {
            assert_eq!(m.get(&PeerId(i)).copied(), (i % 2 == 1).then_some(i));
        }
    }
}

/// `DenseMap` alone against `std::collections::HashMap`, at forced small
/// capacities that are multiples of four but mostly not powers of two, and
/// with keys homed on the last and the first slot, so nearly every probe
/// chain crosses the wrap.
#[cfg(test)]
mod storage {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    type Map = DenseMap<PeerId, u64>;

    const CAPS: std::ops::RangeInclusive<usize> = 8..=44;

    /// Five keys homed on slot `cap - 1` and three on slot 0.
    fn seam_keys(cap: usize) -> Vec<PeerId> {
        let homed = |slot, n| (0..).map(PeerId).filter(move |k| Map::home(*k, cap) == slot).take(n);
        homed(cap - 1, 5).chain(homed(0, 3)).collect()
    }

    /// Every resident key is where a probe finds it, at its cyclic
    /// distance from home with no vacancy on the way — what backward-shift
    /// deletion and the in-place `retain` rely on — nothing else is
    /// resident, and the slots are in Robin Hood order for every key of
    /// `pool` that misses.
    fn check(map: &Map, model: &HashMap<PeerId, u64>, pool: &[PeerId]) {
        map.assert_robin_hood(pool.iter().copied().filter(|k| !model.contains_key(k)));
        assert_eq!(map.len, model.len());
        let resident = map.slots.iter().enumerate().filter(|(_, s)| s.0 != PeerId::EMPTY);
        assert_eq!(resident.clone().count(), model.len());
        for (i, &(k, v)) in resident {
            assert_eq!(model.get(&k), Some(&v), "{k:?} is not in the model");
            assert_eq!(map.find(k), Ok(i), "{k:?} unreachable in {map:?}");
            let home = Map::home(k, map.slots.len());
            let (mut j, mut steps) = (home, 0);
            while j != i {
                assert_ne!(map.slots[j].0, PeerId::EMPTY, "vacancy before {k:?}");
                (j, steps) = (map.next(j), steps + 1);
            }
            assert_eq!(steps, map.distance(home, i));
        }
    }

    proptest! {
        /// Ops `(kind, pick, ttl)`: 0–2 insert, 3 remove, 4 retain what
        /// outlives an advancing age, 5 grow by a line, 6 shrink to the
        /// tightest whole line. Keys come from the current capacity's seam
        /// keys or, for odd picks, any capacity's.
        #[test]
        fn prop_storage_survives_the_seam(
            start in 2usize..12,
            ops in proptest::collection::vec((0u8..7, 0usize..64, 1u64..40), 0..200),
        ) {
            let pools: Vec<Vec<PeerId>> = CAPS.step_by(4).map(seam_keys).collect();
            let all: Vec<PeerId> = pools.concat();
            let (mut map, mut model, mut age) = (Map::new(), HashMap::new(), 0u64);
            map.rebuild(start * 4);
            for &(kind, pick, ttl) in &ops {
                let cap = map.capacity();
                let pool = if pick % 2 == 0 { &pools[(cap - 8) / 4] } else { &all };
                let key = pool[pick / 2 % pool.len()];
                match kind {
                    0..=2 if map.has_room(1) => {
                        let expires = age + ttl;
                        match map.probe(key) {
                            Probe::Hit(v) => *v = expires,
                            Probe::Vacant(slot) => slot.insert(expires),
                        }
                        model.insert(key, expires);
                        prop_assert_eq!(map.capacity(), cap, "an insert with room grew the map");
                    }
                    3 => prop_assert_eq!(map.remove(&key), model.remove(&key)),
                    4 => {
                        age += ttl;
                        model.retain(|_, e| *e > age);
                        map.retain(|_, e| *e > age);
                    }
                    5 if cap < *CAPS.end() => map.rebuild(cap + 4),
                    6 => {
                        let tight = (map.len * 8).div_ceil(7).next_multiple_of(4);
                        map.rebuild(tight.max(*CAPS.start()));
                    }
                    _ => {}
                }
                check(&map, &model, &all);
            }
        }
    }
}
