//! An open-addressed, structure-of-arrays hash map for the simulator's
//! small fixed-size keys.
//!
//! The PR-4 profiling pass moved every hot map to `FxHashMap`; this module
//! is the next step for the hottest of them (NAT-box mapping tables,
//! per-node contact/pending maps, and the routing table's `RouteMap`
//! cousin in `nylon`): a [`DenseMap`] stores keys and values in two
//! parallel lanes, so a probe touches only the dense key lane — for the
//! `u32`-sized keys used here, eight keys per cache line — and the value
//! lane is read exactly once, on a confirmed hit.
//!
//! Design points, all in service of the simulator's access mix (runs of
//! point lookups and short insert bursts, never attacker-controlled keys):
//!
//! * **Sentinel-keyed slots.** Empty slots hold [`DenseKey::EMPTY`], a key
//!   value the caller's key space provably never produces (asserted on
//!   insert). No separate occupancy bitmap, no per-slot enum discriminant.
//! * **Power-of-two capacity, linear probing** from an fxhash-derived
//!   start ([`DenseKey::hash_u64`] reuses [`nylon_sim::fxhash::FxHasher`],
//!   the workspace's one hashing scheme).
//! * **Backward-shift deletion** — no tombstones, so probe chains never
//!   rot and load factor alone (≤ 3/4) bounds probe length.
//! * **Deterministic layout.** Slot positions are a pure function of the
//!   insertion history; combined with the workspace invariant that no
//!   simulation output depends on map iteration order, replay stays
//!   byte-identical.

use std::hash::Hasher;

use nylon_sim::fxhash::FxHasher;

use crate::addr::{Endpoint, Ip, PeerId, Port};

/// A key storable in a [`DenseMap`]: small, copyable, with a reserved
/// sentinel value that no live key ever takes.
pub trait DenseKey: Copy + Eq + std::fmt::Debug {
    /// The sentinel marking an empty slot. Inserting it is a caller bug
    /// (asserted); looking it up simply misses.
    const EMPTY: Self;

    /// 64-bit fx hash of the key; the probe sequence starts at
    /// `fold(hash) & (capacity - 1)`.
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

/// Folds a 64-bit hash down to a slot index. Fx multiplies mix upward, so
/// xor the high half back into the low bits before masking.
#[inline]
fn slot_of(hash: u64, mask: usize) -> usize {
    (hash ^ (hash >> 32)) as usize & mask
}

/// Open-addressed SoA map. See the module docs for the design.
///
/// The API mirrors the `HashMap` subset the simulator uses; values must be
/// `Default` (vacant slots in the value lane hold `V::default()`, which
/// also lets `remove` hand the value out without unsafe code).
#[derive(Debug, Clone)]
pub struct DenseMap<K: DenseKey, V> {
    /// Dense key lane, `capacity` long (0 until first insert); probed
    /// linearly, `EMPTY` marks vacant slots.
    keys: Vec<K>,
    /// Value lane, parallel to `keys`; only touched on confirmed hits.
    vals: Vec<V>,
    len: usize,
    /// `capacity - 1`; meaningless while `keys` is empty.
    mask: usize,
}

impl<K: DenseKey, V: Default> Default for DenseMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: DenseKey, V: Default> DenseMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub fn new() -> Self {
        DenseMap { keys: Vec::new(), vals: Vec::new(), len: 0, mask: 0 }
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
        self.keys.len()
    }

    /// Slot index of `key`, or `None`.
    #[inline]
    fn find(&self, key: K) -> Option<usize> {
        if self.keys.is_empty() || key == K::EMPTY {
            return None;
        }
        let mut i = slot_of(key.hash_u64(), self.mask);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == K::EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// A reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(*key).map(|i| &self.vals[i])
    }

    /// A mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(*key).map(|i| &mut self.vals[i])
    }

    /// `true` when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(*key).is_some()
    }

    /// Inserts `key -> val`, returning the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        assert!(key != K::EMPTY, "DenseMap: inserting the sentinel key");
        self.reserve(1);
        let mut i = slot_of(key.hash_u64(), self.mask);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.vals[i], val));
            }
            if k == K::EMPTY {
                self.keys[i] = key;
                self.vals[i] = val;
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes `key`, returning its value. Backward-shifts the following
    /// probe chain so no tombstone is left behind.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(*key).map(|i| self.remove_at(i))
    }

    /// Vacates slot `i` and compacts the probe chain behind it.
    fn remove_at(&mut self, mut i: usize) -> V {
        let val = std::mem::take(&mut self.vals[i]);
        self.keys[i] = K::EMPTY;
        self.len -= 1;
        let mask = self.mask;
        let mut j = (i + 1) & mask;
        while self.keys[j] != K::EMPTY {
            let home = slot_of(self.keys[j].hash_u64(), mask);
            // keys[j] may move into the hole at i only if its home
            // position is not inside the cyclic interval (i, j] — moving
            // it otherwise would break its own probe chain.
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.keys[i] = self.keys[j];
                self.vals.swap(i, j);
                self.keys[j] = K::EMPTY;
                i = j;
            }
            j = (j + 1) & mask;
        }
        val
    }

    /// Removes every entry, keeping the allocated slots for reuse.
    pub fn clear(&mut self) {
        if self.len == 0 {
            return;
        }
        for k in &mut self.keys {
            *k = K::EMPTY;
        }
        for v in &mut self.vals {
            *v = V::default();
        }
        self.len = 0;
    }

    /// Keeps only entries for which `f` returns `true`.
    ///
    /// `f` must be a pure predicate over `(key, value)`: when a deletion's
    /// backward shift wraps the table end, a surviving entry can be moved
    /// into a not-yet-visited slot and be visited twice.
    pub fn retain(&mut self, mut f: impl FnMut(&K, &mut V) -> bool) {
        let cap = self.keys.len();
        let mut i = 0;
        while i < cap {
            if self.keys[i] != K::EMPTY && !f(&self.keys[i], &mut self.vals[i]) {
                self.remove_at(i);
                // The shift may have moved a later entry into slot i.
                continue;
            }
            i += 1;
        }
    }

    /// Iterates `(key, &value)` in unspecified (slot) order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.keys
            .iter()
            .zip(self.vals.iter())
            .filter(|(k, _)| **k != K::EMPTY)
            .map(|(k, v)| (*k, v))
    }

    /// Iterates `(key, &mut value)` in unspecified (slot) order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.keys
            .iter()
            .zip(self.vals.iter_mut())
            .filter(|(k, _)| **k != K::EMPTY)
            .map(|(k, v)| (*k, v))
    }

    /// Iterates values in unspecified (slot) order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
    }

    /// Ensures capacity for `additional` more entries with at most one
    /// growth (the per-batch occupancy check for bulk installs).
    pub fn reserve(&mut self, additional: usize) {
        let needed = self.len + additional;
        // Load factor ≤ 3/4 keeps linear-probe chains short.
        if needed * 4 > self.keys.len() * 3 {
            let mut cap = self.keys.len().max(8);
            while needed * 4 > cap * 3 {
                cap *= 2;
            }
            self.grow(cap);
        }
    }

    fn grow(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two());
        let old_keys = std::mem::replace(&mut self.keys, vec![K::EMPTY; cap]);
        let mut old_vals = std::mem::take(&mut self.vals);
        self.vals = Vec::new();
        self.vals.resize_with(cap, V::default);
        self.mask = cap - 1;
        for (pos, key) in old_keys.into_iter().enumerate() {
            if key == K::EMPTY {
                continue;
            }
            let mut i = slot_of(key.hash_u64(), self.mask);
            while self.keys[i] != K::EMPTY {
                i = (i + 1) & self.mask;
            }
            self.keys[i] = key;
            self.vals[i] = std::mem::take(&mut old_vals[pos]);
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
        let mut m: DenseMap<PeerId, u32> = DenseMap::new();
        for i in 0..1000 {
            m.insert(PeerId(i), i * 7);
        }
        assert_eq!(m.len(), 1000);
        assert!(m.capacity().is_power_of_two());
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
