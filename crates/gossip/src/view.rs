//! The partial view: a bounded, duplicate-free set of node descriptors.

use nylon_net::PeerId;
use nylon_sim::SimRng;

use crate::descriptor::NodeDescriptor;
use crate::policy::{MergePolicy, SelectionPolicy};

/// A peer's partial view of the network.
///
/// Invariants maintained by every operation:
///
/// * at most `capacity` entries, in a buffer of at most `capacity` slots;
/// * no duplicate peer ids (merging keeps the youngest copy);
/// * never contains the owner itself.
///
/// ```
/// use nylon_gossip::{NodeDescriptor, PartialView};
/// use nylon_net::{Endpoint, Ip, NatClass, PeerId, Port};
///
/// let mut view = PartialView::new(PeerId(0), 3);
/// for i in 1..=3u32 {
///     view.insert(NodeDescriptor::new(
///         PeerId(i),
///         Endpoint::new(Ip(i), Port(9000)),
///         NatClass::Public,
///     ));
/// }
/// assert_eq!(view.len(), 3);
/// assert!(view.contains(PeerId(2)));
/// ```
#[derive(Debug, Clone)]
pub struct PartialView {
    owner: PeerId,
    capacity: usize,
    entries: Vec<NodeDescriptor>,
}

/// The workspace of [`PartialView::merge_and_truncate_with`]: a merge's
/// candidates — the incumbents plus what was received — wait here while
/// the merge policy selects, so no view's own buffer ever holds more than
/// its capacity. A protocol keeps one per worker: it grows to the largest
/// merge once, and then a merge allocates nothing.
#[derive(Debug, Default)]
pub struct MergeScratch(Vec<NodeDescriptor>);

impl PartialView {
    /// An empty view owned by `owner` holding at most `capacity` entries.
    /// The buffer is allocated, at exactly `capacity` slots, when the
    /// first entry arrives, so a view that never receives one — a peer
    /// that was never bootstrapped — costs no heap at all.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(owner: PeerId, capacity: usize) -> Self {
        assert!(capacity > 0, "view capacity must be positive");
        PartialView { owner, capacity, entries: Vec::new() }
    }

    /// Sizes the buffer of a view about to receive an entry to exactly
    /// `capacity` slots, if it is not already (a new view's is empty, a
    /// clone's fits its entries).
    fn reserve_first(&mut self) {
        if self.entries.capacity() < self.capacity {
            self.entries.reserve_exact(self.capacity - self.entries.len());
        }
    }

    /// Descriptor slots the view's buffer holds: never more than
    /// `capacity`, and exactly `capacity` once an entry has been inserted
    /// or merged into it.
    pub(crate) fn slots(&self) -> usize {
        self.entries.capacity()
    }

    /// The peer owning this view.
    pub fn owner(&self) -> PeerId {
        self.owner
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the view holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries in storage order.
    pub fn iter(&self) -> std::slice::Iter<'_, NodeDescriptor> {
        self.entries.iter()
    }

    /// The entries as a slice.
    pub fn as_slice(&self) -> &[NodeDescriptor] {
        &self.entries
    }

    /// The ids of all entries.
    pub fn ids(&self) -> Vec<PeerId> {
        self.entries.iter().map(|d| d.id).collect()
    }

    /// `true` if an entry for `id` is present.
    pub fn contains(&self, id: PeerId) -> bool {
        self.entries.iter().any(|d| d.id == id)
    }

    /// The entry for `id`, if present.
    pub fn get(&self, id: PeerId) -> Option<&NodeDescriptor> {
        self.entries.iter().find(|d| d.id == id)
    }

    /// Inserts a descriptor.
    ///
    /// Self-references are ignored. If the peer is already present the
    /// *younger* copy wins. If the view is full, the oldest entry is evicted
    /// to make room (bootstrap/maintenance path; shuffle merging goes
    /// through [`PartialView::merge_and_truncate`]).
    pub fn insert(&mut self, d: NodeDescriptor) {
        if d.id == self.owner {
            return;
        }
        self.reserve_first();
        if let Some(existing) = self.entries.iter_mut().find(|e| e.id == d.id) {
            if d.age < existing.age {
                *existing = d;
            }
            return;
        }
        if self.entries.len() == self.capacity {
            if let Some((idx, oldest)) = self.entries.iter().enumerate().max_by_key(|(_, e)| e.age)
            {
                if oldest.age >= d.age {
                    self.entries[idx] = d;
                }
                return;
            }
        }
        self.entries.push(d);
    }

    /// Removes the entry for `id`, returning it if it was present.
    pub fn remove(&mut self, id: PeerId) -> Option<NodeDescriptor> {
        let idx = self.entries.iter().position(|d| d.id == id)?;
        Some(self.entries.remove(idx))
    }

    /// Retains only entries for which the predicate holds.
    pub fn retain<F: FnMut(&NodeDescriptor) -> bool>(&mut self, f: F) {
        self.entries.retain(f);
    }

    /// Increments every entry's age by one (called once per shuffle
    /// period, Figure 1 line 7/12 of the paper).
    pub fn increase_age(&mut self) {
        for d in &mut self.entries {
            d.age = d.age.saturating_add(1);
        }
    }

    /// Selects the gossip target per the selection policy: a uniformly
    /// random entry, or the oldest one ("tail").
    pub fn select_target(
        &self,
        policy: SelectionPolicy,
        rng: &mut SimRng,
    ) -> Option<NodeDescriptor> {
        match policy {
            SelectionPolicy::Rand => rng.pick(&self.entries).copied(),
            SelectionPolicy::Tail => self.entries.iter().max_by_key(|d| d.age).copied(),
        }
    }

    /// [`merge_and_truncate_with`](Self::merge_and_truncate_with) in a
    /// workspace of its own, allocated for this one call — for one-off
    /// merges; a protocol merging every round keeps a [`MergeScratch`].
    pub fn merge_and_truncate(
        &mut self,
        received: &[NodeDescriptor],
        sent: &[PeerId],
        policy: MergePolicy,
        rng: &mut SimRng,
    ) {
        self.merge_and_truncate_with(received, sent, policy, rng, &mut MergeScratch::default());
    }

    /// Merges descriptors received in a shuffle and truncates back to
    /// capacity per the merge policy (Figure 1 `merge_and_truncate`).
    ///
    /// * `received` — the descriptors shipped by the partner;
    /// * `sent` — the ids this peer shipped in the same exchange (used by
    ///   [`MergePolicy::Swapper`] to drop them first);
    /// * `scratch` — where the candidates wait while the policy selects.
    ///
    /// Duplicates keep the youngest copy; self-references are dropped.
    ///
    /// Storage: the view's buffer is its capacity. It holds exactly
    /// `capacity` slots from the view's first entry on and a merge never
    /// grows it — the incumbents and the received descriptors meet in
    /// `scratch`, and only the at most `capacity` survivors are copied
    /// back.
    pub fn merge_and_truncate_with(
        &mut self,
        received: &[NodeDescriptor],
        sent: &[PeerId],
        policy: MergePolicy,
        rng: &mut SimRng,
        scratch: &mut MergeScratch,
    ) {
        self.reserve_first();
        let cap = self.capacity;
        let entries = &mut scratch.0;
        entries.clear();
        // Room for every candidate: one allocation for a fresh scratch,
        // none for a warm one.
        entries.reserve(self.entries.len() + received.len());
        entries.extend_from_slice(&self.entries);
        if entries.len() + received.len() <= KERNEL_CANDIDATES {
            dedup_indexed(entries, received, self.owner);
        } else {
            dedup_linear(entries, received, self.owner);
        }
        if entries.len() > cap {
            let excess = entries.len() - cap;
            match policy {
                MergePolicy::Blind => {
                    for _ in 0..excess {
                        let idx = rng
                            .pick_index(entries.len())
                            .expect("entries non-empty while over capacity");
                        entries.swap_remove(idx);
                    }
                }
                MergePolicy::Healer => {
                    // Drop the `excess` oldest entries. Ties are broken at
                    // random: a stable sort would systematically favour
                    // incumbents over freshly appended descriptors of equal
                    // age, starving newly joined peers out of every view.
                    // The kernel takes every merge within its edges; the
                    // rest shuffle, sort stably by age and truncate.
                    if select_youngest_shuffled(entries, cap, rng, &mut self.entries) {
                        return;
                    }
                    rng.shuffle(entries);
                    entries.sort_by_key(|d| d.age);
                    entries.truncate(cap);
                }
                MergePolicy::Swapper => {
                    let mut to_drop = excess;
                    // First drop what we shipped to the partner (but never
                    // an entry the partner just refreshed for us: those
                    // were deduplicated above and keep their younger age,
                    // which we detect by membership in `received` with a
                    // younger copy).
                    let mut idx = 0;
                    while to_drop > 0 && idx < entries.len() {
                        let id = entries[idx].id;
                        let was_sent = sent.contains(&id);
                        let was_received = received.iter().any(|r| r.id == id);
                        if was_sent && !was_received {
                            entries.swap_remove(idx);
                            to_drop -= 1;
                        } else {
                            idx += 1;
                        }
                    }
                    // Any remainder: drop random entries.
                    for _ in 0..to_drop {
                        let idx = rng
                            .pick_index(entries.len())
                            .expect("entries non-empty while over capacity");
                        entries.swap_remove(idx);
                    }
                }
            }
        }
        debug_assert!(entries.len() <= cap);
        self.entries.clear();
        self.entries.extend_from_slice(entries);
    }

    /// Writes the descriptors to ship in a shuffle into `out` (cleared
    /// first): a fresh self-descriptor, then the whole view, as in Figure 1
    /// of the paper (views are exchanged in full; the self-descriptor is
    /// what injects new peers into the overlay). Engines pass a pooled
    /// buffer, so an exchange allocates nothing.
    pub fn write_shuffle_payload(
        &self,
        self_descriptor: NodeDescriptor,
        out: &mut Vec<NodeDescriptor>,
    ) {
        out.clear();
        out.reserve(self.entries.len() + 1);
        out.push(self_descriptor.refreshed());
        out.extend(self.entries.iter().copied());
    }
}

/// Merges with at most this many candidates (incumbents plus received)
/// dedup through [`dedup_indexed`], and healer merges with at most this
/// many after dedup select through [`select_youngest_shuffled`]: one bit
/// each in a `u64` position mask, one byte each in the permutation.
const KERNEL_CANDIDATES: usize = 64;

/// [`select_youngest_shuffled`] handles ages below this, one position
/// mask each; a merge holding an older candidate takes the sort. An age
/// counts the shuffle periods since its peer sent it, and a healer view
/// keeps the youngest, so only a node whose shuffles have failed for many
/// periods holds one this old.
const KERNEL_AGES: usize = 63;

/// Slots of [`dedup_indexed`]'s open-addressed index: at most a quarter
/// full, so a probe rarely passes a second slot.
const INDEX_SLOTS: usize = 256;

/// Appends each of `received` that is neither the owner nor already among
/// `entries`; a duplicate instead replaces its candidate when younger.
/// Exact: an open-addressed index of candidate positions, keyed by id,
/// stands in for a scan of the 20-byte entries. Needs
/// `entries.len() + received.len() <= KERNEL_CANDIDATES`, and the
/// incumbents in `entries` distinct, as a view's are.
fn dedup_indexed(entries: &mut Vec<NodeDescriptor>, received: &[NodeDescriptor], owner: PeerId) {
    debug_assert!(entries.len() + received.len() <= KERNEL_CANDIDATES);
    // Candidate position + 1 per slot; 0 = vacant.
    let mut index = [0u8; INDEX_SLOTS];
    let home = |id: PeerId| (id.0.wrapping_mul(0x9E37_79B9) >> 24) as usize;
    for (pos, e) in entries.iter().enumerate() {
        let mut slot = home(e.id);
        while index[slot] != 0 {
            slot = (slot + 1) % INDEX_SLOTS;
        }
        index[slot] = pos as u8 + 1;
    }
    for d in received {
        if d.id == owner {
            continue;
        }
        let mut slot = home(d.id);
        loop {
            let Some(pos) = index[slot].checked_sub(1) else {
                index[slot] = entries.len() as u8 + 1;
                entries.push(*d);
                break;
            };
            let existing = &mut entries[pos as usize];
            if existing.id == d.id {
                if d.age < existing.age {
                    *existing = *d;
                }
                break;
            }
            slot = (slot + 1) % INDEX_SLOTS;
        }
    }
}

/// [`dedup_indexed`] for merges of more than [`KERNEL_CANDIDATES`]: a
/// linear find among the candidates for each received descriptor.
fn dedup_linear(entries: &mut Vec<NodeDescriptor>, received: &[NodeDescriptor], owner: PeerId) {
    for d in received {
        if d.id == owner {
            continue;
        }
        match entries.iter_mut().find(|e| e.id == d.id) {
            Some(existing) => {
                if d.age < existing.age {
                    *existing = *d;
                }
            }
            None => entries.push(*d),
        }
    }
}

/// The healer's shuffle, stable sort by age and truncate to `cap`, written
/// into `out` — the same entries in the same order for the same draws, if
/// `entries` holds at most [`KERNEL_CANDIDATES`] candidates all younger
/// than [`KERNEL_AGES`]. Otherwise it draws nothing, leaves `out` alone
/// and returns `false`.
///
/// The Fisher–Yates runs over a byte permutation of the positions instead
/// of the 20-byte entries: its draws depend on the length alone, so they
/// are the entry shuffle's. Shuffled position `k` then sets bit `k` in
/// its age's mask, and walking the ages youngest-first, each mask's bits
/// lowest-first, visits the candidates in the stable sort's order.
fn select_youngest_shuffled(
    entries: &[NodeDescriptor],
    cap: usize,
    rng: &mut SimRng,
    out: &mut Vec<NodeDescriptor>,
) -> bool {
    let n = entries.len();
    debug_assert!(n > cap);
    if n > KERNEL_CANDIDATES {
        return false;
    }
    let mut ages = [0u8; KERNEL_CANDIDATES];
    for (age, e) in ages.iter_mut().zip(entries) {
        if usize::from(e.age) >= KERNEL_AGES {
            return false;
        }
        *age = e.age as u8;
    }
    let mut perm = [0u8; KERNEL_CANDIDATES];
    for (k, p) in perm.iter_mut().enumerate() {
        *p = k as u8;
    }
    let perm = &mut perm[..n];
    rng.shuffle(perm);
    // Shuffled positions per age, and the ages present.
    let mut at_age = [0u64; KERNEL_AGES];
    let mut present = 0u64;
    for (k, &p) in perm.iter().enumerate() {
        let age = ages[p as usize];
        at_age[age as usize] |= 1 << k;
        present |= 1 << age;
    }
    out.clear();
    let mut left = cap;
    while left > 0 {
        let age = present.trailing_zeros() as usize;
        present &= present - 1;
        let mut positions = at_age[age];
        while positions != 0 && left > 0 {
            let k = positions.trailing_zeros() as usize;
            positions &= positions - 1;
            out.push(entries[perm[k] as usize]);
            left -= 1;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use nylon_net::{Endpoint, Ip, NatClass, Port};
    use proptest::prelude::*;

    impl PartialView {
        /// The pre-PR-5 `merge_and_truncate`, kept as the executable
        /// specification: the healer path is a shuffle, a stable
        /// `sort_by_key(age)` and a truncate, which the merge kernel
        /// replaces within its edges and the fallback still is.
        /// `prop_merge_matches_reference` demands identical view contents
        /// *and* identical RNG consumption across all policies.
        fn merge_and_truncate_reference(
            &mut self,
            received: &[NodeDescriptor],
            sent: &[PeerId],
            policy: MergePolicy,
            rng: &mut SimRng,
        ) {
            for d in received {
                if d.id == self.owner {
                    continue;
                }
                match self.entries.iter_mut().find(|e| e.id == d.id) {
                    Some(existing) => {
                        if d.age < existing.age {
                            *existing = *d;
                        }
                    }
                    None => self.entries.push(*d),
                }
            }
            if self.entries.len() <= self.capacity {
                return;
            }
            let excess = self.entries.len() - self.capacity;
            match policy {
                MergePolicy::Blind => {
                    for _ in 0..excess {
                        let idx = rng
                            .pick_index(self.entries.len())
                            .expect("entries non-empty while over capacity");
                        self.entries.swap_remove(idx);
                    }
                }
                MergePolicy::Healer => {
                    rng.shuffle(&mut self.entries);
                    self.entries.sort_by_key(|d| d.age);
                    self.entries.truncate(self.capacity);
                }
                MergePolicy::Swapper => {
                    let mut to_drop = excess;
                    let mut idx = 0;
                    while to_drop > 0 && idx < self.entries.len() {
                        let id = self.entries[idx].id;
                        let was_sent = sent.contains(&id);
                        let was_received = received.iter().any(|r| r.id == id);
                        if was_sent && !was_received {
                            self.entries.swap_remove(idx);
                            to_drop -= 1;
                        } else {
                            idx += 1;
                        }
                    }
                    for _ in 0..to_drop {
                        let idx = rng
                            .pick_index(self.entries.len())
                            .expect("entries non-empty while over capacity");
                        self.entries.swap_remove(idx);
                    }
                }
            }
        }
    }

    fn d(id: u32, age: u16) -> NodeDescriptor {
        let mut desc = NodeDescriptor::new(
            PeerId(id),
            Endpoint::new(Ip(0x0100_0000 + id), Port(9000)),
            NatClass::Public,
        );
        desc.age = age;
        desc
    }

    fn filled(owner: u32, cap: usize, ids: &[(u32, u16)]) -> PartialView {
        let mut v = PartialView::new(PeerId(owner), cap);
        for (id, age) in ids {
            v.insert(d(*id, *age));
        }
        v
    }

    #[test]
    fn insert_rejects_self() {
        let mut v = PartialView::new(PeerId(0), 4);
        v.insert(d(0, 0));
        assert!(v.is_empty());
    }

    #[test]
    fn insert_dedups_keeping_youngest() {
        let mut v = PartialView::new(PeerId(0), 4);
        v.insert(d(1, 5));
        v.insert(d(1, 2));
        assert_eq!(v.len(), 1);
        assert_eq!(v.get(PeerId(1)).unwrap().age, 2);
        // An older copy does not replace a younger one.
        v.insert(d(1, 9));
        assert_eq!(v.get(PeerId(1)).unwrap().age, 2);
    }

    #[test]
    fn insert_when_full_evicts_oldest() {
        let mut v = filled(0, 3, &[(1, 9), (2, 1), (3, 4)]);
        v.insert(d(4, 0));
        assert_eq!(v.len(), 3);
        assert!(!v.contains(PeerId(1)), "oldest entry must be evicted");
        assert!(v.contains(PeerId(4)));
    }

    #[test]
    fn insert_when_full_keeps_younger_incumbents() {
        let mut v = filled(0, 3, &[(1, 0), (2, 1), (3, 2)]);
        v.insert(d(4, 10));
        assert_eq!(v.len(), 3);
        assert!(!v.contains(PeerId(4)), "older newcomer must not displace younger entries");
    }

    #[test]
    fn remove_returns_entry() {
        let mut v = filled(0, 3, &[(1, 0), (2, 1)]);
        let gone = v.remove(PeerId(1)).unwrap();
        assert_eq!(gone.id, PeerId(1));
        assert!(!v.contains(PeerId(1)));
        assert!(v.remove(PeerId(42)).is_none());
    }

    #[test]
    fn increase_age_all_entries() {
        let mut v = filled(0, 3, &[(1, 0), (2, 7)]);
        v.increase_age();
        assert_eq!(v.get(PeerId(1)).unwrap().age, 1);
        assert_eq!(v.get(PeerId(2)).unwrap().age, 8);
    }

    #[test]
    fn select_tail_is_oldest() {
        let v = filled(0, 4, &[(1, 3), (2, 9), (3, 0)]);
        let mut rng = SimRng::new(1);
        let t = v.select_target(SelectionPolicy::Tail, &mut rng).unwrap();
        assert_eq!(t.id, PeerId(2));
    }

    #[test]
    fn select_rand_covers_entries() {
        let v = filled(0, 4, &[(1, 0), (2, 0), (3, 0)]);
        let mut rng = SimRng::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(v.select_target(SelectionPolicy::Rand, &mut rng).unwrap().id);
        }
        assert_eq!(seen.len(), 3, "random selection must reach every entry");
    }

    #[test]
    fn select_from_empty_is_none() {
        let v = PartialView::new(PeerId(0), 4);
        let mut rng = SimRng::new(7);
        assert!(v.select_target(SelectionPolicy::Rand, &mut rng).is_none());
        assert!(v.select_target(SelectionPolicy::Tail, &mut rng).is_none());
    }

    #[test]
    fn merge_healer_keeps_youngest() {
        let mut v = filled(0, 3, &[(1, 8), (2, 6), (3, 4)]);
        let received = vec![d(4, 0), d(5, 1)];
        let mut rng = SimRng::new(1);
        v.merge_and_truncate(&received, &[], MergePolicy::Healer, &mut rng);
        assert_eq!(v.len(), 3);
        let mut ids = v.ids();
        ids.sort_by_key(|p| p.0);
        assert_eq!(ids, vec![PeerId(3), PeerId(4), PeerId(5)]);
    }

    #[test]
    fn merge_updates_age_of_duplicates() {
        let mut v = filled(0, 3, &[(1, 8)]);
        let mut rng = SimRng::new(1);
        v.merge_and_truncate(&[d(1, 2)], &[], MergePolicy::Healer, &mut rng);
        assert_eq!(v.get(PeerId(1)).unwrap().age, 2);
        // Older incoming copy does not regress the age.
        v.merge_and_truncate(&[d(1, 11)], &[], MergePolicy::Healer, &mut rng);
        assert_eq!(v.get(PeerId(1)).unwrap().age, 2);
    }

    #[test]
    fn merge_drops_self_references() {
        let mut v = PartialView::new(PeerId(0), 3);
        let mut rng = SimRng::new(1);
        v.merge_and_truncate(&[d(0, 0), d(1, 0)], &[], MergePolicy::Healer, &mut rng);
        assert!(!v.contains(PeerId(0)));
        assert!(v.contains(PeerId(1)));
    }

    #[test]
    fn merge_swapper_drops_sent_first() {
        let mut v = filled(0, 3, &[(1, 0), (2, 0), (3, 0)]);
        let sent = v.ids();
        let received = vec![d(4, 5), d(5, 5), d(6, 5)];
        let mut rng = SimRng::new(1);
        v.merge_and_truncate(&received, &sent, MergePolicy::Swapper, &mut rng);
        assert_eq!(v.len(), 3);
        let mut ids = v.ids();
        ids.sort_by_key(|p| p.0);
        assert_eq!(ids, vec![PeerId(4), PeerId(5), PeerId(6)], "swapper must keep received");
    }

    #[test]
    fn merge_blind_keeps_capacity() {
        let mut v = filled(0, 5, &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        let received: Vec<NodeDescriptor> = (6..12).map(|i| d(i, 0)).collect();
        let mut rng = SimRng::new(1);
        v.merge_and_truncate(&received, &[], MergePolicy::Blind, &mut rng);
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn shuffle_payload_fresh_self_first() {
        let v = filled(7, 3, &[(1, 4), (2, 2)]);
        let mut self_d = d(7, 9);
        self_d.age = 9;
        let mut payload = Vec::new();
        v.write_shuffle_payload(self_d, &mut payload);
        assert_eq!(payload.len(), 3);
        assert_eq!(payload[0].id, PeerId(7));
        assert_eq!(payload[0].age, 0, "self descriptor must be refreshed");
    }

    #[test]
    #[should_panic(expected = "view capacity must be positive")]
    fn zero_capacity_panics() {
        PartialView::new(PeerId(0), 0);
    }

    /// A merge of some 420 candidates takes the linear dedup and the
    /// sorting fallback, which the proptests (views of at most 50 entries)
    /// reach only past 64 candidates; it must match the reference
    /// implementation all the same.
    #[test]
    fn oversized_merge_matches_reference() {
        for seed in 0..8u64 {
            let mut fill_rng = SimRng::new(seed ^ 0x0051_3E00);
            let cap = 300;
            let mut v_new = PartialView::new(PeerId(0), cap);
            for i in 1..=cap as u32 {
                v_new.insert(d(i, fill_rng.gen_range(0..10) as u16));
            }
            let mut v_ref = v_new.clone();
            // 120 received: duplicates of existing ids and fresh ones,
            // with colliding ages — n reaches ~420 > 256.
            let received: Vec<NodeDescriptor> = (0..120u32)
                .map(|_| d(fill_rng.gen_range(1..500), fill_rng.gen_range(0..10) as u16))
                .collect();
            let sent = v_new.ids();
            let mut rng_new = SimRng::new(seed);
            let mut rng_ref = SimRng::new(seed);
            v_new.merge_and_truncate(&received, &sent, MergePolicy::Healer, &mut rng_new);
            v_ref.merge_and_truncate_reference(&received, &sent, MergePolicy::Healer, &mut rng_ref);
            assert_eq!(
                v_new.as_slice(),
                v_ref.as_slice(),
                "oversized healer diverged (seed {seed})"
            );
            assert_eq!(
                rng_new.gen_u64(),
                rng_ref.gen_u64(),
                "RNG consumption diverged (seed {seed})"
            );
        }
    }

    /// The shuffled selection takes exactly the merges within its edges —
    /// up to 64 candidates, every age below 63 — and, on one that it
    /// takes, writes what the entry shuffle, stable sort and truncate
    /// keep, after the same draws.
    #[test]
    fn shuffled_selection_takes_exactly_its_edges() {
        let cands = |n: u32, old: u16| -> Vec<NodeDescriptor> {
            (1..=n).map(|i| d(i, if i == n { old } else { (i % 5) as u16 })).collect()
        };
        for (n, old, taken) in [
            (64, 62, true),
            (64, 63, false),
            (64, 64, false),
            (64, u16::MAX, false),
            (65, 0, false),
            (16, 62, true),
            (16, 63, false),
        ] {
            let entries = cands(n, old);
            let (mut rng, mut rng_ref) = (SimRng::new(u64::from(n)), SimRng::new(u64::from(n)));
            let mut out = Vec::new();
            let took = select_youngest_shuffled(&entries, 15, &mut rng, &mut out);
            assert_eq!(took, taken, "{n} candidates, oldest {old}");
            let mut expected = entries.clone();
            if took {
                rng_ref.shuffle(&mut expected);
                expected.sort_by_key(|e| e.age);
                expected.truncate(15);
            } else {
                expected.clear();
            }
            assert_eq!(out, expected, "{n} candidates, oldest {old}");
            assert_eq!(rng.gen_u64(), rng_ref.gen_u64(), "{n} candidates, oldest {old}");
        }
    }

    /// An age for [`prop_kernel_edges_match_reference`] from a `(kind,
    /// raw)` draw: mostly young ones that tie, some around the kernel's
    /// limit (60..66), some of any age at all.
    fn edge_age(kind: u8, raw: u16) -> u16 {
        match kind {
            0..=5 => raw % 8,
            6 | 7 => 60 + raw % 6,
            _ => raw,
        }
    }

    proptest! {
        /// The merge kernel's edges against the reference: views of 15,
        /// 27 and 50; merges of up to and past 64 candidates (ids in
        /// 0..100 against up to 50 incumbents); batches whose ages reach
        /// at most 62, exactly 63 or anything above, ties and equal-age
        /// duplicates among them; id 0, the owner, as self entries. After
        /// every merge the contents, their order and the RNG stream
        /// position must be the reference's.
        #[test]
        fn prop_kernel_edges_match_reference(
            seed in any::<u64>(),
            cap_pick in 0usize..3,
            batches in proptest::collection::vec(
                (0usize..3, proptest::collection::vec((0u32..100, 0u8..9, any::<u16>()), 0..90)),
                1..6,
            ),
        ) {
            let cap = [15, 27, 50][cap_pick];
            let mut rng_new = SimRng::new(seed);
            let mut rng_ref = SimRng::new(seed);
            let mut v_new = PartialView::new(PeerId(0), cap);
            let mut v_ref = PartialView::new(PeerId(0), cap);
            for (bi, (ceiling_pick, batch)) in batches.iter().enumerate() {
                let ceiling = [62, 63, u16::MAX][*ceiling_pick];
                let received: Vec<NodeDescriptor> = batch
                    .iter()
                    .map(|&(id, kind, raw)| d(id, edge_age(kind, raw).min(ceiling)))
                    .collect();
                let sent = v_new.ids();
                let policy = match bi % 4 {
                    2 => MergePolicy::Swapper,
                    3 => MergePolicy::Blind,
                    _ => MergePolicy::Healer,
                };
                v_new.merge_and_truncate(&received, &sent, policy, &mut rng_new);
                v_ref.merge_and_truncate_reference(&received, &sent, policy, &mut rng_ref);
                prop_assert_eq!(
                    v_new.as_slice(),
                    v_ref.as_slice(),
                    "entry order diverged from reference after batch {} ({:?})",
                    bi,
                    policy
                );
                prop_assert_eq!(
                    rng_new.gen_u64(),
                    rng_ref.gen_u64(),
                    "RNG stream diverged from reference after batch {} ({:?})",
                    bi,
                    policy
                );
                v_new.increase_age();
                v_ref.increase_age();
            }
        }

        /// Invariants hold after arbitrary merge sequences: bounded size, no
        /// duplicates, no self-reference.
        #[test]
        fn prop_merge_invariants(
            seed in any::<u64>(),
            cap in 1usize..12,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..30, 0u16..20), 0..20),
                1..8,
            ),
        ) {
            let mut rng = SimRng::new(seed);
            let mut v = PartialView::new(PeerId(0), cap);
            for (bi, batch) in batches.iter().enumerate() {
                let received: Vec<NodeDescriptor> =
                    batch.iter().map(|(id, age)| d(*id, *age)).collect();
                let sent = v.ids();
                let policy = match bi % 3 {
                    0 => MergePolicy::Blind,
                    1 => MergePolicy::Healer,
                    _ => MergePolicy::Swapper,
                };
                v.merge_and_truncate(&received, &sent, policy, &mut rng);
                prop_assert!(v.len() <= cap, "over capacity");
                prop_assert_eq!(v.slots(), cap, "buffer is not the capacity");
                prop_assert!(!v.contains(PeerId(0)), "self reference");
                let mut ids = v.ids();
                ids.sort_by_key(|p| p.0);
                let before = ids.len();
                ids.dedup();
                prop_assert_eq!(ids.len(), before, "duplicate ids");
            }
        }

        /// The PR-5 differential oracle: the rewritten merge must behave
        /// *bit-identically* to the retained pre-rewrite implementation —
        /// same resulting entries in the same storage order, and the same
        /// number of RNG draws — across all three policies, duplicate ids
        /// at differing ages, self-references, and far-over-capacity
        /// batches. Storage order and RNG consumption both feed later
        /// random choices, so replay determinism rides on this.
        ///
        /// A third view merges healer and blind batches without the shipped
        /// ids and must stay identical too: only swapper reads them, which
        /// is why the healer-only engines keep no shipped-id lists.
        #[test]
        fn prop_merge_matches_reference(
            seed in any::<u64>(),
            cap in 1usize..12,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u32..24, 0u16..8), 0..40),
                1..6,
            ),
        ) {
            let mut rng_new = SimRng::new(seed);
            let mut rng_ref = SimRng::new(seed);
            let mut rng_unsent = SimRng::new(seed);
            let mut v_new = PartialView::new(PeerId(0), cap);
            let mut v_ref = PartialView::new(PeerId(0), cap);
            let mut v_unsent = PartialView::new(PeerId(0), cap);
            for (bi, batch) in batches.iter().enumerate() {
                // Narrow id/age ranges force duplicates and age ties; id 0
                // is the owner, so self-references are exercised too.
                let received: Vec<NodeDescriptor> =
                    batch.iter().map(|(id, age)| d(*id, *age)).collect();
                let sent = v_new.ids();
                let policy = match bi % 3 {
                    0 => MergePolicy::Healer,
                    1 => MergePolicy::Swapper,
                    _ => MergePolicy::Blind,
                };
                v_new.merge_and_truncate(&received, &sent, policy, &mut rng_new);
                v_ref.merge_and_truncate_reference(&received, &sent, policy, &mut rng_ref);
                let unsent: &[PeerId] = if policy == MergePolicy::Swapper { &sent } else { &[] };
                v_unsent.merge_and_truncate(&received, unsent, policy, &mut rng_unsent);
                prop_assert_eq!(
                    v_unsent.as_slice(),
                    v_new.as_slice(),
                    "the shipped ids moved a {:?} merge after batch {}",
                    policy,
                    bi
                );
                prop_assert_eq!(
                    v_new.as_slice(),
                    v_ref.as_slice(),
                    "entry order diverged from reference after batch {} ({:?})",
                    bi,
                    policy
                );
                let draw = rng_new.gen_u64();
                prop_assert_eq!(
                    draw,
                    rng_ref.gen_u64(),
                    "RNG consumption diverged from reference after batch {} ({:?})",
                    bi,
                    policy
                );
                prop_assert_eq!(
                    draw,
                    rng_unsent.gen_u64(),
                    "the shipped ids moved a {:?} merge's RNG draws after batch {}",
                    policy,
                    bi
                );
            }
        }

        /// Healer truncation keeps a youngest-subset: max kept age <= min
        /// dropped age.
        #[test]
        fn prop_healer_keeps_youngest(
            seed in any::<u64>(),
            entries in proptest::collection::vec((1u32..100, 0u16..50), 6..30),
        ) {
            let mut uniq = std::collections::HashMap::new();
            for (id, age) in &entries {
                uniq.entry(*id).or_insert(*age);
            }
            prop_assume!(uniq.len() > 5);
            let cap = 5;
            let mut v = PartialView::new(PeerId(0), cap);
            let received: Vec<NodeDescriptor> =
                uniq.iter().map(|(id, age)| d(*id, *age)).collect();
            let mut rng = SimRng::new(seed);
            v.merge_and_truncate(&received, &[], MergePolicy::Healer, &mut rng);
            prop_assert_eq!(v.len(), cap);
            let max_kept = v.iter().map(|e| e.age).max().unwrap();
            let kept_ids: std::collections::HashSet<u32> =
                v.iter().map(|e| e.id.0).collect();
            let min_dropped = uniq
                .iter()
                .filter(|(id, _)| !kept_ids.contains(id))
                .map(|(_, age)| *age)
                .min()
                .unwrap();
            prop_assert!(max_kept <= min_dropped);
        }
    }
}
