//! A free-list of reusable `Vec` buffers: the zero-allocation message
//! plumbing for the engines' hot path.
//!
//! Every shuffle used to allocate a handful of fresh `Vec`s — the wire
//! view, the shipped-id list, the response view, merge scratch — and drop
//! them one protocol step later, so a 200-peer round spent a
//! measurable slice of its time in the allocator. A [`BufferPool`]
//! recycles those buffers instead: `acquire` hands out an empty vector
//! (reusing a previously released allocation when one is available),
//! `release` takes it back once the message is consumed.
//!
//! The fabric ([`crate::Network`]) stays payload-opaque, so the pools live
//! with whoever creates and consumes the buffers — each engine embeds the
//! pools for its own wire-entry and peer-id vectors. In steady state every
//! acquire is a recycle and the per-round allocation count drops to the
//! slow-path residue (hash-map growth, rare oversized views), which
//! `tests/alloc_gate.rs` counts.
//!
//! Recycling never changes observable behaviour: a recycled vector is
//! empty, only its capacity survives, and no RNG draw or event ordering
//! depends on it — replay determinism is untouched.

use nylon_obs::Counters;

nylon_obs::counters! {
    /// Counters describing how effective a pool has been.
    pub struct PoolStats {
        /// Buffers handed out in total.
        acquired = "pool_acquired",
        /// Acquisitions served from the free list (no allocation).
        recycled = "pool_recycled",
        /// Buffers handed back — kept for reuse or, past the free-list bound,
        /// dropped — so `acquired - released` is what is still out.
        released = "pool_released",
    }
}

/// Free-list capacity bound: beyond this many idle buffers, released
/// vectors are simply dropped. Generous — an engine's working set is one
/// buffer per in-flight message — but keeps a pathological burst from
/// pinning memory forever.
const MAX_FREE: usize = 4096;

/// A recycling free-list of `Vec<T>` buffers.
///
/// ```
/// use nylon_net::pool::BufferPool;
///
/// let mut pool: BufferPool<u32> = BufferPool::new();
/// let mut buf = pool.acquire();
/// buf.extend([1, 2, 3]);
/// let capacity = buf.capacity();
/// pool.release(buf);
/// let buf = pool.acquire(); // same allocation, emptied
/// assert!(buf.is_empty());
/// assert_eq!(buf.capacity(), capacity);
/// assert_eq!(pool.stats().recycled, 1);
/// ```
#[derive(Debug)]
pub struct BufferPool<T> {
    free: Vec<Vec<T>>,
    stats: PoolStats,
}

impl<T> BufferPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        BufferPool { free: Vec::new(), stats: PoolStats::default() }
    }

    /// An empty vector — a recycled allocation when available, fresh
    /// otherwise.
    #[inline]
    pub fn acquire(&mut self) -> Vec<T> {
        self.stats.acquired += 1;
        match self.free.pop() {
            Some(buf) => {
                self.stats.recycled += 1;
                debug_assert!(buf.is_empty());
                buf
            }
            None => Vec::new(),
        }
    }

    /// Returns a buffer to the free list (cleared; capacity survives).
    #[inline]
    pub fn release(&mut self, mut buf: Vec<T>) {
        self.stats.released += 1;
        if self.free.len() >= MAX_FREE {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Number of idle buffers currently in the free list.
    pub fn idle(&self) -> usize {
        self.free.len()
    }

    /// Usage counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Reports this pool's hit/miss counters into the `kernel` telemetry
    /// layer. Counters merge by addition, so an engine's pools sum.
    pub fn obs_report(&self, out: &mut nylon_obs::Report) {
        self.stats.report(out, "kernel");
    }
}

impl<T> Default for BufferPool<T> {
    fn default() -> Self {
        BufferPool::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_from_empty_pool_allocates() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        let buf = pool.acquire();
        assert!(buf.is_empty());
        assert_eq!(pool.stats(), PoolStats { acquired: 1, recycled: 0, released: 0 });
    }

    #[test]
    fn release_then_acquire_recycles_capacity() {
        let mut pool: BufferPool<u64> = BufferPool::new();
        let mut a = pool.acquire();
        a.extend(0..100);
        let cap = a.capacity();
        pool.release(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.acquire();
        assert!(b.is_empty(), "recycled buffer must come back empty");
        assert_eq!(b.capacity(), cap, "capacity must survive the round trip");
        assert_eq!(pool.idle(), 0);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn steady_state_stops_allocating() {
        let mut pool: BufferPool<u32> = BufferPool::new();
        // Warm up with 4 concurrent buffers, then cycle: every further
        // acquire must be a recycle.
        let warm: Vec<Vec<u32>> = (0..4).map(|_| pool.acquire()).collect();
        for b in warm {
            pool.release(b);
        }
        for _ in 0..100 {
            let x = pool.acquire();
            let y = pool.acquire();
            pool.release(x);
            pool.release(y);
        }
        let s = pool.stats();
        assert_eq!(s.acquired, 4 + 200);
        assert_eq!(s.recycled, 200, "steady state must be allocation-free");
    }

    #[test]
    fn free_list_is_bounded() {
        let mut pool: BufferPool<u8> = BufferPool::new();
        for _ in 0..(MAX_FREE + 10) {
            pool.release(Vec::new());
        }
        assert_eq!(pool.idle(), MAX_FREE);
        assert_eq!(pool.stats().released, MAX_FREE as u64 + 10, "dropped buffers came back too");
    }
}
