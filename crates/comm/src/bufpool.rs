//! Per-rank free lists of message payload buffers.
//!
//! MPI programs avoid per-message allocation with persistent requests:
//! the payload buffer outlives any single send and is reused round after
//! round. [`BufPool`] reproduces that shape for the thread-based runtime.
//! Every rank keeps one free list *per destination rank*: a buffer
//! acquired for messages to rank `d` comes back (via the runtime's return
//! channel, see `RankCtx::release`) into the same `d`-indexed list.
//!
//! Keying the lists by destination is what makes the steady state
//! allocation-free and *provably* so: within one training exchange a
//! (sender → destination) pair has at most one message in flight, and at
//! most one buffer from the previous layer still travelling back, so two
//! resident buffers per destination cover the demand — no cross-peer
//! stealing can leave a destination short. The trainers top every pool up
//! to exactly that at each step boundary (`RankCtx::ensure_pool`, through
//! `pargcn_core`'s `prewarm_comm_pools`), and the counting-allocator test
//! pins the resulting zero-allocation steady state down.
//!
//! Within a destination's list, `acquire` picks the smallest buffer whose
//! capacity already fits (so small control payloads don't burn the big
//! row-block buffers); on a miss it grows the largest free buffer rather
//! than allocating a fresh one, so the pool converges to the peak working
//! set instead of accreting every size ever requested.

/// Occupancy and hit-rate statistics for one rank's [`BufPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BufPoolStats {
    /// Total `acquire` calls.
    pub acquires: u64,
    /// `acquire` calls served entirely from a resident buffer (no heap
    /// allocation and no growth).
    pub hits: u64,
    /// Buffers currently resident in the free lists.
    pub free_buffers: usize,
}

/// Destination-keyed free lists of `Vec<f32>` payload buffers.
pub struct BufPool {
    /// `free[d]` holds recycled buffers for messages to rank `d`.
    free: Vec<Vec<Vec<f32>>>,
    /// Buffers ever created for messages to rank `d`. At a
    /// scheduling-dependent peak all of them can be resident at once, so
    /// `free[d]` keeps room for this many and `put` never grows it on the
    /// comm path.
    created: Vec<usize>,
    acquires: u64,
    hits: u64,
}

impl BufPool {
    /// An empty pool for a `p`-rank job.
    pub fn new(p: usize) -> Self {
        BufPool {
            free: vec![Vec::new(); p],
            created: vec![0; p],
            acquires: 0,
            hits: 0,
        }
    }

    /// Takes a cleared buffer with `capacity >= len` for a message to
    /// rank `to`, recycling a resident buffer when one fits.
    pub fn acquire(&mut self, to: usize, len: usize) -> Vec<f32> {
        self.acquires += 1;
        let list = &mut self.free[to];
        // Smallest resident buffer that already fits.
        let mut pick: Option<usize> = None;
        for (i, b) in list.iter().enumerate() {
            if b.capacity() >= len && pick.is_none_or(|j| list[j].capacity() > b.capacity()) {
                pick = Some(i);
            }
        }
        if let Some(i) = pick {
            self.hits += 1;
            let mut b = list.swap_remove(i);
            b.clear();
            return b;
        }
        // Miss: grow the largest resident buffer (the pool converges on
        // the peak size) or allocate the first one for this destination.
        let mut largest: Option<usize> = None;
        for (i, b) in list.iter().enumerate() {
            if largest.is_none_or(|j| list[j].capacity() < b.capacity()) {
                largest = Some(i);
            }
        }
        match largest {
            Some(i) => {
                let mut b = list.swap_remove(i);
                b.clear();
                b.reserve_exact(len);
                b
            }
            None => self.create(to, len),
        }
    }

    /// A fresh buffer of capacity `len` for destination `to`, with room
    /// made in `free[to]` for its eventual return.
    fn create(&mut self, to: usize, len: usize) -> Vec<f32> {
        self.created[to] += 1;
        let list = &mut self.free[to];
        list.reserve(self.created[to].saturating_sub(list.len()));
        Vec::with_capacity(len)
    }

    /// Returns a buffer to the free list for destination `to`.
    pub fn put(&mut self, to: usize, mut buf: Vec<f32>) {
        buf.clear();
        self.free[to].push(buf);
    }

    /// Pre-allocates `count` buffers of capacity `len` for destination
    /// `to`, so later `acquire`s hit without touching the heap.
    pub fn prewarm(&mut self, to: usize, count: usize, len: usize) {
        for _ in 0..count {
            let buf = self.create(to, len);
            self.free[to].push(buf);
        }
    }

    /// Idempotent prewarm: tops the pool up until `count` resident
    /// buffers for `to` fit `len` floats, growing too-small resident
    /// buffers (largest first — fewest bytes to add) before allocating
    /// fresh ones. Once the pool has seen the high-water `(count, len)`,
    /// further calls are no-ops, so callers with a *stream* of demands
    /// of varying size (the mini-batch engine: one plan per batch) can
    /// re-ensure per step and keep the analytic steady-state guarantee
    /// without accreting buffers the way repeated `prewarm` would.
    pub fn ensure(&mut self, to: usize, count: usize, len: usize) {
        let fitting = self.free[to].iter().filter(|b| b.capacity() >= len).count();
        for _ in fitting..count {
            let largest_small = (0..self.free[to].len())
                .filter(|&i| self.free[to][i].capacity() < len)
                .max_by_key(|&i| self.free[to][i].capacity());
            match largest_small {
                Some(i) => self.free[to][i].reserve_exact(len),
                None => {
                    let buf = self.create(to, len);
                    self.free[to].push(buf);
                }
            }
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> BufPoolStats {
        BufPoolStats {
            acquires: self.acquires,
            hits: self.hits,
            free_buffers: self.free.iter().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_prefers_smallest_fitting_buffer() {
        let mut pool = BufPool::new(1);
        pool.prewarm(0, 1, 100);
        pool.prewarm(0, 1, 8);
        let b = pool.acquire(0, 4);
        assert_eq!(b.capacity(), 8);
        let big = pool.acquire(0, 50);
        assert_eq!(big.capacity(), 100);
        assert_eq!(pool.stats().hits, 2);
    }

    #[test]
    fn miss_grows_largest_instead_of_accreting() {
        let mut pool = BufPool::new(1);
        pool.prewarm(0, 1, 4);
        let b = pool.acquire(0, 64);
        assert!(b.capacity() >= 64);
        assert_eq!(pool.stats().hits, 0);
        pool.put(0, b);
        // The grown buffer now serves both sizes; nothing new resides.
        assert_eq!(pool.stats().free_buffers, 1);
        let b = pool.acquire(0, 64);
        assert!(b.capacity() >= 64);
        assert_eq!(pool.stats().hits, 1);
    }

    #[test]
    fn destinations_do_not_share_buffers() {
        let mut pool = BufPool::new(2);
        pool.prewarm(1, 1, 32);
        let b = pool.acquire(0, 16);
        // Destination 0 had nothing resident: fresh allocation.
        assert_eq!(pool.stats().hits, 0);
        pool.put(0, b);
        let b = pool.acquire(0, 16);
        assert_eq!(pool.stats().hits, 1);
        drop(b);
        assert_eq!(pool.stats().free_buffers, 1);
    }

    #[test]
    fn ensure_tops_up_without_accreting() {
        let mut pool = BufPool::new(1);
        // From empty: allocates exactly `count` fresh buffers.
        pool.ensure(0, 2, 16);
        assert_eq!(pool.stats().free_buffers, 2);
        // Re-ensuring the same or a smaller demand is a no-op.
        pool.ensure(0, 2, 16);
        pool.ensure(0, 2, 4);
        pool.ensure(0, 1, 16);
        assert_eq!(pool.stats().free_buffers, 2);
        // A larger size grows the resident buffers in place.
        pool.ensure(0, 2, 64);
        assert_eq!(pool.stats().free_buffers, 2);
        let a = pool.acquire(0, 64);
        let b = pool.acquire(0, 64);
        assert!(a.capacity() >= 64 && b.capacity() >= 64);
        assert_eq!(pool.stats().hits, 2);
        pool.put(0, a);
        pool.put(0, b);
        // A larger count accretes only the shortfall.
        pool.ensure(0, 3, 64);
        assert_eq!(pool.stats().free_buffers, 3);
    }

    #[test]
    fn returns_never_grow_a_free_list() {
        let mut pool = BufPool::new(2);
        pool.prewarm(1, 2, 8);
        // Two hits, then five fresh buffers made on misses.
        let bufs: Vec<Vec<f32>> = (0..7).map(|_| pool.acquire(1, 8)).collect();
        let room = pool.free[1].capacity();
        for b in bufs {
            pool.put(1, b);
        }
        assert_eq!(pool.free[1].capacity(), room);
        assert_eq!(pool.stats().free_buffers, 7);
    }

    #[test]
    fn put_clears_contents() {
        let mut pool = BufPool::new(1);
        pool.put(0, vec![1.0, 2.0, 3.0]);
        let b = pool.acquire(0, 2);
        assert!(b.is_empty());
        assert!(b.capacity() >= 2);
    }
}
