//! Fiduccia–Mattheyses bisection refinement for hypergraphs, with exact
//! incremental gains.
//!
//! For a bisection, the connectivity−1 metric reduces to the cut-net
//! metric: a net costs `cost(n)` iff it has pins on both sides. The FM gain
//! of moving `v` from side `s` to side `t` is therefore
//!
//! * `+cost(n)` for every net where `v` is the *last* pin on `s`
//!   (the net becomes internal), and
//! * `−cost(n)` for every net where `t` currently has *no* pins
//!   (the net becomes cut).
//!
//! Gains are computed once per pass from per-net side pin counts and then
//! kept exact, as in classic FM: moving a vertex changes a co-pin's gain
//! only when one of the net's side counts crosses 0 or 1, so a move touches
//! the pins of just those nets. Once a net has a locked pin on a side, that
//! side's count cannot drop to 0 again in the pass and its lone pin, if
//! any, is the locked one, so each net is scanned O(1) times per pass and a
//! pass costs O(pins + updates · log n). Free vertices wait in one
//! addressable max-heap per side, keyed by `(gain, vertex id)`, so ties
//! break the same way on every run.
//!
//! Balance: a move is feasible when the target side stays within its cap,
//! or when it strictly lowers the weight above the caps. Each pass keeps
//! the move prefix with the least over-cap weight first and the best cut
//! second. A pass that starts over a cap therefore ends within it whenever
//! one of its prefixes does, and a pass that starts within the caps never
//! leaves them or raises the cut.

use crate::hypergraph::Hypergraph;

/// Refines side labels in place and returns the cut reduction,
/// `cut(before) − cut(after)`. Side 0 targets weight fraction `frac0`;
/// each side's cap is its target times `1 + epsilon`, rounded up.
pub fn refine(h: &Hypergraph, side: &mut [u8], frac0: f64, epsilon: f64, max_passes: usize) -> i64 {
    let n = h.n_vertices();
    if n < 2 {
        return 0;
    }
    let weights = h.vertex_weights();
    let total: u64 = weights.iter().sum();
    let cap = [
        ((total as f64) * frac0 * (1.0 + epsilon)).ceil() as u64,
        ((total as f64) * (1.0 - frac0) * (1.0 + epsilon)).ceil() as u64,
    ];
    let over = |w: [u64; 2]| w[0].saturating_sub(cap[0]) + w[1].saturating_sub(cap[1]);

    let mut side_weight = [0u64; 2];
    for v in 0..n {
        side_weight[side[v] as usize] += weights[v];
    }
    // counts[net][s] = pins of `net` currently on side s.
    let mut counts = vec![[0u32; 2]; h.n_nets()];
    for (net, count) in counts.iter_mut().enumerate() {
        for &pin in h.pins(net) {
            count[side[pin as usize] as usize] += 1;
        }
    }

    let mut fm = Fm {
        h,
        side,
        counts,
        // locked_on[net][s] = locked pins of `net` on side s this fm.
        locked_on: vec![[0u32; 2]; h.n_nets()],
        queues: GainQueues::new(n),
    };
    let mut log: Vec<u32> = Vec::new();
    let mut total_gain = 0i64;
    for _ in 0..max_passes {
        fm.start();
        log.clear();
        let mut cumulative = 0i64;
        let mut best = (over(side_weight), 0i64);
        let mut best_len = 0usize;

        loop {
            let feasible = |&(_, v): &(i64, u32)| {
                let w = weights[v as usize];
                let t = 1 - fm.side[v as usize] as usize;
                let mut after = side_weight;
                after[t] += w;
                after[1 - t] -= w;
                after[t] <= cap[t] || over(after) < over(side_weight)
            };
            let tops = [fm.queues.top(0), fm.queues.top(1)];
            let Some((g, v)) = tops.into_iter().flatten().filter(feasible).max() else {
                // Neither side's best vertex fits: drop the better one for
                // the rest of the pass so a lighter vertex can surface.
                match tops.into_iter().flatten().max() {
                    Some((_, v)) => fm.queues.remove(fm.side[v as usize], v),
                    None => break,
                }
                continue;
            };
            let v = v as usize;
            debug_assert_eq!(g, gain(h, fm.side, &fm.counts, v));
            let from = fm.side[v] as usize;
            cumulative += g;
            fm.apply(v);
            side_weight[from] -= weights[v];
            side_weight[1 - from] += weights[v];
            log.push(v as u32);
            let now = over(side_weight);
            if now < best.0 || (now == best.0 && cumulative > best.1) {
                best = (now, cumulative);
                best_len = log.len();
            }
        }

        for &v in log.iter().skip(best_len).rev() {
            let v = v as usize;
            let from = fm.side[v] as usize;
            apply_move(h, fm.side, &mut fm.counts, v);
            side_weight[from] -= weights[v];
            side_weight[1 - from] += weights[v];
        }
        total_gain += best.1;
        if best_len == 0 {
            break;
        }
    }
    total_gain
}

/// FM state: side labels (the caller's), per-net side and locked counts,
/// and the queues holding the exact gains of the vertices still free to
/// move in the current pass.
struct Fm<'a> {
    h: &'a Hypergraph,
    side: &'a mut [u8],
    counts: Vec<[u32; 2]>,
    locked_on: Vec<[u32; 2]>,
    queues: GainQueues,
}

impl Fm<'_> {
    /// Unlocks every vertex and queues it with a freshly computed gain.
    fn start(&mut self) {
        self.locked_on.fill([0; 2]);
        let (h, side, counts) = (self.h, &*self.side, &self.counts[..]);
        self.queues.fill(side, |v| gain(h, side, counts, v));
    }

    /// Moves and locks queued vertex `v`, updating its co-pins' gains.
    fn apply(&mut self, v: usize) {
        let s = self.side[v] as usize;
        let t = 1 - s;
        self.queues.remove(s as u8, v as u32);
        self.side[v] = t as u8;
        let h = self.h;
        for &net in h.nets_of(v) {
            let net = net as usize;
            let cost = h.net_cost(net) as i64;
            let [before_s, before_t] = [self.counts[net][s], self.counts[net][t]];
            self.counts[net][s] -= 1;
            self.counts[net][t] += 1;
            self.locked_on[net][t] += 1;
            // Target side: with no pins there, every co-pin (all on s) was
            // about to cut the net and no longer is; with one free pin
            // there, that pin was about to uncut the net and no longer is.
            if before_t == 0 {
                self.shift_pins(net, None, cost);
            } else if before_t == 1 && self.locked_on[net][t] == 1 {
                self.shift_pins(net, Some(t as u8), -cost);
            }
            // Source side: with no pins left, every co-pin (all on t) would
            // now cut the net; with one free pin left, it would uncut it.
            if before_s == 1 {
                self.shift_pins(net, None, -cost);
            } else if before_s == 2 && self.locked_on[net][s] == 0 {
                self.shift_pins(net, Some(s as u8), cost);
            }
        }
    }

    /// Adds `delta` to the gain of every queued pin of `net` (on side
    /// `only`, when given: the net's lone free pin there).
    fn shift_pins(&mut self, net: usize, only: Option<u8>, delta: i64) {
        for &u in self.h.pins(net) {
            let s = self.side[u as usize];
            if only.is_none_or(|only| only == s) {
                self.queues.shift(s, u, delta);
            }
        }
    }
}

/// Flips `v`'s side and updates per-net counts.
#[inline]
fn apply_move(h: &Hypergraph, side: &mut [u8], counts: &mut [[u32; 2]], v: usize) {
    let from = side[v] as usize;
    let to = 1 - from;
    for &net in h.nets_of(v) {
        counts[net as usize][from] -= 1;
        counts[net as usize][to] += 1;
    }
    side[v] = to as u8;
}

/// Exact FM gain of moving `v` to the other side, from per-net counts.
#[inline]
fn gain(h: &Hypergraph, side: &[u8], counts: &[[u32; 2]], v: usize) -> i64 {
    let s = side[v] as usize;
    let t = 1 - s;
    let mut g = 0i64;
    for &net in h.nets_of(v) {
        let c = counts[net as usize];
        let cost = h.net_cost(net as usize) as i64;
        if c[t] == 0 {
            g -= cost; // net becomes cut
        }
        if c[s] == 1 {
            g += cost; // v is the last pin on s: net becomes internal
        }
    }
    g
}

/// One addressable binary max-heap of `(gain, vertex)` entries per side.
/// `pos[v]` is `v`'s slot in its side's heap, or `u32::MAX` once `v` has
/// left the queue (moved and locked, or dropped as infeasible).
struct GainQueues {
    heaps: [Vec<(i64, u32)>; 2],
    pos: Vec<u32>,
}

impl GainQueues {
    fn new(n: usize) -> Self {
        Self {
            heaps: [Vec::with_capacity(n), Vec::with_capacity(n)],
            pos: vec![u32::MAX; n],
        }
    }

    /// Queues every vertex on its side's heap with key `gain(v)`.
    fn fill(&mut self, side: &[u8], gain: impl Fn(usize) -> i64) {
        for heap in &mut self.heaps {
            heap.clear();
        }
        for (v, &s) in side.iter().enumerate() {
            let heap = &mut self.heaps[s as usize];
            self.pos[v] = heap.len() as u32;
            heap.push((gain(v), v as u32));
        }
        for s in 0..2 {
            for i in (0..self.heaps[s].len() / 2).rev() {
                self.sift_down(s, i);
            }
        }
    }

    fn top(&self, s: usize) -> Option<(i64, u32)> {
        self.heaps[s].first().copied()
    }

    /// Takes `v` (queued on side `s`) out of the queue.
    fn remove(&mut self, s: u8, v: u32) {
        let s = s as usize;
        let i = self.pos[v as usize] as usize;
        self.pos[v as usize] = u32::MAX;
        let last = self.heaps[s].pop().expect("queued vertex");
        if last.1 != v {
            self.heaps[s][i] = last;
            self.pos[last.1 as usize] = i as u32;
            if i > 0 && self.heaps[s][(i - 1) / 2] < last {
                self.sift_up(s, i);
            } else {
                self.sift_down(s, i);
            }
        }
    }

    /// Adds `delta` to the key of `v` (on side `s`) if it is still queued.
    #[inline]
    fn shift(&mut self, s: u8, v: u32, delta: i64) {
        let i = self.pos[v as usize];
        if i != u32::MAX {
            let s = s as usize;
            self.heaps[s][i as usize].0 += delta;
            if delta > 0 {
                self.sift_up(s, i as usize);
            } else {
                self.sift_down(s, i as usize);
            }
        }
    }

    fn sift_up(&mut self, s: usize, mut i: usize) -> usize {
        let heap = &mut self.heaps[s];
        let entry = heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if heap[parent] >= entry {
                break;
            }
            heap[i] = heap[parent];
            self.pos[heap[i].1 as usize] = i as u32;
            i = parent;
        }
        heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
        i
    }

    fn sift_down(&mut self, s: usize, mut i: usize) {
        let heap = &mut self.heaps[s];
        let len = heap.len();
        let entry = heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && heap[child + 1] > heap[child] {
                child += 1;
            }
            if heap[child] <= entry {
                break;
            }
            heap[i] = heap[child];
            self.pos[heap[i].1 as usize] = i as u32;
            i = child;
        }
        heap[i] = entry;
        self.pos[entry.1 as usize] = i as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    fn cut_of(h: &Hypergraph, side: &[u8]) -> u64 {
        h.connectivity_cut(&Partition::new(side.iter().map(|&s| s as u32).collect(), 2))
    }

    /// Two dense net clusters joined by a single bridge net.
    fn two_clusters() -> Hypergraph {
        let mut nets = Vec::new();
        // Cluster A over {0..4}: all triples sharing vertex 0.
        for i in 1..5u32 {
            nets.push(vec![0, i]);
            nets.push(vec![i, (i % 4) + 1]);
        }
        // Cluster B over {5..9}.
        for i in 6..10u32 {
            nets.push(vec![5, i]);
            nets.push(vec![i, ((i - 5) % 4) + 6]);
        }
        // Bridge.
        nets.push(vec![4, 5]);
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(vec![1; 10], nets, costs)
    }

    #[test]
    fn recovers_clusters_from_interleaved_start() {
        let h = two_clusters();
        let mut side: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
        refine(&h, &mut side, 0.5, 0.05, 10);
        assert_eq!(cut_of(&h, &side), 1, "only the bridge net should be cut");
    }

    #[test]
    fn gain_formula_on_known_configuration() {
        let h = Hypergraph::new(vec![1; 3], vec![vec![0, 1], vec![0, 2]], vec![1, 4]);
        let side = vec![0u8, 0, 1];
        let mut counts = vec![[0u32; 2]; 2];
        for (net, count) in counts.iter_mut().enumerate() {
            for &p in h.pins(net) {
                count[side[p as usize] as usize] += 1;
            }
        }
        // Moving v0 to side 1: net0 {0,1} becomes cut (−1); net1 {0,2}
        // becomes internal since v0 was the last side-0 pin (+4). Gain +3.
        assert_eq!(gain(&h, &side, &counts, 0), 3);
        // Moving v1: net0 {0,1} is internal to side 0 and becomes cut (−1).
        assert_eq!(gain(&h, &side, &counts, 1), -1);
    }

    #[test]
    fn never_worsens() {
        let h = two_clusters();
        let mut side: Vec<u8> = vec![0, 1, 1, 0, 0, 1, 0, 1, 0, 1];
        let before = cut_of(&h, &side);
        refine(&h, &mut side, 0.5, 0.1, 3);
        assert!(cut_of(&h, &side) <= before);
    }

    #[test]
    fn respects_balance() {
        let h = two_clusters();
        let mut side: Vec<u8> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
        refine(&h, &mut side, 0.5, 0.05, 10);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((4..=6).contains(&w0));
    }

    #[test]
    fn weighted_nets_dominate_decisions() {
        // A cheap net pulls v1 right, an expensive net pulls it left.
        let h = Hypergraph::new(
            vec![1, 1, 1, 1],
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            vec![10, 1, 10, 1],
        );
        let mut side = vec![0u8, 1, 1, 0];
        // Current cut: net0 (10, cut) + net2 (10, cut)… refine with loose
        // balance so FM can fix it to cut the two cheap nets instead.
        refine(&h, &mut side, 0.5, 0.1, 10);
        assert!(cut_of(&h, &side) <= 2, "cut {}", cut_of(&h, &side));
    }

    #[test]
    fn restores_balance_from_an_over_cap_start() {
        // Everything starts on side 0: the pass must move half the chain
        // across even though every such move raises the cut.
        let nets: Vec<Vec<u32>> = (0..19u32).map(|i| vec![i, i + 1]).collect();
        let h = Hypergraph::new(vec![1; 20], nets, vec![1; 19]);
        let mut side = vec![0u8; 20];
        let gain = refine(&h, &mut side, 0.5, 0.1, 4);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((9..=11).contains(&w0), "side-0 weight {w0}");
        assert_eq!(gain, -(cut_of(&h, &side) as i64));
    }
}
