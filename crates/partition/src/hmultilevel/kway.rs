//! Direct k-way refinement on the connectivity−1 metric.
//!
//! Recursive bisection optimizes each split in isolation; a final greedy
//! k-way pass lets vertices move between *any* pair of parts, recovering
//! gains RB cannot see (a vertex may prefer a part created in a different
//! branch of the bisection tree). This mirrors PaToH's optional k-way
//! refinement stage.
//!
//! Gains use per-net part-count tables: moving `v` from part `a` to `b`
//! changes net `n`'s contribution by
//!
//! * `+cost(n)` if `v` is the last pin of `n` in `a` (λ shrinks), and
//! * `−cost(n)` if `n` had no pin in `b` yet (λ grows).
//!
//! Counts are stored sparsely per net (most nets touch few parts). Hub
//! vertices and giant nets are skipped: they almost never move profitably
//! and dominate runtime otherwise.

use crate::hypergraph::Hypergraph;
use crate::Partition;

/// Nets with more pins than this contribute no candidate target parts.
const NET_CAP: usize = 64;

/// Vertices incident to more nets than this are not considered for moves.
const VERTEX_CAP: usize = 256;

/// Sparse per-net part counts: `(part, pins-in-part)` pairs, short vectors.
struct NetCounts {
    counts: Vec<Vec<(u32, u32)>>,
}

impl NetCounts {
    fn build(h: &Hypergraph, assignment: &[u32]) -> NetCounts {
        let mut counts = Vec::with_capacity(h.n_nets());
        for net in 0..h.n_nets() {
            let mut c: Vec<(u32, u32)> = Vec::new();
            for &pin in h.pins(net) {
                let p = assignment[pin as usize];
                match c.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, n)) => *n += 1,
                    None => c.push((p, 1)),
                }
            }
            counts.push(c);
        }
        NetCounts { counts }
    }

    #[cfg(test)]
    fn count(&self, net: usize, part: u32) -> u32 {
        self.counts[net]
            .iter()
            .find(|(q, _)| *q == part)
            .map(|&(_, n)| n)
            .unwrap_or(0)
    }

    #[inline]
    fn move_pin(&mut self, net: usize, from: u32, to: u32) {
        let c = &mut self.counts[net];
        if let Some(pos) = c.iter().position(|(q, _)| *q == from) {
            c[pos].1 -= 1;
            if c[pos].1 == 0 {
                c.swap_remove(pos);
            }
        }
        match c.iter_mut().find(|(q, _)| *q == to) {
            Some((_, n)) => *n += 1,
            None => c.push((to, 1)),
        }
    }
}

/// Greedy k-way refinement: `passes` sweeps over the vertices, moving each
/// to its best-gain feasible part. Returns the total connectivity−1
/// improvement. The partition is modified in place and never worsened.
pub fn refine(h: &Hypergraph, part: &mut Partition, epsilon: f64, passes: usize) -> u64 {
    let n = h.n_vertices();
    let p = part.p();
    if p < 2 || n == 0 {
        return 0;
    }
    let mut assignment: Vec<u32> = part.assignment().to_vec();
    let mut counts = NetCounts::build(h, &assignment);

    let weights = h.vertex_weights();
    let total: u64 = weights.iter().sum();
    let cap = ((total as f64 / p as f64) * (1.0 + epsilon)).ceil() as u64;
    let mut part_weight = vec![0u64; p];
    for v in 0..n {
        part_weight[assignment[v] as usize] += weights[v];
    }

    let mut total_gain = 0u64;
    // Scratch: candidate target parts for the current vertex, and the cost
    // of its nets touching each part.
    let mut candidates: Vec<u32> = Vec::new();
    let mut connected = vec![0i64; p];
    for _pass in 0..passes {
        let mut pass_gain = 0u64;
        for v in 0..n {
            let nets = h.nets_of(v);
            if nets.is_empty() || nets.len() > VERTEX_CAP {
                continue;
            }
            let from = assignment[v];
            // Candidate parts: those sharing a (small) net with v.
            candidates.clear();
            for &net in nets {
                if h.pins(net as usize).len() > NET_CAP {
                    continue;
                }
                for &(q, _) in &counts.counts[net as usize] {
                    if q != from && !candidates.contains(&q) {
                        candidates.push(q);
                    }
                }
            }
            if candidates.is_empty() {
                continue;
            }
            // One sweep of v's nets gives the gain of leaving `from` (nets
            // where v is the last pin there) and, per part, the cost of v's
            // nets already touching it; the rest would become cut there.
            let mut leave = 0i64;
            let mut all = 0i64;
            for &net in nets {
                let cost = h.net_cost(net as usize) as i64;
                all += cost;
                for &(q, c) in &counts.counts[net as usize] {
                    if q == from && c == 1 {
                        leave += cost;
                    }
                    connected[q as usize] += cost;
                }
            }
            let mut best: Option<(i64, u32)> = None;
            for &to in &candidates {
                if part_weight[to as usize] + weights[v] > cap {
                    continue;
                }
                let gain = leave - (all - connected[to as usize]);
                if gain > 0 && best.is_none_or(|(bg, _)| gain > bg) {
                    best = Some((gain, to));
                }
            }
            for &net in nets {
                for &(q, _) in &counts.counts[net as usize] {
                    connected[q as usize] = 0;
                }
            }
            if let Some((gain, to)) = best {
                for &net in nets {
                    counts.move_pin(net as usize, from, to);
                }
                part_weight[from as usize] -= weights[v];
                part_weight[to as usize] += weights[v];
                assignment[v] = to;
                pass_gain += gain as u64;
            }
        }
        total_gain += pass_gain;
        if pass_gain == 0 {
            break;
        }
    }
    *part = Partition::new(assignment, p);
    total_gain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{hmultilevel, random};
    use pargcn_graph::gen::{community, social};

    fn model(g: &pargcn_graph::Graph) -> Hypergraph {
        Hypergraph::column_net_model(&g.normalized_adjacency())
    }

    #[test]
    fn never_worsens_and_reports_true_gain() {
        let g = community::copurchase(1200, 6.0, false, 1);
        let h = model(&g);
        let mut part = random::partition(h.n_vertices(), 8, 2);
        let before = h.connectivity_cut(&part);
        let gain = refine(&h, &mut part, 0.10, 3);
        let after = h.connectivity_cut(&part);
        assert_eq!(
            before - after,
            gain,
            "reported gain must equal actual cut reduction"
        );
        assert!(after <= before);
        assert!(gain > 0, "random partitions leave plenty of k-way gains");
    }

    #[test]
    fn improves_recursive_bisection_output() {
        let g = social::generate(2500, 10.0, false, 3);
        let h = model(&g);
        let mut part = hmultilevel::partition(&h, 16, 0.05, 1);
        let before = h.connectivity_cut(&part);
        let gain = refine(&h, &mut part, 0.10, 2);
        assert_eq!(before - gain, h.connectivity_cut(&part));
    }

    #[test]
    fn respects_balance_cap() {
        let g = community::copurchase(900, 6.0, false, 5);
        let h = model(&g);
        let mut part = hmultilevel::partition(&h, 6, 0.05, 3);
        refine(&h, &mut part, 0.10, 3);
        assert!(
            part.imbalance(h.vertex_weights()) < 0.45,
            "imbalance {} after refinement",
            part.imbalance(h.vertex_weights())
        );
        assert!(part.all_parts_nonempty());
    }

    #[test]
    fn noop_on_single_part() {
        let g = community::copurchase(100, 5.0, false, 7);
        let h = model(&g);
        let mut part = Partition::trivial(100);
        assert_eq!(refine(&h, &mut part, 0.1, 2), 0);
    }

    #[test]
    fn netcounts_track_moves() {
        let h = Hypergraph::new(vec![1; 4], vec![vec![0, 1, 2], vec![2, 3]], vec![1, 1]);
        let assignment = vec![0u32, 0, 1, 1];
        let mut c = NetCounts::build(&h, &assignment);
        assert_eq!(c.count(0, 0), 2);
        assert_eq!(c.count(0, 1), 1);
        c.move_pin(0, 0, 1);
        assert_eq!(c.count(0, 0), 1);
        assert_eq!(c.count(0, 1), 2);
        c.move_pin(1, 1, 0);
        assert_eq!(c.count(1, 1), 1);
        assert_eq!(c.count(1, 0), 1);
    }
}
