//! Heavy-connectivity-matching coarsening for hypergraphs.
//!
//! Two vertices match when they share many (small, cheap-to-scan) nets; the
//! score of a candidate pair accumulates `cost(net)/(|pins(net)|−1)` over
//! shared nets, the classic PaToH heavy-connectivity heuristic. Merged
//! vertices sum weights; pins map through the merge; single-pin nets
//! disappear and identical nets merge with summed cost, so the coarse FM
//! works on an equivalent but much smaller problem. Coarse nets are built
//! straight into sorted CSR, and identical ones are found by sorting
//! pin-set fingerprints.

use crate::hypergraph::Hypergraph;
use pargcn_util::rng::SliceRandom;
use pargcn_util::rng::StdRng;

/// Nets with more pins than this are ignored during matching (scanning a
/// hub column's thousands of pins per candidate would dominate runtime and
/// such nets carry almost no matching signal).
const MATCHING_NET_CAP: usize = 64;

/// One level of heavy-connectivity matching. Returns the coarse hypergraph
/// and the fine-vertex → coarse-vertex map.
pub fn coarsen_once(h: &Hypergraph, rng: &mut StdRng) -> (Hypergraph, Vec<u32>) {
    let n = h.n_vertices();
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);

    let mut matched = vec![u32::MAX; n];
    let mut coarse_count = 0u32;
    // Agglomerative clustering (PaToH-style HCC rather than strict
    // pair-matching): a vertex may also join an *already formed* cluster.
    // Pure matching stalls on skewed graphs — once a hub's satellites pair
    // up, everything left is singletons and the hierarchy bottoms out at
    // tens of thousands of vertices, leaving FM to refine a huge flat
    // hypergraph. Cluster joins keep the reduction going; the weight cap
    // stops hub clusters from swallowing whole parts.
    let total_weight: u64 = h.vertex_weights().iter().sum();
    let cluster_cap = (total_weight / (n as u64 / 2).max(1)).max(1) * 6;
    let mut cluster_weight: Vec<u64> = Vec::with_capacity(n / 2 + 1);
    // Scratch score table over candidate *vertices*, reset via the touched
    // list.
    let mut score = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();

    for &v in &order {
        if matched[v as usize] != u32::MAX {
            continue;
        }
        let vw = h.vertex_weights()[v as usize];
        touched.clear();
        for &net in h.nets_of(v as usize) {
            let pins = h.pins(net as usize);
            if pins.len() > MATCHING_NET_CAP || pins.len() < 2 {
                continue;
            }
            let w = h.net_cost(net as usize) as f64 / (pins.len() - 1) as f64;
            for &u in pins {
                if u != v {
                    if score[u as usize] == 0.0 {
                        touched.push(u);
                    }
                    score[u as usize] += w;
                }
            }
        }
        // Best candidate whose cluster can still absorb v.
        let best = touched
            .iter()
            .copied()
            .filter(|&u| {
                let c = matched[u as usize];
                if c == u32::MAX {
                    h.vertex_weights()[u as usize] + vw <= cluster_cap
                } else {
                    cluster_weight[c as usize] + vw <= cluster_cap
                }
            })
            .max_by(|&a, &b| {
                score[a as usize]
                    .partial_cmp(&score[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        match best {
            Some(u) if matched[u as usize] != u32::MAX => {
                // Join u's existing cluster.
                let c = matched[u as usize];
                matched[v as usize] = c;
                cluster_weight[c as usize] += vw;
            }
            Some(u) => {
                // Form a new pair.
                let c = coarse_count;
                coarse_count += 1;
                matched[v as usize] = c;
                matched[u as usize] = c;
                cluster_weight.push(vw + h.vertex_weights()[u as usize]);
            }
            None => {
                let c = coarse_count;
                coarse_count += 1;
                matched[v as usize] = c;
                cluster_weight.push(vw);
            }
        }
        for &u in &touched {
            score[u as usize] = 0.0;
        }
    }

    // Coarse vertex weights.
    let nc = coarse_count as usize;
    let mut vertex_weights = vec![0u64; nc];
    for v in 0..n {
        vertex_weights[matched[v] as usize] += h.vertex_weights()[v];
    }

    // Coarse nets: map pins, dedup, drop singletons, merge identical nets.
    let mut net_ptr = vec![0usize];
    let mut net_pins: Vec<u32> = Vec::with_capacity(h.n_pins());
    let mut costs = Vec::new();
    let mut scratch = Vec::new();
    for net in 0..h.n_nets() {
        scratch.clear();
        scratch.extend(h.pins(net).iter().map(|&p| matched[p as usize]));
        scratch.sort_unstable();
        scratch.dedup();
        if scratch.len() >= 2 {
            net_pins.extend_from_slice(&scratch);
            net_ptr.push(net_pins.len());
            costs.push(h.net_cost(net));
        }
    }
    let (net_ptr, net_pins, costs) = merge_identical_nets(net_ptr, net_pins, costs);
    let coarse = Hypergraph::from_sorted_csr(vertex_weights, net_ptr, net_pins, costs);
    (coarse, matched)
}

/// Merges identical nets of a sorted-pin CSR into their first occurrence
/// with summed cost, keeping first-occurrence order. Nets are sorted by a
/// pin-set fingerprint, so only nets that share a fingerprint (in practice,
/// identical ones) have their pins compared.
fn merge_identical_nets(
    net_ptr: Vec<usize>,
    mut net_pins: Vec<u32>,
    mut costs: Vec<u64>,
) -> (Vec<usize>, Vec<u32>, Vec<u64>) {
    let pins = |net: u32| &net_pins[net_ptr[net as usize]..net_ptr[net as usize + 1]];
    let mut order: Vec<(u64, u32)> = (0..costs.len() as u32)
        .map(|net| (fingerprint(pins(net)), net))
        .collect();
    order.sort_unstable_by(|a, b| {
        a.0.cmp(&b.0)
            .then_with(|| pins(a.1).cmp(pins(b.1)))
            .then(a.1.cmp(&b.1))
    });
    // duplicate_of[net] = the first occurrence `net` merges into.
    let mut duplicate_of = vec![u32::MAX; costs.len()];
    let mut first = 0;
    for i in 1..order.len() {
        let (rep, net) = (order[first], order[i]);
        if rep.0 == net.0 && pins(rep.1) == pins(net.1) {
            duplicate_of[net.1 as usize] = rep.1;
        } else {
            first = i;
        }
    }
    for (net, &rep) in duplicate_of.iter().enumerate() {
        if rep != u32::MAX {
            costs[rep as usize] += costs[net];
        }
    }
    // Compact the survivors in place, in net order.
    let mut ptr = vec![0usize];
    let mut kept_costs = Vec::with_capacity(costs.len());
    for (net, &rep) in duplicate_of.iter().enumerate() {
        if rep == u32::MAX {
            let (start, end) = (net_ptr[net], net_ptr[net + 1]);
            let at = *ptr.last().unwrap();
            net_pins.copy_within(start..end, at);
            ptr.push(at + end - start);
            kept_costs.push(costs[net]);
        }
    }
    net_pins.truncate(*ptr.last().unwrap());
    (ptr, net_pins, kept_costs)
}

/// Order-sensitive hash of a sorted pin list (FxHash's rotate-xor-multiply).
fn fingerprint(pins: &[u32]) -> u64 {
    pins.iter().fold(pins.len() as u64, |h, &p| {
        (h.rotate_left(5) ^ p as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;
    use pargcn_util::rng::SeedableRng;

    /// Chain hypergraph: net i connects {i, i+1}.
    fn chain(n: usize) -> Hypergraph {
        let nets: Vec<Vec<u32>> = (0..n as u32 - 1).map(|i| vec![i, i + 1]).collect();
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(vec![1; n], nets, costs)
    }

    #[test]
    fn shrinks_and_preserves_weight() {
        let h = chain(100);
        let mut rng = StdRng::seed_from_u64(0);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        assert!(coarse.n_vertices() < 70);
        assert_eq!(
            coarse.vertex_weights().iter().sum::<u64>(),
            h.vertex_weights().iter().sum::<u64>()
        );
        assert!(map.iter().all(|&c| (c as usize) < coarse.n_vertices()));
    }

    #[test]
    fn internal_nets_vanish() {
        // Single net {0,1}: after matching 0 with 1, no coarse nets remain.
        let h = Hypergraph::new(vec![1, 1], vec![vec![0, 1]], vec![1]);
        let mut rng = StdRng::seed_from_u64(1);
        let (coarse, _) = coarsen_once(&h, &mut rng);
        assert_eq!(coarse.n_vertices(), 1);
        assert_eq!(coarse.n_nets(), 0);
    }

    #[test]
    fn identical_nets_merge_costs() {
        // Two identical nets over 4 vertices; prevent the pins from being
        // matched together by giving them no shared small nets... instead
        // verify directly via a hand-built matching-resistant instance:
        // vertices 0,1 share nets; 2,3 share nets; nets {0,2} twice.
        let h = Hypergraph::new(
            vec![1; 4],
            vec![vec![0, 1], vec![2, 3], vec![0, 2], vec![0, 2]],
            vec![1, 1, 3, 5],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        // If 0-1 and 2-3 matched (the heavy pairs), the two {0,2} nets
        // project to the same coarse pin pair and merge to cost 8.
        if coarse.n_vertices() == 2 && map[0] == map[1] && map[2] == map[3] {
            assert_eq!(coarse.n_nets(), 1);
            assert_eq!(coarse.net_cost(0), 8);
        }
    }

    #[test]
    fn cut_preserved_under_projection() {
        let h = chain(60);
        let mut rng = StdRng::seed_from_u64(3);
        let (coarse, map) = coarsen_once(&h, &mut rng);
        let coarse_part = Partition::new(
            (0..coarse.n_vertices()).map(|v| (v % 2) as u32).collect(),
            2,
        );
        let fine_part = Partition::new(
            (0..h.n_vertices())
                .map(|v| coarse_part.part_of(map[v] as usize))
                .collect(),
            2,
        );
        // Coarse cut equals fine cut restricted to surviving nets; vanished
        // nets were internal (uncut) so the totals agree.
        assert_eq!(
            coarse.connectivity_cut(&coarse_part),
            h.connectivity_cut(&fine_part)
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let h = chain(50);
        let a = coarsen_once(&h, &mut StdRng::seed_from_u64(4)).1;
        let b = coarsen_once(&h, &mut StdRng::seed_from_u64(4)).1;
        assert_eq!(a, b);
    }
}
