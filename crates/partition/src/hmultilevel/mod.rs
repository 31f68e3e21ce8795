//! Multilevel hypergraph partitioner minimizing the connectivity−1 metric
//! (a from-scratch stand-in for PaToH, DESIGN.md §1). It is the one engine
//! behind HP, SHP and GP, whose graph model arrives as 2-pin nets.
//!
//! Recursive bisection with net splitting: a net cut at one level is
//! restricted to each side and re-partitioned deeper, so the sum of
//! bisection cut costs over all levels equals the k-way connectivity−1 cut
//! (the standard PaToH-style decomposition). Each bisection runs
//! heavy-connectivity coarsening ([`coarsen`]), greedy growing
//! ([`initial`]), and exact-gain FM refinement ([`fm`]). Coarse levels and
//! sub-hypergraphs are built straight into sorted CSR.
//!
//! Vertices without nets (a quarter of the amazon0601/16 stand-in's) never
//! affect the cut. Each bisection leaves them out of the multilevel
//! pipeline and places them last, heaviest first, on the side further
//! below its weight target, which also spreads their rows over the parts.
//!
//! Balance: a bisection of weight `W` into `k0 : k1` parts caps side 0 at
//! `⌈W·k0/k·(1+ε)⌉` and side 1 likewise. Each bisection ends within its
//! caps whenever one of FM's move prefixes reaches them (a pass that
//! starts over a cap moves weight off first and keeps the least over-cap
//! prefix) and no netless vertex outweighs the slack. Caps compound down
//! the recursion, so the k-way imbalance is at most `(1+ε)^⌈log₂p⌉ − 1`,
//! up to the caps' rounding to whole weight units. The final [`kway`] pass
//! never fills a part past `⌈W/p·(1+ε)⌉`, which is within that bound.

pub mod coarsen;
pub mod fm;
pub mod initial;
pub mod kway;

use crate::hypergraph::Hypergraph;
use crate::Partition;
use pargcn_util::rng::SeedableRng;
use pargcn_util::rng::StdRng;

/// Ablation knobs for the multilevel pipeline (used by the `ablations`
/// bench to quantify what coarsening and FM refinement each contribute).
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Run the coarsening hierarchy (false = flat initial + FM only).
    pub coarsen: bool,
    /// FM passes at the coarsest level (0 disables refinement there).
    pub fm_passes_coarsest: usize,
    /// FM passes at each uncoarsening level.
    pub fm_passes_uncoarsen: usize,
    /// Greedy direct k-way refinement passes after recursive bisection
    /// (0 disables; see [`kway`]).
    pub kway_passes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            coarsen: true,
            fm_passes_coarsest: 8,
            fm_passes_uncoarsen: 4,
            kway_passes: 2,
        }
    }
}

/// Partitions `h` into `p` parts with per-bisection imbalance `epsilon`
/// (k-way imbalance at most `(1+ε)^⌈log₂p⌉ − 1`, see the module docs).
pub fn partition(h: &Hypergraph, p: usize, epsilon: f64, seed: u64) -> Partition {
    partition_with(h, p, epsilon, seed, Options::default())
}

/// As [`partition`] with explicit pipeline [`Options`].
pub fn partition_with(
    h: &Hypergraph,
    p: usize,
    epsilon: f64,
    seed: u64,
    opts: Options,
) -> Partition {
    assert!(p >= 1, "need at least one part");
    let n = h.n_vertices();
    assert!(p <= n, "more parts than vertices");
    let mut assignment = vec![0u32; n];
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<u32> = (0..n as u32).collect();
    let top = extract_subhypergraph(h, &all);
    recurse(&top, &all, 0, p, epsilon, opts, &mut rng, &mut assignment);
    let mut part = Partition::new(assignment, p);
    if opts.kway_passes > 0 && p > 1 {
        kway::refine(h, &mut part, epsilon, opts.kway_passes);
    }
    part
}

/// Splits `h`, whose vertex `i` is global vertex `global[i]`, into parts
/// `part_offset..part_offset + k`. Each side's sub-hypergraph is extracted
/// from `h` rather than from the input, so a level of the recursion costs
/// one sweep over the pins rather than one per part.
// The recursion state is inherently eight-wide; bundling it into a struct
// would only rename the problem.
#[allow(clippy::too_many_arguments)]
fn recurse(
    h: &Hypergraph,
    global: &[u32],
    part_offset: u32,
    k: usize,
    epsilon: f64,
    opts: Options,
    rng: &mut StdRng,
    assignment: &mut [u32],
) {
    if k == 1 {
        for &v in global {
            assignment[v as usize] = part_offset;
        }
        return;
    }
    let k0 = k / 2;
    let k1 = k - k0;
    let frac0 = k0 as f64 / k as f64;

    let side = bisect(h, frac0, epsilon, opts, rng);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (v, &s) in side.iter().enumerate() {
        if s == 0 {
            left.push(v as u32);
        } else {
            right.push(v as u32);
        }
    }
    if left.is_empty() || right.is_empty() {
        let cut = (0..side.len())
            .find(|&i| i * k >= side.len() * k0)
            .unwrap_or(side.len());
        left = (0..cut as u32).collect();
        right = (cut as u32..side.len() as u32).collect();
    }
    for (local, offset, parts) in [
        (left, part_offset, k0),
        (right, part_offset + k0 as u32, k1),
    ] {
        let sub = extract_subhypergraph(h, &local);
        let sub_global: Vec<u32> = local.iter().map(|&v| global[v as usize]).collect();
        recurse(
            &sub,
            &sub_global,
            offset,
            parts,
            epsilon,
            opts,
            rng,
            assignment,
        );
    }
}

/// One bisection, returning side labels with side-0 target weight
/// fraction `frac0`. Vertices without nets never affect the cut, so only
/// the others go through the multilevel pipeline, balanced by themselves;
/// the netless ones then even out the two sides, heaviest first, each
/// joining the side further below its target. (Letting FM spend the
/// netless weight as balance slack would save a few cut nets but pile the
/// netless rows, and their dense-layer work, onto one side.)
fn bisect(h: &Hypergraph, frac0: f64, epsilon: f64, opts: Options, rng: &mut StdRng) -> Vec<u8> {
    let (linked, mut netless): (Vec<u32>, Vec<u32>) =
        (0..h.n_vertices() as u32).partition(|&v| !h.nets_of(v as usize).is_empty());
    netless.sort_by_key(|&v| std::cmp::Reverse(h.vertex_weights()[v as usize]));
    let mut side = vec![0u8; h.n_vertices()];
    let mut weight = [0u64; 2];
    if !linked.is_empty() {
        let linked_side = if netless.is_empty() {
            bisect_multilevel(h, frac0, epsilon, opts, rng)
        } else {
            let sub = extract_subhypergraph(h, &linked);
            bisect_multilevel(&sub, frac0, epsilon, opts, rng)
        };
        for (&v, &s) in linked.iter().zip(&linked_side) {
            side[v as usize] = s;
            weight[s as usize] += h.vertex_weights()[v as usize];
        }
    }
    let total: u64 = h.vertex_weights().iter().sum();
    let target0 = total as f64 * frac0;
    let target = [target0, total as f64 - target0];
    for &v in &netless {
        let s = usize::from(target[1] - weight[1] as f64 > target[0] - weight[0] as f64);
        side[v as usize] = s as u8;
        weight[s] += h.vertex_weights()[v as usize];
    }
    side
}

/// The multilevel pipeline: coarsen, bisect the coarsest level, then
/// project and refine level by level.
fn bisect_multilevel(
    h: &Hypergraph,
    frac0: f64,
    epsilon: f64,
    opts: Options,
    rng: &mut StdRng,
) -> Vec<u8> {
    // levels[i] = (coarse hypergraph, map from the level above's vertices).
    let mut levels: Vec<(Hypergraph, Vec<u32>)> = Vec::new();
    loop {
        let current = levels.last().map_or(h, |(coarse, _)| coarse);
        if !opts.coarsen || current.n_vertices() <= 96 {
            break;
        }
        let (coarse, map) = coarsen::coarsen_once(current, rng);
        if coarse.n_vertices() as f64 > current.n_vertices() as f64 * 0.95 {
            break;
        }
        levels.push((coarse, map));
    }

    let coarsest = levels.last().map_or(h, |(coarse, _)| coarse);
    let mut side = initial::greedy_bisect(coarsest, frac0, rng);
    fm::refine(coarsest, &mut side, frac0, epsilon, opts.fm_passes_coarsest);

    while let Some((_, map)) = levels.pop() {
        let fine = levels.last().map_or(h, |(coarse, _)| coarse);
        side = map.iter().map(|&c| side[c as usize]).collect();
        fm::refine(fine, &mut side, frac0, epsilon, opts.fm_passes_uncoarsen);
    }
    side
}

/// Net-splitting sub-hypergraph extraction: pins are restricted to
/// `vertices` (strictly increasing, renumbered by position); nets left with
/// fewer than two pins can never be cut again and are dropped. Renumbering
/// keeps pin order, so the result is built straight into sorted CSR.
pub(crate) fn extract_subhypergraph(h: &Hypergraph, vertices: &[u32]) -> Hypergraph {
    debug_assert!(
        vertices.windows(2).all(|w| w[0] < w[1]),
        "vertices must be strictly increasing"
    );
    let mut map = vec![u32::MAX; h.n_vertices()];
    for (local, &v) in vertices.iter().enumerate() {
        map[v as usize] = local as u32;
    }
    let vertex_weights: Vec<u64> = vertices
        .iter()
        .map(|&v| h.vertex_weights()[v as usize])
        .collect();
    let mut net_ptr = vec![0usize];
    let mut net_pins = Vec::new();
    let mut costs = Vec::new();
    for net in 0..h.n_nets() {
        let start = net_pins.len();
        net_pins.extend(
            h.pins(net)
                .iter()
                .map(|&pin| map[pin as usize])
                .filter(|&m| m != u32::MAX),
        );
        if net_pins.len() - start >= 2 {
            net_ptr.push(net_pins.len());
            costs.push(h.net_cost(net));
        } else {
            net_pins.truncate(start);
        }
    }
    Hypergraph::from_sorted_csr(vertex_weights, net_ptr, net_pins, costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pargcn_graph::gen::{community, grid};

    fn model_of(g: &pargcn_graph::Graph) -> Hypergraph {
        Hypergraph::column_net_model(&g.normalized_adjacency())
    }

    #[test]
    fn produces_valid_balanced_partition() {
        let g = grid::road_network(900, 1);
        let h = model_of(&g);
        let part = partition(&h, 4, 0.05, 7);
        assert_eq!(part.p(), 4);
        assert!(part.all_parts_nonempty());
        assert!(
            part.imbalance(h.vertex_weights()) < 0.25,
            "imbalance {}",
            part.imbalance(h.vertex_weights())
        );
    }

    #[test]
    fn beats_random_on_structured_graphs() {
        let g = community::copurchase(2000, 8.0, false, 5);
        let h = model_of(&g);
        let part = partition(&h, 8, 0.05, 3);
        let rand_part = crate::random::partition(h.n_vertices(), 8, 3);
        let cut = h.connectivity_cut(&part);
        let rand_cut = h.connectivity_cut(&rand_part);
        assert!(
            (cut as f64) < rand_cut as f64 * 0.6,
            "multilevel cut {cut} not well below random cut {rand_cut}"
        );
    }

    #[test]
    fn net_splitting_preserves_kway_cut_decomposition() {
        // The bisection-level cut plus the two sub-problems' cuts equals the
        // 4-way connectivity cut, by the net-splitting construction.
        let g = grid::road_network(400, 2);
        let h = model_of(&g);
        let part = partition(&h, 4, 0.1, 1);
        // Merge parts {0,1} vs {2,3} to recover the top-level bisection.
        let top = Partition::new(
            part.assignment()
                .iter()
                .map(|&a| if a < 2 { 0 } else { 1 })
                .collect(),
            2,
        );
        let top_cut = h.connectivity_cut(&top);
        let four_cut = h.connectivity_cut(&part);
        assert!(
            four_cut >= top_cut,
            "k-way cut {four_cut} below top-level {top_cut}"
        );
    }

    #[test]
    fn handles_non_power_of_two() {
        let g = grid::road_network(600, 3);
        let h = model_of(&g);
        let part = partition(&h, 7, 0.1, 2);
        assert!(part.all_parts_nonempty());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = grid::road_network(300, 4);
        let h = model_of(&g);
        assert_eq!(partition(&h, 4, 0.05, 9), partition(&h, 4, 0.05, 9));
    }

    #[test]
    fn subhypergraph_drops_singleton_nets() {
        let h = Hypergraph::new(
            vec![1; 4],
            vec![vec![0, 1], vec![1, 2, 3], vec![0, 3]],
            vec![1, 1, 1],
        );
        let sub = extract_subhypergraph(&h, &[1, 2, 3]);
        // Net 0 loses pin 0 → 1 pin → dropped; net 1 keeps 3 pins; net 2
        // loses pin 0 → 1 pin → dropped.
        assert_eq!(sub.n_nets(), 1);
        assert_eq!(sub.pins(0), &[0, 1, 2]);
    }

    #[test]
    fn netless_vertices_even_out_the_sides() {
        // Two linked pairs of weight 6 each split cleanly; the netless
        // vertices (weights 4, 3, 3, 1, 1) then fill both sides to 12,
        // heaviest first.
        let h = Hypergraph::new(
            vec![3, 3, 3, 3, 1, 3, 4, 1, 3],
            vec![vec![0, 1], vec![2, 3]],
            vec![5, 5],
        );
        let mut rng = StdRng::seed_from_u64(1);
        let side = bisect(&h, 0.5, 0.05, Options::default(), &mut rng);
        assert!(side[0] == side[1] && side[2] == side[3] && side[0] != side[2]);
        let mut weight = [0u64; 2];
        for (v, &s) in side.iter().enumerate() {
            weight[s as usize] += h.vertex_weights()[v];
        }
        assert_eq!(weight, [12, 12], "{side:?}");
    }

    #[test]
    fn csr_subhypergraph_matches_pin_list_construction() {
        use pargcn_util::qc;
        use pargcn_util::rng::Rng;
        qc::check(|rng| {
            let n = rng.gen_range(1..60usize);
            let nets: Vec<Vec<u32>> = (0..rng.gen_range(0..2 * n))
                .map(|_| {
                    (0..rng.gen_range(0..8usize))
                        .map(|_| rng.gen_range(0..n as u32))
                        .collect()
                })
                .collect();
            let costs: Vec<u64> = nets.iter().map(|_| rng.gen_range(1..9u64)).collect();
            let weights: Vec<u64> = (0..n).map(|_| rng.gen_range(0..5u64)).collect();
            let h = Hypergraph::new(weights, nets, costs);
            let vertices: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.6)).collect();

            // The construction this replaced: one pin list per surviving
            // net, then `Hypergraph::new`.
            let mut local = vec![u32::MAX; n];
            for (i, &v) in vertices.iter().enumerate() {
                local[v as usize] = i as u32;
            }
            let (mut ref_nets, mut ref_costs) = (Vec::new(), Vec::new());
            for net in 0..h.n_nets() {
                let pins: Vec<u32> = h
                    .pins(net)
                    .iter()
                    .map(|&p| local[p as usize])
                    .filter(|&l| l != u32::MAX)
                    .collect();
                if pins.len() >= 2 {
                    ref_nets.push(pins);
                    ref_costs.push(h.net_cost(net));
                }
            }
            let ref_weights = vertices
                .iter()
                .map(|&v| h.vertex_weights()[v as usize])
                .collect();
            let expected = Hypergraph::new(ref_weights, ref_nets, ref_costs);

            let sub = extract_subhypergraph(&h, &vertices);
            assert_eq!(sub.vertex_weights(), expected.vertex_weights());
            assert_eq!(sub.n_nets(), expected.n_nets());
            for net in 0..sub.n_nets() {
                assert_eq!(sub.pins(net), expected.pins(net));
                assert_eq!(sub.net_cost(net), expected.net_cost(net));
            }
            for v in 0..sub.n_vertices() {
                assert_eq!(sub.nets_of(v), expected.nets_of(v));
            }
        });
    }
}
