//! Property tests for the multilevel hypergraph engine's building blocks:
//! exact-gain FM refinement, CSR-built coarse levels, and the k-way
//! balance bound of recursive bisection.

use pargcn_graph::gen::{community, grid};
use pargcn_partition::hmultilevel::{self, coarsen, fm};
use pargcn_partition::{Hypergraph, Partition};
use pargcn_util::qc;
use pargcn_util::rng::{Rng, SeedableRng, StdRng};
use std::collections::HashMap;

/// A random weighted hypergraph mixing the shapes the engine special-cases:
/// hub nets of more than 32 pins, duplicate nets, single-pin nets and
/// zero-weight vertices.
fn random_hypergraph(rng: &mut StdRng) -> Hypergraph {
    let n = rng.gen_range(2..80usize);
    let weights: Vec<u64> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.15) {
                0
            } else {
                rng.gen_range(1..6u64)
            }
        })
        .collect();
    let mut nets: Vec<Vec<u32>> = Vec::new();
    let mut costs = Vec::new();
    for _ in 0..rng.gen_range(1..3 * n) {
        let pins = match rng.gen_range(0..10u32) {
            0 => vec![rng.gen_range(0..n as u32)],
            1 if !nets.is_empty() => nets[rng.gen_range(0..nets.len())].clone(),
            2 => (0..n as u32).filter(|_| rng.gen_bool(0.7)).collect(),
            _ => (0..rng.gen_range(2..7usize))
                .map(|_| rng.gen_range(0..n as u32))
                .collect(),
        };
        nets.push(pins);
        costs.push(rng.gen_range(1..5u64));
    }
    Hypergraph::new(weights, nets, costs)
}

fn cut_of(h: &Hypergraph, side: &[u8]) -> u64 {
    h.connectivity_cut(&Partition::new(side.iter().map(|&s| s as u32).collect(), 2))
}

/// FM reports its exact cut change, never raises the cut from a feasible
/// start, and keeps both caps. Every popped queue key is checked against a
/// fresh gain by the debug assertion inside `fm::refine`.
#[test]
fn fm_gain_is_exact_and_balance_holds_on_random_hypergraphs() {
    qc::check(|rng| {
        let h = random_hypergraph(rng);
        let n = h.n_vertices();
        let frac0 = [0.5, 1.0 / 3.0, 0.25][rng.gen_range(0..3usize)];
        let epsilon = [0.0, 0.05, 0.2][rng.gen_range(0..3usize)];
        let mut side: Vec<u8> = (0..n).map(|_| rng.gen_range(0..2u8)).collect();

        let total: u64 = h.vertex_weights().iter().sum();
        let caps = [
            (total as f64 * frac0 * (1.0 + epsilon)).ceil() as u64,
            (total as f64 * (1.0 - frac0) * (1.0 + epsilon)).ceil() as u64,
        ];
        let side_weights = |side: &[u8]| {
            let mut w = [0u64; 2];
            for (v, &s) in side.iter().enumerate() {
                w[s as usize] += h.vertex_weights()[v];
            }
            w
        };
        let within = |w: [u64; 2]| w[0] <= caps[0] && w[1] <= caps[1];
        let feasible = within(side_weights(&side));

        let before = cut_of(&h, &side);
        let gain = fm::refine(&h, &mut side, frac0, epsilon, rng.gen_range(1..5usize));
        let after = cut_of(&h, &side);
        assert_eq!(gain, before as i64 - after as i64, "reported gain");
        if feasible {
            assert!(after <= before, "cut rose from {before} to {after}");
            assert!(within(side_weights(&side)), "caps {caps:?} broken");
        }
    });
}

/// The sorted-CSR coarse hypergraph equals the reference construction it
/// replaced: every fine net mapped through the vertex map, deduplicated,
/// single-pin nets dropped and identical nets merged in a hash map with
/// summed cost (compared as a multiset of (pins, cost)).
#[test]
fn coarse_nets_match_hashmap_reference() {
    qc::check(|rng| {
        let h = random_hypergraph(rng);
        let (coarse, map) = coarsen::coarsen_once(&h, &mut StdRng::seed_from_u64(rng.gen()));

        let mut reference: HashMap<Vec<u32>, u64> = HashMap::new();
        for net in 0..h.n_nets() {
            let mut pins: Vec<u32> = h.pins(net).iter().map(|&p| map[p as usize]).collect();
            pins.sort_unstable();
            pins.dedup();
            if pins.len() >= 2 {
                *reference.entry(pins).or_insert(0) += h.net_cost(net);
            }
        }
        let mut expected: Vec<(Vec<u32>, u64)> = reference.into_iter().collect();
        expected.sort_unstable();
        let mut got: Vec<(Vec<u32>, u64)> = (0..coarse.n_nets())
            .map(|net| (coarse.pins(net).to_vec(), coarse.net_cost(net)))
            .collect();
        got.sort_unstable();
        assert_eq!(got, expected);

        let mut weights = vec![0u64; coarse.n_vertices()];
        for (v, &c) in map.iter().enumerate() {
            weights[c as usize] += h.vertex_weights()[v];
        }
        assert_eq!(coarse.vertex_weights(), &weights[..]);
        for v in 0..coarse.n_vertices() {
            for &net in coarse.nets_of(v) {
                assert!(coarse.pins(net as usize).contains(&(v as u32)));
            }
        }
    });
}

/// At p = 16 the k-way imbalance stays within the documented bound
/// (1+ε)^⌈log₂p⌉ − 1, plus one weight unit per level for the caps'
/// rounding, on both the HP column-net model and GP's 2-pin graph model.
#[test]
fn p16_imbalance_within_documented_bound() {
    let epsilon: f64 = 0.01;
    let p = 16;
    let levels = (p as f64).log2().ceil() as i32;
    for (name, g) in [
        ("road", grid::road_network(6000, 2)),
        ("copurchase", community::copurchase(6000, 6.0, true, 3)),
        ("coauthor", community::coauthor(3000, 16.0, 4)),
    ] {
        let a = g.normalized_adjacency();
        for (model, h) in [
            ("HP", Hypergraph::column_net_model(&a)),
            ("GP", Hypergraph::graph_model(&a)),
        ] {
            let total: u64 = h.vertex_weights().iter().sum();
            let rounding = levels as f64 * p as f64 / total as f64;
            let bound = (1.0 + epsilon).powi(levels) * (1.0 + rounding) - 1.0;
            for seed in 1..=3 {
                let part = hmultilevel::partition(&h, p, epsilon, seed);
                let imb = part.imbalance(h.vertex_weights());
                assert!(
                    imb <= bound,
                    "{model} {name} seed {seed}: imbalance {imb:.4} over the bound {bound:.4}"
                );
            }
        }
    }
}
