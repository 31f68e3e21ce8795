//! The [`Partition`] type: a p-way assignment of vertices (equivalently,
//! matrix rows) to processors, with the balance bookkeeping of §3.2.

/// A p-way partition `Π = {V₁, …, V_p}` stored as a per-vertex part id.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    assignment: Vec<u32>,
    p: usize,
}

impl Partition {
    /// Wraps an assignment vector.
    ///
    /// # Panics
    /// Panics if any part id is `>= p`.
    pub fn new(assignment: Vec<u32>, p: usize) -> Self {
        assert!(p >= 1, "need at least one part");
        assert!(
            assignment.iter().all(|&a| (a as usize) < p),
            "part id out of range"
        );
        Self { assignment, p }
    }

    /// The trivial 1-way partition (serial execution).
    pub fn trivial(n: usize) -> Self {
        Self {
            assignment: vec![0; n],
            p: 1,
        }
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    #[inline]
    pub fn p(&self) -> usize {
        self.p
    }

    /// Part id of vertex `v`.
    #[inline]
    pub fn part_of(&self, v: usize) -> u32 {
        self.assignment[v]
    }

    #[inline]
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// Vertex lists per part, each ascending.
    pub fn members(&self) -> Vec<Vec<u32>> {
        let mut parts = vec![Vec::new(); self.p];
        for (v, &a) in self.assignment.iter().enumerate() {
            parts[a as usize].push(v as u32);
        }
        parts
    }

    /// Sum of `weights` per part. `W(Vₘ)` of §3.2.
    fn part_weights(&self, weights: &[u64]) -> Vec<u64> {
        assert_eq!(weights.len(), self.n(), "weights length mismatch");
        let mut w = vec![0u64; self.p];
        for (v, &a) in self.assignment.iter().enumerate() {
            w[a as usize] += weights[v];
        }
        w
    }

    /// Imbalance ratio `max W(Vₘ) / W_avg − 1` (so `0.0` is perfect balance).
    pub fn imbalance(&self, weights: &[u64]) -> f64 {
        let w = self.part_weights(weights);
        let total: u64 = w.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let avg = total as f64 / self.p as f64;
        let max = *w.iter().max().unwrap() as f64;
        max / avg - 1.0
    }

    /// True when every part is nonempty (required by the §3.2 definition).
    pub fn all_parts_nonempty(&self) -> bool {
        let mut seen = vec![false; self.p];
        for &a in &self.assignment {
            seen[a as usize] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_weights() {
        let part = Partition::new(vec![0, 1, 0, 1, 1], 2);
        assert_eq!(part.members(), vec![vec![0, 2], vec![1, 3, 4]]);
        assert_eq!(part.part_weights(&[1, 2, 3, 4, 5]), vec![4, 11]);
    }

    #[test]
    fn imbalance_of_perfect_split_is_zero() {
        let part = Partition::new(vec![0, 0, 1, 1], 2);
        assert_eq!(part.imbalance(&[1, 1, 1, 1]), 0.0);
    }

    #[test]
    fn imbalance_detects_skew() {
        let part = Partition::new(vec![0, 0, 0, 1], 2);
        // Weights 3 vs 1, avg 2 → imbalance 0.5.
        assert!((part.imbalance(&[1, 1, 1, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn nonempty_check() {
        assert!(Partition::new(vec![0, 1], 2).all_parts_nonempty());
        assert!(!Partition::new(vec![0, 0], 2).all_parts_nonempty());
    }

    #[test]
    #[should_panic(expected = "part id out of range")]
    fn rejects_out_of_range() {
        Partition::new(vec![0, 2], 2);
    }
}
