//! Rank-local construction of one mini-batch's plans (DESIGN.md §11).
//!
//! In the paper every processor derives its own send and receive sets
//! from the rows it owns (§4.1, Eqs. 8–9). [`RankPlanBuilder`] does that
//! for a batch `B` of global vertices on the calling rank `m`, inside a
//! session step:
//!
//! 1. It maps the batch (global vertex → batch position, through a
//!    checked vertex map) and reads the global graph rows of the batch
//!    vertices it owns only. Its rows of the induced subgraph get the self
//!    loop merged in column order, and the `f64` row degree is summed in
//!    that order, exactly as `norm::normalize_adjacency` does. Each entry
//!    keeps the partial value `inv_i·v`, where `inv_i` is the row's
//!    inverse square-root degree.
//! 2. Its receive sets (Eq. 9) are the columns of its rows, split by
//!    owner. They are local knowledge.
//! 3. Set-up round 1 sends every peer `o` one message: the entries of
//!    m's rows that fall in o's columns, as `(j, i, inv_i·v)` triples for
//!    a directed graph, or just the distinct columns `j` for an undirected
//!    one. From them `o` learns its forward send set to `m` (Eq. 8) and,
//!    for a directed graph, its block of `Âᵀ` from `m` and the backward
//!    receive set; `o` finishes each `Âᵀ` value as `(inv_i·v)·inv_j`.
//! 4. Round 2 returns `inv_j` for the columns each peer asked for, and
//!    `m` finishes its forward blocks with the same product.
//!
//! Every value is the f32 product `(inv_i·v)·inv_j` the central build
//! computes, in the same order, so the plans are `==` to
//! [`PlanBuilder`](super::PlanBuilder)'s and `Â` matches bit for bit
//! (tested for directed and undirected graphs, sorted and unsorted
//! batches). Each round sends one message to every peer, empty ones
//! included, so no rank waits on a message that never comes. The traffic
//! is set-up traffic ([`RankCtx::setup_send`]): it never enters the
//! training counters.
//!
//! Nothing here is batch-specific beyond taking a vertex list. Like the
//! induced subgraph, the builder reads the graph's pattern (every edge
//! weighs 1), so for an unweighted graph the batch `0..n` yields the
//! full-batch plans, and a full-batch trainer can adopt it as is.

use super::{RankPlan, RemoteBlock, SendSet};
use crate::dist::TAG_SETUP;
use pargcn_comm::RankCtx;
use pargcn_graph::Graph;
use pargcn_matrix::Csr;
use pargcn_partition::Partition;

/// Round 1: entries (directed) or columns (undirected) per owner.
const TAG_ENTRIES: u32 = TAG_SETUP;
/// Round 2: the owners' inverse square-root degrees.
const TAG_INV: u32 = TAG_SETUP + 1;

/// A set-up message word carrying an index.
#[inline]
fn word(x: u32) -> f32 {
    f32::from_bits(x)
}

/// The index a set-up message word carries.
#[inline]
fn index(w: f32) -> usize {
    w.to_bits() as usize
}

/// The local index of batch column `j`, which peer `s` named as one of
/// rank `m`'s; `owner` spans the batch.
fn own_position(owner: &[u32], pos: &[u32], m: usize, s: usize, j: usize) -> u32 {
    assert!(
        j < owner.len() && owner[j] as usize == m,
        "rank {m}: rank {s} sent column {j}, which rank {m} does not own"
    );
    pos[j]
}

/// CSR arrays of one block, filled row by row.
struct BlockBuf {
    n_cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
}

impl BlockBuf {
    fn new(n_rows: usize, n_cols: usize) -> BlockBuf {
        let mut indptr = Vec::with_capacity(n_rows + 1);
        indptr.push(0);
        BlockBuf {
            n_cols,
            indptr,
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Local indices of the rows holding at least one entry, ascending.
    fn nonempty_rows(&self) -> Vec<u32> {
        (0..self.indptr.len() - 1)
            .filter(|&r| self.indptr[r + 1] > self.indptr[r])
            .map(|r| r as u32)
            .collect()
    }

    fn into_csr(self) -> Csr {
        Csr::from_parts(
            self.indptr.len() - 1,
            self.n_cols,
            self.indptr,
            self.indices,
            self.values,
        )
    }
}

/// One rank's reusable scratch for building its own share of each
/// batch's plans (see the module docs). Keep one per rank and reuse it
/// across batches: every map is grow-once, and every entry a build reads
/// is written earlier in the same build, so plans do not depend on the
/// scratch's history.
#[derive(Debug, Default)]
pub struct RankPlanBuilder {
    /// Global vertex → batch position, live iff the batch has `v` there
    /// (`batch[at[v]] == v`), so stale entries need no clearing.
    at: Vec<u32>,
    /// Vertices in the current batch.
    k: usize,
    /// Batch position → owning rank (all positions, every build).
    owner: Vec<u32>,
    /// Batch position → column in its block: the local index for this
    /// rank's positions, the receive position for the remote ones it reads.
    pos: Vec<u32>,
    /// Batch position marks deduping the remote columns; cleared after
    /// each use.
    seen: Vec<bool>,
    /// This rank's rows of `Â` in batch columns, with partial values
    /// `inv_i·v`.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f32>,
    /// Inverse square-root degree of each own row.
    inv: Vec<f32>,
    /// One row's batch columns before the self loop is merged in; then
    /// the distinct remote columns.
    row: Vec<u32>,
    /// `recv[o]`: the batch columns this rank reads from rank `o`, ascending.
    recv: Vec<Vec<u32>>,
    /// Per own row: entries a round-1 message put there, then the scatter
    /// cursors of the `Âᵀ` block built from it.
    count: Vec<usize>,
}

impl RankPlanBuilder {
    pub fn new() -> RankPlanBuilder {
        RankPlanBuilder::default()
    }

    /// Grow-once sizing for an `n`-vertex graph, a `k`-vertex batch and
    /// `p` ranks.
    fn begin(&mut self, n: usize, k: usize, p: usize) {
        if self.at.len() < n {
            self.at.resize(n, 0);
        }
        if self.owner.len() < k {
            self.owner.resize(k, 0);
            self.pos.resize(k, 0);
            self.seen.resize(k, false);
        }
        if self.recv.len() < p {
            self.recv.resize_with(p, Vec::new);
        }
        for list in &mut self.recv {
            list.clear();
        }
        self.k = k;
    }

    /// Builds the calling rank's share of the plans for `Â = norm(A[B, B])`
    /// under `part` restricted to `batch`: the forward plan, and for a
    /// directed graph the plan of `Âᵀ` (undirected graphs reuse the
    /// forward plan). Rows and columns are batch positions, as in
    /// [`PlanBuilder::build`](super::PlanBuilder::build) on the induced
    /// subgraph and [`crate::minibatch::restrict_partition`].
    ///
    /// Every rank of the session must call it for the same batch: it runs
    /// the two set-up rounds. `batch` must name distinct vertices of
    /// `graph` (the engine checks that before publishing a batch).
    pub fn build(
        &mut self,
        ctx: &mut RankCtx,
        graph: &Graph,
        part: &Partition,
        batch: &[u32],
    ) -> (RankPlan, Option<RankPlan>) {
        let (m, p) = (ctx.rank(), ctx.p());
        assert_eq!(
            part.p(),
            p,
            "partition has {} parts for {p} ranks",
            part.p()
        );
        assert_eq!(part.n(), graph.n(), "partition size mismatch");
        self.begin(graph.n(), batch.len(), p);
        let assignment = part.assignment();
        let mut local_rows = Vec::new();
        for (i, &v) in batch.iter().enumerate() {
            let o = assignment[v as usize];
            self.at[v as usize] = i as u32;
            self.owner[i] = o;
            if o as usize == m {
                self.pos[i] = local_rows.len() as u32;
                local_rows.push(i as u32);
            }
        }
        self.own_rows(graph, batch, &local_rows);
        self.receive_sets(m);

        // Forward blocks in one sweep of the own rows: block 0 is the
        // diagonal block, finished now (its `inv_j` are local); the rest
        // follow the receive set in peer order and wait for round 2.
        let n_m = local_rows.len();
        let peers: Vec<usize> = (0..p)
            .filter(|&o| o != m && !self.recv[o].is_empty())
            .collect();
        let mut block_of = vec![usize::MAX; p];
        block_of[m] = 0;
        let mut blocks = vec![BlockBuf::new(n_m, n_m)];
        for &o in &peers {
            block_of[o] = blocks.len();
            blocks.push(BlockBuf::new(n_m, self.recv[o].len()));
        }
        for r in 0..n_m {
            for e in self.row_ptr[r]..self.row_ptr[r + 1] {
                let j = self.cols[e] as usize;
                let b = block_of[self.owner[j] as usize];
                let c = self.pos[j];
                let v = if b == 0 {
                    self.vals[e] * self.inv[c as usize]
                } else {
                    self.vals[e]
                };
                blocks[b].indices.push(c);
                blocks[b].values.push(v);
            }
            for block in &mut blocks {
                block.indptr.push(block.indices.len());
            }
        }

        // Round 1: one message to every peer.
        let directed = graph.directed();
        ctx.reserve_queues(2 * p);
        for o in (0..p).filter(|&o| o != m) {
            let b = block_of[o];
            let len = match (b, directed) {
                (usize::MAX, _) => 0,
                (_, true) => 3 * blocks[b].indices.len(),
                (_, false) => self.recv[o].len(),
            };
            // Round 2's reply to `o` is sized once round 1 arrives, so the
            // pool follows the real traffic.
            ctx.ensure_pool(o, 1, len);
            let mut payload = ctx.acquire(o, len);
            if b != usize::MAX {
                let recv = &self.recv[o];
                if directed {
                    let block = &blocks[b];
                    for (r, &i) in local_rows.iter().enumerate() {
                        for e in block.indptr[r]..block.indptr[r + 1] {
                            let j = recv[block.indices[e] as usize];
                            payload.extend_from_slice(&[word(j), word(i), block.values[e]]);
                        }
                    }
                } else {
                    payload.extend(recv.iter().map(|&j| word(j)));
                }
            }
            ctx.setup_send(o, TAG_ENTRIES, payload);
        }

        // Round 1 replies, in peer order: forward send sets, and for a
        // directed graph the `Âᵀ` blocks from each peer.
        let mut send = Vec::new();
        let mut remote_b = Vec::new();
        for s in (0..p).filter(|&s| s != m) {
            let payload = ctx.setup_recv(s, TAG_ENTRIES);
            let local_indices = if directed {
                self.transpose_block(m, s, &payload, n_m, &mut remote_b)
            } else {
                let owner = &self.owner[..self.k];
                payload
                    .iter()
                    .map(|&w| own_position(owner, &self.pos, m, s, index(w)))
                    .collect()
            };
            ctx.release(s, payload);
            // Round 2: `inv_j` for exactly the columns `s` reads from here.
            // The round-1 payload to `s` may still be in flight, so this
            // needs a resident buffer of its own.
            ctx.ensure_pool(s, 1, local_indices.len());
            let mut reply = ctx.acquire(s, local_indices.len());
            reply.extend(local_indices.iter().map(|&r| self.inv[r as usize]));
            ctx.setup_send(s, TAG_INV, reply);
            if !local_indices.is_empty() {
                send.push(SendSet {
                    peer: s,
                    local_indices,
                });
            }
        }

        // Round 2 replies finish the forward remote blocks.
        for o in (0..p).filter(|&o| o != m) {
            let inv_j = ctx.setup_recv(o, TAG_INV);
            let b = block_of[o];
            let want = if b == usize::MAX {
                0
            } else {
                self.recv[o].len()
            };
            assert_eq!(
                inv_j.len(),
                want,
                "rank {m}: rank {o} returned {} degrees for the {want} rows rank {m} reads from it",
                inv_j.len()
            );
            if b != usize::MAX {
                let block = &mut blocks[b];
                for (v, &c) in block.values.iter_mut().zip(&block.indices) {
                    *v *= inv_j[c as usize];
                }
            }
            ctx.release(o, inv_j);
        }

        let mut blocks = blocks.into_iter();
        let a_own = blocks.next().expect("the diagonal block").into_csr();
        let mut send_b = Vec::new();
        let mut a_remote = Vec::with_capacity(peers.len());
        for (&peer, block) in peers.iter().zip(blocks) {
            if directed {
                // Backward send set: the own rows with an entry in the
                // peer's columns are the `Âᵀ` rows it reads from here.
                send_b.push(SendSet {
                    peer,
                    local_indices: block.nonempty_rows(),
                });
            }
            a_remote.push(RemoteBlock {
                peer,
                rows: self.recv[peer].clone(),
                a: block.into_csr(),
            });
        }
        let backward = directed.then(|| RankPlan {
            rank: m,
            local_rows: local_rows.clone(),
            a_own: a_own.transpose(),
            a_remote: remote_b,
            send: send_b,
        });
        let forward = RankPlan {
            rank: m,
            local_rows,
            a_own,
            a_remote,
            send,
        };
        (forward, backward)
    }

    /// Rows of `Â` for this rank's batch vertices: the induced subgraph's
    /// rows with the self loop merged in column order, the row degree,
    /// and the partial values `inv_i·v` — `normalize_adjacency`'s sums
    /// and products, in its order.
    fn own_rows(&mut self, graph: &Graph, batch: &[u32], local_rows: &[u32]) {
        self.row_ptr.clear();
        self.row_ptr.push(0);
        self.cols.clear();
        self.vals.clear();
        self.inv.clear();
        for &i in local_rows {
            self.row.clear();
            for &nbr in graph.neighbors(batch[i as usize] as usize) {
                let at = self.at[nbr as usize];
                if batch.get(at as usize) == Some(&nbr) {
                    self.row.push(at);
                }
            }
            // Columns ascend whenever the batch does; only a row of an
            // unsorted batch can come out of order.
            if self.row.windows(2).any(|w| w[0] > w[1]) {
                self.row.sort_unstable();
            }
            let start = self.cols.len();
            let mut deg = 0.0f64;
            let mut diag_done = false;
            for &c in &self.row {
                let mut v = 1.0f32;
                if !diag_done && c >= i {
                    diag_done = true;
                    if c == i {
                        v += 1.0;
                    } else {
                        self.cols.push(i);
                        self.vals.push(1.0);
                        deg += 1.0;
                    }
                }
                self.cols.push(c);
                self.vals.push(v);
                deg += v as f64;
            }
            if !diag_done {
                self.cols.push(i);
                self.vals.push(1.0);
                deg += 1.0;
            }
            // `deg ≥ 1`: every row holds its self loop.
            let inv = (1.0 / deg.sqrt()) as f32;
            for v in &mut self.vals[start..] {
                *v *= inv;
            }
            self.inv.push(inv);
            self.row_ptr.push(self.cols.len());
        }
    }

    /// Receive sets (Eq. 9): the distinct remote columns of the own rows,
    /// ascending per owner, and their receive positions in `pos`.
    fn receive_sets(&mut self, m: usize) {
        let mut remote = std::mem::take(&mut self.row);
        remote.clear();
        for &j in &self.cols {
            let j = j as usize;
            if self.owner[j] as usize != m && !self.seen[j] {
                self.seen[j] = true;
                remote.push(j as u32);
            }
        }
        remote.sort_unstable();
        for &j in &remote {
            self.seen[j as usize] = false;
            let list = &mut self.recv[self.owner[j as usize] as usize];
            self.pos[j as usize] = list.len() as u32;
            list.push(j);
        }
        self.row = remote;
    }

    /// From peer `s`'s round-1 triples `(j, i, inv_i·v)` — sorted by `i`,
    /// then `j` — builds this rank's `Âᵀ` block from `s` into `remote_b`
    /// (rows: the distinct `i`, ascending; values finished with the own
    /// `inv_j`) and returns the forward send set to `s`: the own rows the
    /// triples name, ascending.
    fn transpose_block(
        &mut self,
        m: usize,
        s: usize,
        payload: &[f32],
        n_m: usize,
        remote_b: &mut Vec<RemoteBlock>,
    ) -> Vec<u32> {
        assert!(
            payload.len().is_multiple_of(3),
            "rank {m}: rank {s}'s set-up message holds {} words, not triples",
            payload.len()
        );
        let (owner, pos, inv) = (&self.owner[..self.k], &self.pos, &self.inv);
        let count = &mut self.count;
        count.clear();
        count.resize(n_m, 0);
        for t in payload.chunks_exact(3) {
            count[own_position(owner, pos, m, s, index(t[0])) as usize] += 1;
        }
        let send: Vec<u32> = (0..n_m)
            .filter(|&r| count[r] > 0)
            .map(|r| r as u32)
            .collect();
        if payload.is_empty() {
            return send;
        }
        // Counting sort on the own row: exclusive starts, then a scatter
        // in message order, which keeps each row's columns ascending.
        let mut indptr = Vec::with_capacity(n_m + 1);
        indptr.push(0);
        let mut start = 0;
        for c in count.iter_mut() {
            start += *c;
            indptr.push(start);
            *c = start - *c;
        }
        let nnz = payload.len() / 3;
        let mut indices = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        let mut rows = Vec::new();
        for t in payload.chunks_exact(3) {
            let i = t[1].to_bits();
            if rows.last() != Some(&i) {
                rows.push(i);
            }
            let r = pos[index(t[0])] as usize;
            let slot = count[r];
            count[r] += 1;
            indices[slot] = (rows.len() - 1) as u32;
            values[slot] = t[2] * inv[r];
        }
        remote_b.push(RemoteBlock {
            peer: s,
            a: Csr::from_parts(n_m, rows.len(), indptr, indices, values),
            rows,
        });
        send
    }
}
