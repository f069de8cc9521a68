//! Xpander: deterministic-feeling expander data centers built from random
//! k-lifts of the complete graph K_{d+1} (Valadarsky et al., CoNEXT 2016).
//!
//! A k-lift replaces each vertex of K_{d+1} with a *meta-node* of `k`
//! switches and each edge with a perfect matching between the two
//! meta-nodes. The result is d-regular with `(d+1)·k` switches, and with
//! high probability a near-Ramanujan expander; the builder samples a few
//! matchings per seed and keeps the lift with the best spectral gap.

use crate::graph::{setup_workers, split_run, LinkId, NodeId, NodeKind, Topology};
use dcn_rng::{Rng, SliceRandom};

/// Configuration of an Xpander network.
#[derive(Clone, Copy, Debug)]
pub struct Xpander {
    /// Network degree `d` of every switch (K_{d+1} base graph).
    pub net_degree: u32,
    /// Lift order `k`: switches per meta-node.
    pub lift: u32,
    /// Servers attached to each switch.
    pub servers_per_switch: u32,
    /// Seed; the builder derives candidate seeds from it.
    pub seed: u64,
    /// Candidate lifts sampled; the one with smallest second adjacency
    /// eigenvalue wins. 1 disables the spectral search.
    pub candidates: u32,
}

impl Xpander {
    pub fn new(net_degree: u32, lift: u32, servers_per_switch: u32, seed: u64) -> Self {
        assert!(net_degree >= 2 && lift >= 1);
        Xpander {
            net_degree,
            lift,
            servers_per_switch,
            seed,
            candidates: 4,
        }
    }

    /// Chooses the lift order so the network has exactly `switches`
    /// switches; `switches` must be a multiple of `net_degree + 1`.
    pub fn for_switches(
        net_degree: u32,
        switches: u32,
        servers_per_switch: u32,
        seed: u64,
    ) -> Self {
        let meta = net_degree + 1;
        assert!(
            switches.is_multiple_of(meta),
            "switch count {switches} not a multiple of d+1 = {meta}"
        );
        Self::new(net_degree, switches / meta, servers_per_switch, seed)
    }

    /// The §6.4 configuration: 216 switches × 16 ports (11 network + 5
    /// server), 1080 servers — an Xpander at 33% lower cost than the
    /// k=16 full-bandwidth fat-tree.
    pub fn paper_sec6(seed: u64) -> Self {
        Self::for_switches(11, 216, 5, seed)
    }

    /// The Fig 3 configuration: 486 switches × 24 ports (17 network + 7
    /// server), 3402 servers, 18 meta-nodes in 6 pods of 3.
    pub fn paper_fig3(seed: u64) -> Self {
        Self::for_switches(17, 486, 7, seed)
    }

    /// The Fig 15 configuration: 322 switches × 24 ports (13 network + 11
    /// server), 3542 servers — 45% of the k=24 fat-tree's cost.
    pub fn paper_fig15(seed: u64) -> Self {
        Self::for_switches(13, 322, 11, seed)
    }

    /// The ProjecToR-comparison configuration of §6.6: 128 ToRs with 16
    /// static network ports and 8 servers each.
    pub fn paper_projector(seed: u64) -> Self {
        // 128 is not a multiple of d+1 = 17; the paper's own Xpander tool
        // pads by using heterogeneous lifts. We use d=15 (16 meta-nodes ×
        // lift 8 = 128 switches) with one extra port left unused, which
        // only *disadvantages* the Xpander — conservative for the claim.
        Self::for_switches(15, 128, 8, seed)
    }

    pub fn num_switches(&self) -> usize {
        ((self.net_degree + 1) * self.lift) as usize
    }

    pub fn num_servers(&self) -> usize {
        self.num_switches() * self.servers_per_switch as usize
    }

    /// Builds the best-of-`candidates` lift. Node `m·lift + i` is copy `i`
    /// of meta-node `m`; `group(node)` is the meta-node index. From 512
    /// switches up the candidates are evaluated on one thread per core
    /// (at most one per candidate); the chosen lift does not depend on it.
    pub fn build(&self) -> Topology {
        let workers = setup_workers(self.num_switches()).min(self.candidates.max(1) as usize);
        self.build_on(workers)
    }

    /// [`Xpander::build`] with the candidates split into `workers`
    /// contiguous blocks. Each block keeps its first connected candidate
    /// of least λ, and the blocks are then folded in order by the same
    /// strict `<`, so the winner is the first least candidate whatever
    /// the split.
    fn build_on(&self, workers: usize) -> Topology {
        let candidates: Vec<u64> = (0..self.candidates.max(1) as u64).collect();
        let per_block = candidates.len().div_ceil(workers.max(1));
        let blocks = split_run(candidates.chunks(per_block).collect(), |block| {
            let mut best: Option<(f64, Topology)> = None;
            for &c in block {
                let t = self.build_once(self.seed.wrapping_add(c * 0xA24B_AED4));
                if t.is_connected() {
                    keep_least(&mut best, (second_eigenvalue(&t), t));
                }
            }
            best
        });
        let mut best = None;
        for b in blocks.into_iter().flatten() {
            keep_least(&mut best, b);
        }
        best.expect("no connected lift found").1
    }

    fn build_once(&self, seed: u64) -> Topology {
        let d = self.net_degree;
        let k = self.lift;
        let meta = d + 1;
        let mut rng = Rng::seed_from_u64(seed);
        let mut t = Topology::new(format!(
            "xpander(d={d}, lift={k}, s={}, seed={})",
            self.servers_per_switch, self.seed
        ));
        for m in 0..meta {
            for _ in 0..k {
                let n = t.add_node(NodeKind::Tor, self.servers_per_switch);
                t.set_group(n, m);
            }
        }
        let node = |m: u32, i: u32| -> NodeId { m * k + i };
        for u in 0..meta {
            for v in (u + 1)..meta {
                if k == 1 {
                    t.add_link(node(u, 0), node(v, 0));
                    continue;
                }
                let mut perm: Vec<u32> = (0..k).collect();
                perm.shuffle(&mut rng);
                for i in 0..k {
                    t.add_link(node(u, i), node(v, perm[i as usize]));
                }
            }
        }
        t
    }
}

/// Replaces `best` with `cand` when `best` is empty or `cand`'s λ is
/// strictly smaller, so the earliest of equal candidates wins.
fn keep_least(best: &mut Option<(f64, Topology)>, cand: (f64, Topology)) {
    if best.as_ref().is_none_or(|(b, _)| cand.0 < *b) {
        *best = Some(cand);
    }
}

/// Largest nontrivial adjacency eigenvalue magnitude, max(|λ₂|, |λₙ|), of
/// a connected d-regular graph, by 200 steps of power iteration deflated
/// against the all-ones top eigenvector. For the Ramanujan property this
/// should be ≤ 2·sqrt(d−1) (plus slack).
pub fn second_eigenvalue(t: &Topology) -> f64 {
    let n = t.num_nodes();
    if n < 2 {
        return 0.0;
    }
    // Deterministic pseudo-random start vector, orthogonal to all-ones.
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11;
            (h % 10_000) as f64 / 10_000.0 - 0.5
        })
        .collect();
    orthogonalize(&mut x);
    normalize(&mut x);
    let mut y = vec![0.0f64; n];
    let mut lam = 0.0;
    for _ in 0..200 {
        adjacency_times(t, &x, &mut y);
        orthogonalize(&mut y);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm < 1e-14 {
            return 0.0;
        }
        for v in &mut y {
            *v /= norm;
        }
        lam = norm;
        std::mem::swap(&mut x, &mut y);
    }
    lam
}

/// `y = A·x` for the adjacency matrix `A` of `t`, gathered per node. A
/// node's adjacency lists its links in link order, so its terms are added
/// in the order a scatter over `t.links()` adds them, with the same bits.
/// Runs of four nodes of equal degree are summed side by side, as four
/// independent chains of additions the core can overlap.
fn adjacency_times(t: &Topology, x: &[f64], y: &mut [f64]) {
    let sum = |v: usize| {
        t.neighbors(v as NodeId)
            .iter()
            .fold(0.0, |s, &(u, _)| s + x[u as usize])
    };
    for (q, out) in y.chunks_exact_mut(4).enumerate() {
        let [a, b, c, d]: [&[(NodeId, LinkId)]; 4] =
            std::array::from_fn(|i| t.neighbors((4 * q + i) as NodeId));
        if [b, c, d].iter().all(|l| l.len() == a.len()) {
            let mut s = [0.0f64; 4];
            for (((&(ua, _), &(ub, _)), &(uc, _)), &(ud, _)) in a.iter().zip(b).zip(c).zip(d) {
                s[0] += x[ua as usize];
                s[1] += x[ub as usize];
                s[2] += x[uc as usize];
                s[3] += x[ud as usize];
            }
            out.copy_from_slice(&s);
        } else {
            for (i, o) in out.iter_mut().enumerate() {
                *o = sum(4 * q + i);
            }
        }
    }
    for v in y.len() / 4 * 4..y.len() {
        y[v] = sum(v);
    }
}

fn orthogonalize(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_and_connected() {
        let x = Xpander::new(6, 10, 4, 42);
        let t = x.build();
        assert_eq!(t.num_nodes(), 70);
        assert!(t.is_connected());
        for n in 0..70u32 {
            assert_eq!(t.degree(n), 6);
        }
    }

    #[test]
    fn meta_node_structure() {
        let x = Xpander::new(5, 8, 2, 1);
        let t = x.build();
        // Every switch has exactly one neighbor in every *other* meta-node
        // and none in its own.
        for n in 0..t.num_nodes() as u32 {
            let g = t.group(n).unwrap();
            let mut seen = [0u32; 6];
            for &(v, _) in t.neighbors(n) {
                seen[t.group(v).unwrap() as usize] += 1;
            }
            assert_eq!(seen[g as usize], 0);
            for (m, &c) in seen.iter().enumerate() {
                if m as u32 != g {
                    assert_eq!(c, 1, "node {n} has {c} links to meta {m}");
                }
            }
        }
    }

    #[test]
    fn near_ramanujan() {
        let t = Xpander::new(8, 16, 4, 7).build();
        let lam2 = second_eigenvalue(&t);
        let ramanujan = 2.0 * (8.0f64 - 1.0).sqrt();
        assert!(
            lam2 <= ramanujan * 1.15,
            "lambda2 {lam2} vs Ramanujan bound {ramanujan}"
        );
    }

    #[test]
    fn paper_configs_have_documented_sizes() {
        assert_eq!(Xpander::paper_sec6(0).num_switches(), 216);
        assert_eq!(Xpander::paper_sec6(0).num_servers(), 1080);
        assert_eq!(Xpander::paper_fig3(0).num_switches(), 486);
        assert_eq!(Xpander::paper_fig3(0).num_servers(), 3402);
        assert_eq!(Xpander::paper_fig15(0).num_switches(), 322);
        assert_eq!(Xpander::paper_projector(0).num_switches(), 128);
        assert_eq!(Xpander::paper_projector(0).num_servers(), 1024);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Xpander::new(4, 6, 1, 5).build();
        let b = Xpander::new(4, 6, 1, 5).build();
        let ea: Vec<_> = a.links().iter().map(|l| (l.a, l.b)).collect();
        let eb: Vec<_> = b.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(ea, eb);
    }

    /// However the candidates are split, the same lift wins; with seed 0
    /// only candidate 1 of the 2-regular lift is connected.
    #[test]
    fn candidate_split_keeps_the_lift() {
        for x in [Xpander::new(6, 10, 4, 42), Xpander::new(2, 6, 1, 0)] {
            let fp = x.build_on(1).fingerprint();
            for workers in [2, 3, 4, 8] {
                assert_eq!(x.build_on(workers).fingerprint(), fp, "{workers} blocks");
            }
        }
    }

    /// The gathered product has the bits of a scatter over the links, on
    /// regular and irregular graphs, with and without a ragged last run.
    #[test]
    fn adjacency_times_matches_scatter_bits() {
        use crate::fattree::FatTree;
        for t in [
            FatTree::full(4).build(),           // degrees 2 and 4
            Xpander::new(13, 23, 1, 3).build(), // 322 switches: 80 runs + 2
        ] {
            let n = t.num_nodes();
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 37 % 101) as f64 - 50.0) / 7.0)
                .collect();
            let mut scatter = vec![0.0f64; n];
            for l in t.links() {
                scatter[l.a as usize] += x[l.b as usize];
                scatter[l.b as usize] += x[l.a as usize];
            }
            let mut y = vec![f64::NAN; n];
            adjacency_times(&t, &x, &mut y);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&y), bits(&scatter), "{}", t.name());
        }
    }

    #[test]
    fn complete_graph_base_case_lift_one() {
        let t = Xpander::new(4, 1, 1, 0).build();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_links(), 10); // K_5
    }

    #[test]
    fn second_eigenvalue_of_complete_graph() {
        // K_n has adjacency spectrum {n-1, -1, ..., -1}; deflated power
        // iteration returns |−1| = 1.
        let t = Xpander::new(5, 1, 1, 0).build();
        let lam2 = second_eigenvalue(&t);
        assert!((lam2 - 1.0).abs() < 1e-6, "lambda2 {lam2}");
    }
}
