//! Traffic patterns (paper §6.4 and §6.7) and the longest-matching traffic
//! matrices of the fluid-flow evaluation (§5, following topobench \[20\]).

use dcn_rng::Rng;
use dcn_rng::SliceRandom;
use dcn_topology::{NodeId, Topology};

/// A traffic endpoint: a server slot within a rack.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Endpoint {
    pub rack: NodeId,
    /// Server index within the rack, `0..servers_at(rack)`.
    pub server: u32,
}

/// A sampleable distribution over (source, destination) server pairs.
pub trait TrafficPattern {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint);
    fn name(&self) -> String;
    /// Racks that can appear in samples (for active-server accounting).
    fn active_racks(&self) -> &[NodeId];
}

fn pick_server(rng: &mut Rng, servers: u32) -> u32 {
    assert!(servers > 0, "rack without servers used as endpoint");
    rng.gen_range(0..servers)
}

/// A2A(x): uniform all-to-all over the servers of the active racks
/// (§6.4). Source and destination are distinct *servers*; same-rack pairs
/// are allowed, matching "any pair of servers at active racks".
pub struct AllToAll {
    active: Vec<NodeId>,
    servers: Vec<u32>,
    /// Prefix sums of server counts for uniform server-slot sampling.
    cum: Vec<u64>,
    total: u64,
}

impl AllToAll {
    pub fn new(t: &Topology, active: Vec<NodeId>) -> Self {
        assert!(!active.is_empty());
        let servers: Vec<u32> = active.iter().map(|&r| t.servers_at(r)).collect();
        assert!(
            servers.iter().all(|&s| s > 0),
            "active rack without servers"
        );
        let mut cum = Vec::with_capacity(servers.len());
        let mut total = 0u64;
        for &s in &servers {
            total += s as u64;
            cum.push(total);
        }
        AllToAll {
            active,
            servers,
            cum,
            total,
        }
    }

    fn slot(&self, idx: u64) -> Endpoint {
        let i = self.cum.partition_point(|&c| c <= idx);
        let before = if i == 0 { 0 } else { self.cum[i - 1] };
        Endpoint {
            rack: self.active[i],
            server: (idx - before) as u32,
        }
    }
}

impl TrafficPattern for AllToAll {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint) {
        let a = rng.gen_range(0..self.total);
        let mut b = rng.gen_range(0..self.total - 1);
        if b >= a {
            b += 1;
        }
        (self.slot(a), self.slot(b))
    }

    fn name(&self) -> String {
        format!("A2A({} racks)", self.active.len())
    }

    fn active_racks(&self) -> &[NodeId] {
        &self.active
    }
}

impl AllToAll {
    /// Total active servers (used to scale per-server arrival rates).
    pub fn total_servers(&self) -> u64 {
        self.total
    }

    pub fn servers_per_rack(&self) -> &[u32] {
        &self.servers
    }
}

/// Permute(x): a fixed random permutation over the active racks; each
/// rack sends only to its successor (§6.4). "Challenging … rack-to-rack
/// consolidation of flows limits opportunities for load balancing."
pub struct Permutation {
    active: Vec<NodeId>,
    /// `partner[i]` = index (into `active`) that rack i sends to.
    partner: Vec<usize>,
    servers: Vec<u32>,
}

impl Permutation {
    /// Builds a single random cycle over the active racks so every rack
    /// has exactly one destination and one source, with no fixed points.
    pub fn new(t: &Topology, active: Vec<NodeId>, seed: u64) -> Self {
        assert!(active.len() >= 2, "permutation needs ≥ 2 racks");
        let mut rng = Rng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..active.len()).collect();
        order.shuffle(&mut rng);
        let mut partner = vec![0usize; active.len()];
        for w in 0..order.len() {
            partner[order[w]] = order[(w + 1) % order.len()];
        }
        let servers = active.iter().map(|&r| t.servers_at(r)).collect();
        Permutation {
            active,
            partner,
            servers,
        }
    }

    /// The rack-level pairs (src, dst) of the permutation.
    pub fn pairs(&self) -> Vec<(NodeId, NodeId)> {
        self.partner
            .iter()
            .enumerate()
            .map(|(i, &j)| (self.active[i], self.active[j]))
            .collect()
    }
}

impl TrafficPattern for Permutation {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint) {
        let i = rng.gen_range(0..self.active.len());
        let j = self.partner[i];
        (
            Endpoint {
                rack: self.active[i],
                server: pick_server(rng, self.servers[i]),
            },
            Endpoint {
                rack: self.active[j],
                server: pick_server(rng, self.servers[j]),
            },
        )
    }

    fn name(&self) -> String {
        format!("Permute({} racks)", self.active.len())
    }

    fn active_racks(&self) -> &[NodeId] {
        &self.active
    }
}

/// Skew(θ, ϕ) (§6.7): θ fraction of racks are "hot" and attract ϕ of the
/// traffic. Each rack's participation weight is ϕ/|hot| (hot) or
/// (1−ϕ)/|cold| (cold); rack-pair probability is the normalized product.
/// `Skew(0.04, 0.77)` models a simplification of the ProjecToR Microsoft
/// trace (77% of bytes between 4% of rack pairs).
pub struct Skew {
    racks: Vec<NodeId>,
    weights: Vec<f64>,
    servers: Vec<u32>,
    hot: Vec<NodeId>,
    theta: f64,
    phi: f64,
}

impl Skew {
    pub fn new(t: &Topology, racks: Vec<NodeId>, theta: f64, phi: f64, seed: u64) -> Self {
        assert!(racks.len() >= 2);
        assert!((0.0..=1.0).contains(&theta) && (0.0..=1.0).contains(&phi));
        let mut rng = Rng::seed_from_u64(seed);
        let mut shuffled = racks.clone();
        shuffled.shuffle(&mut rng);
        let n_hot = ((racks.len() as f64 * theta).round() as usize).clamp(1, racks.len());
        let hot: Vec<NodeId> = shuffled[..n_hot].to_vec();
        let is_hot: std::collections::HashSet<_> = hot.iter().copied().collect();
        let n_cold = racks.len() - n_hot;
        let weights = racks
            .iter()
            .map(|r| {
                if is_hot.contains(r) {
                    phi / n_hot as f64
                } else if n_cold > 0 {
                    (1.0 - phi) / n_cold as f64
                } else {
                    0.0
                }
            })
            .collect();
        let servers = racks.iter().map(|&r| t.servers_at(r)).collect();
        Skew {
            racks,
            weights,
            servers,
            hot,
            theta,
            phi,
        }
    }

    /// The ProjecToR-like workload the paper uses in §6.6/§6.7.
    pub fn projector_like(t: &Topology, racks: Vec<NodeId>, seed: u64) -> Self {
        Self::new(t, racks, 0.04, 0.77, seed)
    }

    pub fn hot_racks(&self) -> &[NodeId] {
        &self.hot
    }

    fn sample_rack(&self, rng: &mut Rng) -> usize {
        let total: f64 = self.weights.iter().sum();
        let mut u = rng.gen_range(0.0..total);
        for (i, &w) in self.weights.iter().enumerate() {
            if u < w {
                return i;
            }
            u -= w;
        }
        self.weights.len() - 1
    }
}

impl TrafficPattern for Skew {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint) {
        let i = self.sample_rack(rng);
        let j = loop {
            let j = self.sample_rack(rng);
            if j != i {
                break j;
            }
        };
        (
            Endpoint {
                rack: self.racks[i],
                server: pick_server(rng, self.servers[i]),
            },
            Endpoint {
                rack: self.racks[j],
                server: pick_server(rng, self.servers[j]),
            },
        )
    }

    fn name(&self) -> String {
        format!("Skew({:.2},{:.2})", self.theta, self.phi)
    }

    fn active_racks(&self) -> &[NodeId] {
        &self.racks
    }
}

/// Selects the active racks for a fraction-x experiment, per §6.4:
/// fat-trees use the *first* x fraction (pods fill in order); flat
/// networks use a *random* x fraction.
pub fn active_fraction(racks: &[NodeId], fraction: f64, random: bool, seed: u64) -> Vec<NodeId> {
    assert!((0.0..=1.0).contains(&fraction));
    let k = ((racks.len() as f64 * fraction).round() as usize).clamp(1, racks.len());
    if random {
        let mut rng = Rng::seed_from_u64(seed);
        let mut v = racks.to_vec();
        v.shuffle(&mut rng);
        v.truncate(k);
        v
    } else {
        racks[..k].to_vec()
    }
}

/// Uniform all-to-all over an explicit list of server slots — used when an
/// experiment pins the exact endpoints (e.g. Fig 7b's "10 servers on two
/// adjacent racks").
pub struct ExplicitServers {
    slots: Vec<Endpoint>,
    racks: Vec<NodeId>,
}

impl ExplicitServers {
    pub fn new(slots: Vec<Endpoint>) -> Self {
        assert!(slots.len() >= 2, "need at least two endpoints");
        let mut racks: Vec<NodeId> = slots.iter().map(|e| e.rack).collect();
        racks.sort_unstable();
        racks.dedup();
        ExplicitServers { slots, racks }
    }

    /// The first `per_rack` server slots on each listed rack.
    pub fn first_on_racks(t: &Topology, racks: &[NodeId], per_rack: u32) -> Self {
        let mut slots = Vec::new();
        for &r in racks {
            assert!(
                t.servers_at(r) >= per_rack,
                "rack {r} lacks {per_rack} servers"
            );
            for i in 0..per_rack {
                slots.push(Endpoint { rack: r, server: i });
            }
        }
        Self::new(slots)
    }
}

impl TrafficPattern for ExplicitServers {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint) {
        let a = rng.gen_range(0..self.slots.len());
        let mut b = rng.gen_range(0..self.slots.len() - 1);
        if b >= a {
            b += 1;
        }
        (self.slots[a], self.slots[b])
    }

    fn name(&self) -> String {
        format!("Explicit({} servers)", self.slots.len())
    }

    fn active_racks(&self) -> &[NodeId] {
        &self.racks
    }
}

/// Selects active racks until they hold at least `n_servers` servers —
/// the paper keeps "the number of active servers … always the same in any
/// comparisons" across networks with different rack sizes. Fat-trees use
/// the first racks in order; flat networks a random subset (§6.4).
pub fn active_racks_for_servers(
    t: &Topology,
    racks: &[NodeId],
    n_servers: u32,
    random: bool,
    seed: u64,
) -> Vec<NodeId> {
    let order: Vec<NodeId> = if random {
        let mut rng = Rng::seed_from_u64(seed);
        let mut v = racks.to_vec();
        v.shuffle(&mut rng);
        v
    } else {
        racks.to_vec()
    };
    let mut out = Vec::new();
    let mut have = 0u32;
    for r in order {
        if have >= n_servers {
            break;
        }
        have += t.servers_at(r);
        out.push(r);
    }
    assert!(
        have >= n_servers,
        "network has only {have} servers, need {n_servers}"
    );
    out
}

/// Pair-level skew: a stand-in for the ProjecToR Microsoft trace (§6.6),
/// where "77% of bytes \[are\] transferred between 4% of the rack-pairs".
/// Unlike [`Skew`]'s per-rack product weights, the hot set here is a set
/// of ordered rack *pairs* holding `hot_traffic` of the probability mass —
/// and, as in the measured trace, those pairs concentrate on a small
/// subset of racks (the hottest ~20%), so hot ToRs really do saturate.
pub struct PairSkew {
    pairs: Vec<(usize, usize)>,
    /// Cumulative weights aligned with `pairs`.
    cum: Vec<f64>,
    racks: Vec<NodeId>,
    servers: Vec<u32>,
    hot_pairs: usize,
}

impl PairSkew {
    pub fn new(
        t: &Topology,
        racks: Vec<NodeId>,
        hot_pair_frac: f64,
        hot_traffic: f64,
        seed: u64,
    ) -> Self {
        assert!(racks.len() >= 2);
        assert!((0.0..=1.0).contains(&hot_pair_frac) && (0.0..=1.0).contains(&hot_traffic));
        let mut rng = Rng::seed_from_u64(seed);
        let n = racks.len();
        let all_pairs = n * (n - 1);
        let hot_pairs = ((all_pairs as f64 * hot_pair_frac).round() as usize).clamp(1, all_pairs);
        // Hot pairs live among the hottest racks: the smallest rack subset
        // whose ordered pairs can host them (at least 20% of racks), which
        // reproduces the trace's rack-level concentration.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut hot_rack_count = (n / 5).max(2);
        while hot_rack_count * (hot_rack_count - 1) < hot_pairs {
            hot_rack_count += 1;
        }
        let hot_racks = &order[..hot_rack_count];
        let mut hot_set: Vec<(usize, usize)> = hot_racks
            .iter()
            .flat_map(|&i| {
                hot_racks
                    .iter()
                    .filter(move |&&j| j != i)
                    .map(move |&j| (i, j))
            })
            .collect();
        hot_set.shuffle(&mut rng);
        hot_set.truncate(hot_pairs);
        let in_hot: std::collections::HashSet<(usize, usize)> = hot_set.iter().copied().collect();
        let mut pairs: Vec<(usize, usize)> = hot_set;
        for i in 0..n {
            for j in 0..n {
                if i != j && !in_hot.contains(&(i, j)) {
                    pairs.push((i, j));
                }
            }
        }
        let cold_pairs = pairs.len() - hot_pairs;
        let mut cum = Vec::with_capacity(pairs.len());
        let mut acc = 0.0;
        for (i, _) in pairs.iter().enumerate() {
            acc += if i < hot_pairs {
                hot_traffic / hot_pairs as f64
            } else {
                (1.0 - hot_traffic) / cold_pairs.max(1) as f64
            };
            cum.push(acc);
        }
        let servers = racks.iter().map(|&r| t.servers_at(r)).collect();
        PairSkew {
            pairs,
            cum,
            racks,
            servers,
            hot_pairs,
        }
    }

    /// The ProjecToR-trace stand-in: Skew over 4% of pairs carrying 77%.
    pub fn projector_trace(t: &Topology, racks: Vec<NodeId>, seed: u64) -> Self {
        Self::new(t, racks, 0.04, 0.77, seed)
    }

    pub fn hot_pair_count(&self) -> usize {
        self.hot_pairs
    }
}

impl TrafficPattern for PairSkew {
    fn sample(&self, rng: &mut Rng) -> (Endpoint, Endpoint) {
        let total = *self.cum.last().unwrap();
        let u = rng.gen_range(0.0..total);
        let idx = self
            .cum
            .partition_point(|&c| c <= u)
            .min(self.pairs.len() - 1);
        let (i, j) = self.pairs[idx];
        (
            Endpoint {
                rack: self.racks[i],
                server: pick_server(rng, self.servers[i]),
            },
            Endpoint {
                rack: self.racks[j],
                server: pick_server(rng, self.servers[j]),
            },
        )
    }

    fn name(&self) -> String {
        "PairSkew(ProjecToR-like)".to_string()
    }

    fn active_racks(&self) -> &[NodeId] {
        &self.racks
    }
}

/// Longest-matching traffic matrix (§5, topobench \[20\]): participating
/// racks are paired to (heuristically) maximize total pairwise distance —
/// "flows along long paths consume resources on many edges". Returns the
/// directed rack pairs (both directions of each match).
///
/// Heuristic: all rack pairs sorted by hop distance descending, greedily
/// matched; stops after `floor(fraction·racks/2)` matches.
pub fn longest_matching(
    t: &Topology,
    racks: &[NodeId],
    fraction: f64,
    seed: u64,
) -> Vec<(NodeId, NodeId)> {
    assert!(racks.len() >= 2);
    let want = (((racks.len() as f64 * fraction) / 2.0).round() as usize).max(1);
    let dist = t.hop_distances();
    let mut pairs: Vec<(u8, usize, usize)> = Vec::new();
    for (i, &ri) in racks.iter().enumerate() {
        let row = dist.row(ri);
        for (j, &rj) in racks.iter().enumerate().skip(i + 1) {
            pairs.push((row[rj as usize], i, j));
        }
    }
    // Shuffle first so ties break randomly but deterministically, then
    // stable-sort by distance descending.
    let mut rng = Rng::seed_from_u64(seed);
    pairs.shuffle(&mut rng);
    pairs.sort_by_key(|p| std::cmp::Reverse(p.0));

    let mut used = vec![false; racks.len()];
    let mut out = Vec::with_capacity(want * 2);
    for (_, i, j) in pairs {
        if out.len() / 2 >= want {
            break;
        }
        if !used[i] && !used[j] {
            used[i] = true;
            used[j] = true;
            out.push((racks[i], racks[j]));
            out.push((racks[j], racks[i]));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcn_topology::fattree::FatTree;
    use dcn_topology::jellyfish::Jellyfish;

    fn rng() -> Rng {
        Rng::seed_from_u64(7)
    }

    #[test]
    fn a2a_endpoints_valid_and_distinct() {
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let a2a = AllToAll::new(&t, racks.clone());
        let mut r = rng();
        for _ in 0..1000 {
            let (s, d) = a2a.sample(&mut r);
            assert!(racks.contains(&s.rack) && racks.contains(&d.rack));
            assert!(s.server < t.servers_at(s.rack));
            assert!(d.server < t.servers_at(d.rack));
            assert!(s != d, "sampled identical endpoints");
        }
    }

    #[test]
    fn a2a_roughly_uniform_over_racks() {
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let a2a = AllToAll::new(&t, racks.clone());
        let mut counts = std::collections::HashMap::new();
        let mut r = rng();
        for _ in 0..16_000 {
            let (s, _) = a2a.sample(&mut r);
            *counts.entry(s.rack).or_insert(0usize) += 1;
        }
        for &rack in &racks {
            let c = counts[&rack] as f64 / 16_000.0;
            let expect = 1.0 / racks.len() as f64;
            assert!((c - expect).abs() < expect * 0.3, "rack {rack}: {c}");
        }
    }

    #[test]
    fn permutation_is_a_single_cycle_without_fixed_points() {
        let t = FatTree::full(8).build();
        let racks = t.tors_with_servers();
        let p = Permutation::new(&t, racks.clone(), 3);
        let pairs = p.pairs();
        assert_eq!(pairs.len(), racks.len());
        for &(a, b) in &pairs {
            assert_ne!(a, b);
        }
        // Every rack appears exactly once as source and once as dest.
        let mut srcs: Vec<_> = pairs.iter().map(|p| p.0).collect();
        let mut dsts: Vec<_> = pairs.iter().map(|p| p.1).collect();
        srcs.sort_unstable();
        dsts.sort_unstable();
        let mut expect = racks.clone();
        expect.sort_unstable();
        assert_eq!(srcs, expect);
        assert_eq!(dsts, expect);
    }

    #[test]
    fn permutation_samples_respect_pairs() {
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let p = Permutation::new(&t, racks, 3);
        let pairs: std::collections::HashSet<_> = p.pairs().into_iter().collect();
        let mut r = rng();
        for _ in 0..500 {
            let (s, d) = p.sample(&mut r);
            assert!(pairs.contains(&(s.rack, d.rack)));
        }
    }

    #[test]
    fn skew_hot_racks_dominate() {
        let t = Jellyfish::new(50, 5, 4, 1).build();
        let racks = t.tors_with_servers();
        let skew = Skew::new(&t, racks, 0.04, 0.77, 5);
        let hot: std::collections::HashSet<_> = skew.hot_racks().iter().copied().collect();
        assert_eq!(hot.len(), 2); // 4% of 50
        let mut r = rng();
        let mut hot_hits = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let (s, _) = skew.sample(&mut r);
            if hot.contains(&s.rack) {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / n as f64;
        assert!((frac - 0.77).abs() < 0.03, "hot source fraction {frac}");
    }

    #[test]
    fn active_fraction_deterministic_and_sized() {
        let racks: Vec<u32> = (0..100).collect();
        let a = active_fraction(&racks, 0.31, true, 9);
        let b = active_fraction(&racks, 0.31, true, 9);
        assert_eq!(a, b);
        assert_eq!(a.len(), 31);
        let c = active_fraction(&racks, 0.31, false, 0);
        assert_eq!(c, (0..31).collect::<Vec<u32>>());
    }

    #[test]
    fn active_racks_for_servers_exactness() {
        let t = FatTree::full(8).build(); // 32 racks x 4 servers
        let racks = t.tors_with_servers();
        let sel = active_racks_for_servers(&t, &racks, 40, false, 0);
        assert_eq!(sel.len(), 10);
        assert_eq!(sel, racks[..10].to_vec());
        let rnd = active_racks_for_servers(&t, &racks, 40, true, 3);
        assert_eq!(rnd.len(), 10);
        assert_ne!(rnd, sel);
        // Deterministic per seed.
        assert_eq!(rnd, active_racks_for_servers(&t, &racks, 40, true, 3));
    }

    #[test]
    #[should_panic]
    fn active_racks_for_servers_overflow_panics() {
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        active_racks_for_servers(&t, &racks, 1000, false, 0);
    }

    #[test]
    fn explicit_servers_sampling() {
        let t = FatTree::full(4).build();
        let pat = ExplicitServers::first_on_racks(&t, &[0, 4], 2);
        assert_eq!(pat.active_racks(), &[0, 4]);
        let mut r = rng();
        for _ in 0..200 {
            let (a, b) = pat.sample(&mut r);
            assert!(a != b);
            assert!(a.rack == 0 || a.rack == 4);
            assert!(a.server < 2 && b.server < 2);
        }
    }

    #[test]
    fn pair_skew_hot_pairs_carry_hot_traffic() {
        let t = Jellyfish::new(50, 5, 4, 1).build();
        let racks = t.tors_with_servers();
        let ps = PairSkew::projector_trace(&t, racks, 9);
        // 4% of 50·49 ordered pairs.
        assert_eq!(ps.hot_pair_count(), 98);
        let mut r = rng();
        let mut counts = std::collections::HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            let (s, d) = ps.sample(&mut r);
            assert_ne!(s.rack, d.rack);
            *counts.entry((s.rack, d.rack)).or_insert(0usize) += 1;
        }
        // Top-4% of pairs by observed count should carry ≈77% of samples.
        let mut v: Vec<usize> = counts.values().copied().collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = v.iter().take(98).sum();
        let frac = top as f64 / n as f64;
        assert!((frac - 0.77).abs() < 0.05, "hot fraction {frac}");
    }

    #[test]
    fn longest_matching_prefers_distant_racks() {
        let t = FatTree::full(4).build();
        let racks = t.tors_with_servers();
        let pairs = longest_matching(&t, &racks, 1.0, 1);
        assert_eq!(pairs.len(), racks.len()); // both directions
                                              // In a fat-tree, the longest matching should be cross-pod (hop
                                              // distance 4) for every pair.
        for &(a, b) in &pairs {
            assert_ne!(t.group(a), t.group(b), "intra-pod pair in longest matching");
        }
    }

    #[test]
    fn longest_matching_fraction_counts() {
        let t = FatTree::full(8).build();
        let racks = t.tors_with_servers(); // 32 racks
        let pairs = longest_matching(&t, &racks, 0.5, 1);
        assert_eq!(pairs.len(), 16); // 8 matches × 2 directions
                                     // Endpoints are disjoint.
        let mut seen = std::collections::HashSet::new();
        for &(a, _) in &pairs {
            assert!(seen.insert(a));
        }
    }
}
