//! Compact undirected multigraph used by every other crate.
//!
//! Nodes are switches (servers are modeled as per-switch attachment counts,
//! matching the paper's rack-granularity traffic matrices). Parallel edges
//! are allowed — oversubscribed fat-trees and small expanders use them.

use dcn_rng::Fnv1a;
use std::collections::VecDeque;

/// Index of a switch in a [`Topology`].
pub type NodeId = u32;

/// Index of an undirected link in a [`Topology`].
pub type LinkId = u32;

/// Role a switch plays in the network, used by routing and workloads to
/// decide where servers live and by fat-tree construction audits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Top-of-rack switch: has servers attached.
    Tor,
    /// Fat-tree aggregation-layer switch.
    Aggregation,
    /// Fat-tree core-layer switch.
    Core,
}

/// An undirected link between two switches with a capacity in line-rate
/// units (1.0 = one standard link, e.g. 10 Gbps in the paper's experiments).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    pub a: NodeId,
    pub b: NodeId,
    pub capacity: f64,
}

impl Link {
    /// The endpoint that is not `from`. Panics if `from` is neither endpoint.
    pub fn other(&self, from: NodeId) -> NodeId {
        if from == self.a {
            self.b
        } else {
            assert_eq!(from, self.b, "node {from} is not an endpoint");
            self.a
        }
    }
}

/// A static switch-level network topology.
///
/// Construction is append-only: add nodes, then links. Adjacency is kept as
/// `(neighbor, link)` pairs so parallel links stay distinguishable.
#[derive(Clone, Debug)]
pub struct Topology {
    name: String,
    kinds: Vec<NodeKind>,
    servers: Vec<u32>,
    links: Vec<Link>,
    adj: Vec<Vec<(NodeId, LinkId)>>,
    /// Optional structural grouping (Xpander meta-nodes, fat-tree pods).
    /// `groups[node]` is `u32::MAX` when the node is ungrouped.
    groups: Vec<u32>,
}

impl Topology {
    /// Creates an empty topology with a human-readable name.
    pub fn new(name: impl Into<String>) -> Self {
        Topology {
            name: name.into(),
            kinds: Vec::new(),
            servers: Vec::new(),
            links: Vec::new(),
            adj: Vec::new(),
            groups: Vec::new(),
        }
    }

    /// Adds a switch with `servers` attached servers; returns its id.
    pub fn add_node(&mut self, kind: NodeKind, servers: u32) -> NodeId {
        let id = self.kinds.len() as NodeId;
        self.kinds.push(kind);
        self.servers.push(servers);
        self.adj.push(Vec::new());
        self.groups.push(u32::MAX);
        id
    }

    /// Adds an undirected unit-capacity link.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> LinkId {
        self.add_link_cap(a, b, 1.0)
    }

    /// Adds an undirected link with an explicit capacity.
    pub fn add_link_cap(&mut self, a: NodeId, b: NodeId, capacity: f64) -> LinkId {
        assert!(a != b, "self-loops are not allowed (node {a})");
        assert!((a as usize) < self.adj.len() && (b as usize) < self.adj.len());
        assert!(capacity > 0.0, "links must have positive capacity");
        let id = self.links.len() as LinkId;
        self.links.push(Link { a, b, capacity });
        self.adj[a as usize].push((b, id));
        self.adj[b as usize].push((a, id));
        id
    }

    /// Assigns a structural group (pod / meta-node) to a node.
    pub fn set_group(&mut self, node: NodeId, group: u32) {
        self.groups[node as usize] = group;
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of switches.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Number of undirected links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Total number of servers across all switches.
    pub fn num_servers(&self) -> usize {
        self.servers.iter().map(|&s| s as usize).sum()
    }

    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node as usize]
    }

    /// Servers attached to `node`.
    pub fn servers_at(&self, node: NodeId) -> u32 {
        self.servers[node as usize]
    }

    /// Overrides the number of servers at a switch.
    pub fn set_servers(&mut self, node: NodeId, servers: u32) {
        self.servers[node as usize] = servers;
    }

    pub fn group(&self, node: NodeId) -> Option<u32> {
        match self.groups[node as usize] {
            u32::MAX => None,
            g => Some(g),
        }
    }

    pub fn link(&self, id: LinkId) -> Link {
        self.links[id as usize]
    }

    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Neighbors of `node` as `(neighbor, link)` pairs; parallel links appear
    /// once per link.
    pub fn neighbors(&self, node: NodeId) -> &[(NodeId, LinkId)] {
        &self.adj[node as usize]
    }

    /// Network degree (number of switch-to-switch link endpoints) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adj[node as usize].len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// All switches that have at least one server (the traffic endpoints).
    pub fn tors_with_servers(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as NodeId)
            .filter(|&n| self.servers[n as usize] > 0)
            .collect()
    }

    /// Sum of all link capacities (each undirected link counted once).
    pub fn total_capacity(&self) -> f64 {
        self.links.iter().map(|l| l.capacity).sum()
    }

    /// Order-sensitive FNV-1a fingerprint over the full structure — name,
    /// node kinds, per-node server counts, groups, and links (endpoints +
    /// capacity bits). Run manifests record it so two result files can be
    /// checked for having simulated the same fabric.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::default();
        h.write(self.name.as_bytes())
            .write_u64(self.kinds.len() as u64);
        for (i, k) in self.kinds.iter().enumerate() {
            let tag: u64 = match k {
                NodeKind::Tor => 1,
                NodeKind::Aggregation => 2,
                NodeKind::Core => 3,
            };
            h.write_u64(tag)
                .write_u64(self.servers[i] as u64)
                .write_u64(self.groups[i] as u64);
        }
        h.write_u64(self.links.len() as u64);
        for l in &self.links {
            h.write_u64(l.a as u64)
                .write_u64(l.b as u64)
                .write_u64(l.capacity.to_bits());
        }
        h.finish()
    }

    /// Unweighted BFS hop distances from `src` (`u32::MAX` = unreachable).
    pub fn bfs_distances(&self, src: NodeId) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_nodes()];
        let mut queue = vec![src];
        dist[src as usize] = 0;
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            let du = dist[u as usize];
            for &(v, _) in &self.adj[u as usize] {
                if dist[v as usize] == u32::MAX {
                    dist[v as usize] = du + 1;
                    queue.push(v);
                }
            }
        }
        dist
    }

    /// All-pairs shortest hop distances by level-synchronous bit-parallel
    /// BFS. Row `v` of a bitset holds `R_k(v)`, the nodes within `k` hops
    /// of `v`; `R_k(v) = R_{k-1}(v) ∪ ⋃_{u∈N(v)} R_{k-1}(u)`, and every bit
    /// that is new at level `k` is a pair at distance `k`. Stops at the
    /// first level that sets no bit. Cost O(D·(n+2E)·n/64) word operations
    /// for diameter D; transient memory is two n×⌈n/64⌉ `u64` bitsets.
    /// Links are undirected, so the result is symmetric. Graphs of 512 or
    /// more switches split each level's rows over one thread per core; the
    /// result does not depend on the split.
    ///
    /// # Panics
    /// If some pair is 255 or more hops apart: distances are stored as
    /// `u8`, with `u8::MAX` reserved for unreachable pairs.
    pub fn hop_distances(&self) -> HopDistances {
        self.hop_distances_on(setup_workers(self.num_nodes()))
    }

    /// [`Topology::hop_distances`] with each level's rows split into
    /// `workers` contiguous blocks. Every block reads all of level `k-1`
    /// and writes only its own rows of level `k` and of the distance
    /// matrix, so blocks need no synchronisation within a level. The
    /// matrix is allocated zeroed (the diagonal is already right) and the
    /// blocks write each reached pair once, so its pages are first touched
    /// in parallel; pairs still unreached after the last level are set to
    /// [`HopDistances::UNREACHABLE`] from the final reach sets.
    pub(crate) fn hop_distances_on(&self, workers: usize) -> HopDistances {
        let n = self.num_nodes();
        let w = n.div_ceil(64);
        let mut d = vec![0u8; n * n];
        if n == 0 {
            return HopDistances { n, d };
        }
        let mut cur = vec![0u64; n * w];
        let mut next = vec![0u64; n * w];
        for v in 0..n {
            cur[v * w + v / 64] = 1 << (v % 64);
        }
        let rows = n.div_ceil(workers.max(1));
        for k in 1u32.. {
            // Level 255 is only written if some pair is that far apart,
            // and then the assert below refuses the matrix.
            let level = k.min(HopDistances::UNREACHABLE as u32) as u8;
            let blocks: Vec<_> = next
                .chunks_mut(rows * w)
                .zip(d.chunks_mut(rows * n))
                .enumerate()
                .map(|(b, (next, d))| (b * rows, next, d))
                .collect();
            let prev = &cur;
            let grew = split_run(blocks, |(first, next, d)| {
                let mut grew = false;
                for (i, (row, dv)) in next.chunks_mut(w).zip(d.chunks_mut(n)).enumerate() {
                    let v = first + i;
                    let old = &prev[v * w..(v + 1) * w];
                    row.copy_from_slice(old);
                    for &(u, _) in &self.adj[v] {
                        let u = u as usize;
                        for (a, &b) in row.iter_mut().zip(&prev[u * w..(u + 1) * w]) {
                            *a |= b;
                        }
                    }
                    for (i, (&now, &was)) in row.iter().zip(old).enumerate() {
                        let mut fresh = now & !was;
                        grew |= fresh != 0;
                        while fresh != 0 {
                            dv[i * 64 + fresh.trailing_zeros() as usize] = level;
                            fresh &= fresh - 1;
                        }
                    }
                }
                grew
            });
            if !grew.contains(&true) {
                break;
            }
            assert!(
                level != HopDistances::UNREACHABLE,
                "{}: hop distances of 255 or more do not fit the u8 matrix",
                self.name()
            );
            std::mem::swap(&mut cur, &mut next);
        }
        for (row, dv) in cur.chunks(w).zip(d.chunks_mut(n)) {
            for (i, &reached) in row.iter().enumerate() {
                let mut miss = !reached;
                while miss != 0 {
                    let j = i * 64 + miss.trailing_zeros() as usize;
                    if j >= n {
                        break; // padding bits of the last word
                    }
                    dv[j] = HopDistances::UNREACHABLE;
                    miss &= miss - 1;
                }
            }
        }
        HopDistances { n, d }
    }

    /// True iff every node can reach every other node.
    pub fn is_connected(&self) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let d = self.bfs_distances(0);
        d.iter().all(|&x| x != u32::MAX)
    }

    /// Returns `true` if `a` and `b` share at least one link.
    pub fn are_adjacent(&self, a: NodeId, b: NodeId) -> bool {
        self.adj[a as usize].iter().any(|&(v, _)| v == b)
    }

    /// Number of parallel links between `a` and `b`.
    pub fn multiplicity(&self, a: NodeId, b: NodeId) -> usize {
        self.adj[a as usize]
            .iter()
            .filter(|&&(v, _)| v == b)
            .count()
    }

    /// Returns a copy of this topology with the given links removed
    /// (failure injection). Link ids are re-assigned densely; node ids and
    /// server placement are preserved. Returns `Err` (naming a cut pair)
    /// if the survivor is disconnected — callers model partitions
    /// explicitly if they want them, via [`Topology::without_links_largest_component`].
    pub fn without_links(&self, failed: &[LinkId]) -> Result<Topology, DisconnectedError> {
        let t = self.strip_links(failed);
        if let Some(unreachable) = t.bfs_distances(0).iter().position(|&d| d == u32::MAX) {
            return Err(DisconnectedError {
                removed: failed.len(),
                example_cut: (0, unreachable as NodeId),
            });
        }
        Ok(t)
    }

    /// Like [`Topology::without_links`], but tolerates partitions: nodes
    /// outside the largest surviving component keep their ids but lose all
    /// links and servers, so routing and traffic treat them as dead.
    pub fn without_links_largest_component(&self, failed: &[LinkId]) -> Topology {
        let t = self.strip_links(failed);
        // Label components; keep the one with the most servers (ties: most
        // nodes, then lowest root id — deterministic).
        let mut comp = vec![u32::MAX; t.num_nodes()];
        let mut best: Option<(u64, usize, u32)> = None;
        for root in 0..t.num_nodes() as NodeId {
            if comp[root as usize] != u32::MAX {
                continue;
            }
            let mut servers = 0u64;
            let mut size = 0usize;
            let mut q = VecDeque::from([root]);
            comp[root as usize] = root;
            while let Some(u) = q.pop_front() {
                servers += t.servers_at(u) as u64;
                size += 1;
                for &(v, _) in t.neighbors(u) {
                    if comp[v as usize] == u32::MAX {
                        comp[v as usize] = root;
                        q.push_back(v);
                    }
                }
            }
            let key = (servers, size, u32::MAX - root);
            if best.is_none_or(|b| key > b) {
                best = Some(key);
            }
        }
        let keep = best.map_or(0, |(_, _, inv)| u32::MAX - inv);
        let mut out = Topology::new(t.name.clone());
        for n in 0..t.num_nodes() as NodeId {
            let alive = comp[n as usize] == keep;
            out.add_node(t.kind(n), if alive { t.servers_at(n) } else { 0 });
            if let Some(g) = t.group(n) {
                out.set_group(n, g);
            }
        }
        for l in &t.links {
            if comp[l.a as usize] == keep {
                out.add_link_cap(l.a, l.b, l.capacity);
            }
        }
        out
    }

    fn strip_links(&self, failed: &[LinkId]) -> Topology {
        let failed: std::collections::HashSet<LinkId> = failed.iter().copied().collect();
        let mut t = Topology::new(format!("{} (-{} links)", self.name, failed.len()));
        for n in 0..self.num_nodes() as NodeId {
            t.add_node(self.kind(n), self.servers_at(n));
            if let Some(g) = self.group(n) {
                t.set_group(n, g);
            }
        }
        for (i, l) in self.links.iter().enumerate() {
            if !failed.contains(&(i as LinkId)) {
                t.add_link_cap(l.a, l.b, l.capacity);
            }
        }
        t
    }

    /// Fails a random `fraction` of links, deterministically per seed and
    /// without ever panicking: candidate links are visited in a seeded
    /// random order and a removal that would disconnect the network is
    /// skipped (resampled), so bridges survive. If the graph has fewer
    /// than `k` removable links the result simply loses fewer links.
    pub fn with_random_failures(&self, fraction: f64, seed: u64) -> Topology {
        use dcn_rng::{Rng, SliceRandom};
        assert!((0.0..1.0).contains(&fraction));
        let k = (self.num_links() as f64 * fraction).round() as usize;
        if k == 0 {
            return self.clone();
        }
        let mut rng = Rng::seed_from_u64(seed);
        let mut order: Vec<LinkId> = (0..self.num_links() as LinkId).collect();
        order.shuffle(&mut rng);
        let mut removed: Vec<LinkId> = Vec::with_capacity(k);
        let removed_set = &mut vec![false; self.num_links()];
        for &cand in &order {
            if removed.len() == k {
                break;
            }
            removed_set[cand as usize] = true;
            if self.connected_without(removed_set) {
                removed.push(cand);
            } else {
                removed_set[cand as usize] = false; // a bridge — resample
            }
        }
        self.without_links(&removed)
            .expect("greedy sampling kept the survivor connected")
    }

    /// Connectivity check with a link mask, allocation-light (used by the
    /// failure sampler's inner loop).
    fn connected_without(&self, removed: &[bool]) -> bool {
        if self.num_nodes() == 0 {
            return true;
        }
        let mut seen = vec![false; self.num_nodes()];
        let mut q = VecDeque::from([0 as NodeId]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = q.pop_front() {
            for &(v, l) in &self.adj[u as usize] {
                if !removed[l as usize] && !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                    q.push_back(v);
                }
            }
        }
        count == self.num_nodes()
    }

    /// Serializes to the JSON shape `dcnsim`'s `{"kind": "file"}` topology
    /// config loads: name, kinds, servers, links, groups.
    pub fn to_json(&self) -> dcn_json::Json {
        use dcn_json::Json;
        let kind_str = |k: NodeKind| match k {
            NodeKind::Tor => "Tor",
            NodeKind::Aggregation => "Aggregation",
            NodeKind::Core => "Core",
        };
        Json::obj(vec![
            ("name", Json::from(self.name.clone())),
            (
                "kinds",
                Json::Arr(
                    self.kinds
                        .iter()
                        .map(|&k| Json::from(kind_str(k)))
                        .collect(),
                ),
            ),
            (
                "servers",
                Json::Arr(self.servers.iter().map(|&s| Json::from(s)).collect()),
            ),
            (
                "links",
                Json::Arr(
                    self.links
                        .iter()
                        .map(|l| {
                            Json::obj(vec![
                                ("a", Json::from(l.a)),
                                ("b", Json::from(l.b)),
                                ("capacity", Json::from(l.capacity)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "groups",
                Json::Arr(
                    self.groups
                        .iter()
                        .map(|&g| {
                            if g == u32::MAX {
                                dcn_json::Json::Null
                            } else {
                                Json::from(g)
                            }
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Inverse of [`Topology::to_json`]. The `groups` field is optional.
    pub fn from_json(v: &dcn_json::Json) -> Result<Topology, String> {
        let name = v.get("name").and_then(|n| n.as_str()).unwrap_or("loaded");
        let mut t = Topology::new(name);
        let kinds = v
            .get("kinds")
            .and_then(|k| k.as_array())
            .ok_or("missing 'kinds'")?;
        let servers = v
            .get("servers")
            .and_then(|s| s.as_array())
            .ok_or("missing 'servers'")?;
        if kinds.len() != servers.len() {
            return Err(format!(
                "kinds ({}) vs servers ({}) mismatch",
                kinds.len(),
                servers.len()
            ));
        }
        for (k, s) in kinds.iter().zip(servers) {
            let kind = match k.as_str() {
                Some("Tor") => NodeKind::Tor,
                Some("Aggregation") => NodeKind::Aggregation,
                Some("Core") => NodeKind::Core,
                other => return Err(format!("bad node kind {other:?}")),
            };
            let n = s.as_u64().ok_or("bad server count")? as u32;
            t.add_node(kind, n);
        }
        let links = v
            .get("links")
            .and_then(|l| l.as_array())
            .ok_or("missing 'links'")?;
        for l in links {
            let a = l
                .get("a")
                .and_then(|x| x.as_u64())
                .ok_or("link missing 'a'")? as NodeId;
            let b = l
                .get("b")
                .and_then(|x| x.as_u64())
                .ok_or("link missing 'b'")? as NodeId;
            let cap = l.get("capacity").and_then(|x| x.as_f64()).unwrap_or(1.0);
            if a as usize >= t.num_nodes() || b as usize >= t.num_nodes() {
                return Err(format!("link {a}-{b} references unknown node"));
            }
            t.add_link_cap(a, b, cap);
        }
        if let Some(groups) = v.get("groups").and_then(|g| g.as_array()) {
            for (n, g) in groups.iter().enumerate() {
                if let Some(g) = g.as_u64() {
                    t.set_group(n as NodeId, g as u32);
                }
            }
        }
        Ok(t)
    }
}

/// Removing a link set disconnected the topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DisconnectedError {
    /// How many links the caller removed.
    pub removed: usize,
    /// One (src, dst) pair with no surviving path.
    pub example_cut: (NodeId, NodeId),
}

impl std::fmt::Display for DisconnectedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "removing {} links disconnected the topology (no path {} -> {})",
            self.removed, self.example_cut.0, self.example_cut.1
        )
    }
}

impl std::error::Error for DisconnectedError {}

/// All-pairs hop distances of a [`Topology`] as a flat row-major n×n
/// matrix of bytes (n² bytes), from [`Topology::hop_distances`].
/// [`HopDistances::UNREACHABLE`] marks unreachable pairs in rows;
/// [`HopDistances::get`] widens it to `u32::MAX`.
#[derive(Clone, Debug)]
pub struct HopDistances {
    n: usize,
    d: Vec<u8>,
}

impl HopDistances {
    /// The row entry of an unreachable pair.
    pub const UNREACHABLE: u8 = u8::MAX;

    /// Hop distances from `v` to every node; by symmetry also from every
    /// node to `v`.
    pub fn row(&self, v: NodeId) -> &[u8] {
        let v = v as usize;
        &self.d[v * self.n..(v + 1) * self.n]
    }

    /// Hop distance from `a` to `b`, `u32::MAX` when unreachable.
    pub fn get(&self, a: NodeId, b: NodeId) -> u32 {
        match self.d[a as usize * self.n + b as usize] {
            Self::UNREACHABLE => u32::MAX,
            d => d as u32,
        }
    }

    /// Every entry, row by row.
    pub fn as_slice(&self) -> &[u8] {
        &self.d
    }
}

/// Switch count at and above which set-up work (the Xpander candidate
/// search, [`Topology::hop_distances`]) is split over threads. Below
/// about this size the hop kernel's thread spawn per BFS level costs more
/// than splitting its rows saves; DESIGN.md §dcn-topology has the
/// measured crossover.
pub(crate) const PARALLEL_MIN_NODES: usize = 512;

/// Threads for set-up work on a graph of `n` switches: one per core from
/// [`PARALLEL_MIN_NODES`] up, else one.
pub(crate) fn setup_workers(n: usize) -> usize {
    if n < PARALLEL_MIN_NODES {
        return 1;
    }
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Runs `f` on every part, the first on the calling thread and each other
/// on a scoped thread of its own, and returns the results in part order.
/// One part runs inline and spawns nothing. A worker's panic propagates.
pub(crate) fn split_run<P: Send, R: Send>(parts: Vec<P>, f: impl Fn(P) -> R + Sync) -> Vec<R> {
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|s| {
        let rest: Vec<_> = parts.map(|p| s.spawn(move || f(p))).collect();
        let mut out = vec![f(first)];
        out.extend(rest.into_iter().map(|h| match h.join() {
            Ok(r) => r,
            Err(panic) => std::panic::resume_unwind(panic),
        }));
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology {
        let mut t = Topology::new("triangle");
        let a = t.add_node(NodeKind::Tor, 2);
        let b = t.add_node(NodeKind::Tor, 2);
        let c = t.add_node(NodeKind::Tor, 2);
        t.add_link(a, b);
        t.add_link(b, c);
        t.add_link(c, a);
        t
    }

    #[test]
    fn basic_counts() {
        let t = triangle();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_links(), 3);
        assert_eq!(t.num_servers(), 6);
        assert_eq!(t.degree(0), 2);
        assert!((t.total_capacity() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn link_other_endpoint() {
        let t = triangle();
        let l = t.link(0);
        assert_eq!(l.other(l.a), l.b);
        assert_eq!(l.other(l.b), l.a);
    }

    #[test]
    #[should_panic]
    fn link_other_panics_on_foreign_node() {
        let t = triangle();
        t.link(0).other(2); // link 0 joins nodes 0 and 1
    }

    #[test]
    fn bfs_on_path() {
        let mut t = Topology::new("path");
        let n: Vec<_> = (0..5).map(|_| t.add_node(NodeKind::Tor, 1)).collect();
        for w in n.windows(2) {
            t.add_link(w[0], w[1]);
        }
        let d = t.bfs_distances(0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_detected() {
        let mut t = Topology::new("two islands");
        let a = t.add_node(NodeKind::Tor, 1);
        let b = t.add_node(NodeKind::Tor, 1);
        t.add_node(NodeKind::Tor, 1);
        t.add_link(a, b);
        assert!(!t.is_connected());
        assert_eq!(t.bfs_distances(0)[2], u32::MAX);
    }

    #[test]
    fn parallel_links_counted() {
        let mut t = Topology::new("multi");
        let a = t.add_node(NodeKind::Tor, 1);
        let b = t.add_node(NodeKind::Tor, 1);
        t.add_link(a, b);
        t.add_link(a, b);
        assert_eq!(t.multiplicity(a, b), 2);
        assert_eq!(t.degree(a), 2);
        assert_eq!(t.num_links(), 2);
    }

    #[test]
    fn groups_default_none() {
        let mut t = triangle();
        assert_eq!(t.group(0), None);
        t.set_group(0, 7);
        assert_eq!(t.group(0), Some(7));
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut t = Topology::new("loop");
        let a = t.add_node(NodeKind::Tor, 1);
        t.add_link(a, a);
    }

    #[test]
    fn without_links_preserves_nodes() {
        let mut t = triangle();
        t.set_group(1, 3);
        let survivor = t.without_links(&[0]).unwrap();
        assert_eq!(survivor.num_nodes(), 3);
        assert_eq!(survivor.num_links(), 2);
        assert_eq!(survivor.num_servers(), 6);
        assert_eq!(survivor.group(1), Some(3));
        assert!(!survivor.are_adjacent(0, 1));
    }

    #[test]
    fn without_links_reports_disconnection() {
        let mut t = Topology::new("path2");
        let a = t.add_node(NodeKind::Tor, 1);
        let b = t.add_node(NodeKind::Tor, 1);
        t.add_link(a, b);
        let err = t.without_links(&[0]).unwrap_err();
        assert_eq!(err.removed, 1);
        assert_eq!(err.example_cut, (0, 1));
        assert!(err.to_string().contains("disconnected"));
    }

    #[test]
    fn largest_component_keeps_heavier_side() {
        // 0-1-2 (3 servers) and 3-4 (2 servers), then cut nothing vs cut all.
        let mut t = Topology::new("split");
        for _ in 0..5 {
            t.add_node(NodeKind::Tor, 1);
        }
        t.add_link(0, 1);
        t.add_link(1, 2);
        t.add_link(3, 4);
        let kept = t.without_links_largest_component(&[]);
        assert_eq!(kept.num_nodes(), 5);
        assert_eq!(kept.num_servers(), 3); // 3-4 side zeroed out
        assert_eq!(kept.num_links(), 2); // 3-4 link dropped
        assert_eq!(kept.servers_at(3), 0);
    }

    #[test]
    fn random_failures_deterministic_and_sized() {
        // A dense graph tolerates 20% failures.
        let mut t = Topology::new("k6");
        for _ in 0..6 {
            t.add_node(NodeKind::Tor, 1);
        }
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                t.add_link(a, b);
            }
        }
        let f1 = t.with_random_failures(0.2, 5);
        let f2 = t.with_random_failures(0.2, 5);
        assert_eq!(f1.num_links(), 12); // 15 - round(3)
        let e1: Vec<_> = f1.links().iter().map(|l| (l.a, l.b)).collect();
        let e2: Vec<_> = f2.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(e1, e2);
        assert!(f1.is_connected());
    }

    #[test]
    fn zero_failures_is_identity() {
        let t = triangle();
        let f = t.with_random_failures(0.0, 1);
        assert_eq!(f.num_links(), 3);
    }

    #[test]
    fn json_round_trip() {
        let mut t = triangle();
        t.set_group(0, 4);
        let j = t.to_json();
        let back = Topology::from_json(&dcn_json::Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back.name(), t.name());
        assert_eq!(back.num_nodes(), t.num_nodes());
        assert_eq!(back.num_links(), t.num_links());
        assert_eq!(back.num_servers(), t.num_servers());
        assert_eq!(back.group(0), Some(4));
        assert_eq!(back.group(1), None);
        let e1: Vec<_> = t.links().iter().map(|l| (l.a, l.b)).collect();
        let e2: Vec<_> = back.links().iter().map(|l| (l.a, l.b)).collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn from_json_rejects_bad_links() {
        let j = dcn_json::Json::parse(
            r#"{"name":"x","kinds":["Tor","Tor"],"servers":[1,1],"links":[{"a":0,"b":9}]}"#,
        )
        .unwrap();
        assert!(Topology::from_json(&j).is_err());
    }

    #[test]
    fn apsp_symmetric() {
        let t = triangle();
        let d = t.hop_distances();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(d.get(i, j), d.get(j, i));
            }
        }
    }

    /// Asserts that the bit-parallel all-pairs kernel, as
    /// [`Topology::hop_distances`] runs it and with its rows split into 1,
    /// 2, 3 and 8 blocks, equals one `bfs_distances` per source on every
    /// pair.
    fn assert_hop_distances_match_bfs(t: &Topology) {
        let bfs: Vec<Vec<u32>> = t.nodes().map(|s| t.bfs_distances(s)).collect();
        let mut runs = vec![("default".to_string(), t.hop_distances())];
        for w in [1, 2, 3, 8] {
            runs.push((format!("{w} blocks"), t.hop_distances_on(w)));
        }
        for (how, hd) in runs {
            let name = format!("{} ({how})", t.name());
            assert_eq!(hd.as_slice().len(), t.num_nodes() * t.num_nodes());
            for s in t.nodes() {
                let bfs = &bfs[s as usize];
                let widened: Vec<u32> = hd
                    .row(s)
                    .iter()
                    .map(|&d| match d {
                        HopDistances::UNREACHABLE => u32::MAX,
                        d => d as u32,
                    })
                    .collect();
                assert_eq!(widened, *bfs, "{name}: row {s}");
                for (v, &d) in bfs.iter().enumerate() {
                    assert_eq!(hd.get(s, v as u32), d, "{name}: ({s}, {v})");
                }
            }
        }
    }

    /// `n` nodes on a ring plus seeded random chords, parallel links
    /// included; `n` = 1 has neither.
    fn ring_with_chords(n: u32, chords: u32, seed: u64) -> Topology {
        let mut t = Topology::new(format!("ring{n}+{chords}"));
        for _ in 0..n {
            t.add_node(NodeKind::Tor, 1);
        }
        if n >= 2 {
            for v in 0..n {
                t.add_link(v, (v + 1) % n);
            }
            let mut rng = dcn_rng::Rng::seed_from_u64(seed);
            for _ in 0..chords {
                let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if a != b {
                    t.add_link(a, b);
                }
            }
        }
        t
    }

    /// Every generator: the kernel equals per-source BFS. The last
    /// Xpander (517 switches) is above `PARALLEL_MIN_NODES`, and 517 rows
    /// leave a ragged last block for every split.
    #[test]
    fn hop_distances_match_bfs_on_generators() {
        use crate::{
            dragonfly::Dragonfly, fattree::FatTree, jellyfish::Jellyfish, longhop::Longhop,
            slimfly::SlimFly, toy::ToyFig4, xpander::Xpander,
        };
        for t in [
            FatTree::full(4).build(),
            FatTree::full(8).build(),
            FatTree::oversubscribed_core(8, 2).build(),
            Xpander::paper_sec6(1).build(),
            Xpander::new(4, 13, 1, 3).build(), // 65 switches
            Jellyfish::new(50, 5, 2, 7).build(),
            SlimFly::new(5, 1).build(),
            Longhop::greedy(6, 8, 1).build(),
            Dragonfly::balanced(2).build(),
            ToyFig4::build().topology,
            Xpander::new(10, 47, 1, 4).build(), // 517 switches
        ] {
            assert_hop_distances_match_bfs(&t);
        }
    }

    /// Word-boundary sizes, parallel links, and partitioned survivors whose
    /// unreachable pairs must stay `u32::MAX`, below and above
    /// `PARALLEL_MIN_NODES`.
    #[test]
    fn hop_distances_match_bfs_on_edge_cases() {
        use crate::xpander::Xpander;
        for n in [1u32, 2, 63, 64, 65, 129, 577] {
            assert_hop_distances_match_bfs(&ring_with_chords(n, n / 4, n as u64));
        }
        let mut multi = ring_with_chords(40, 0, 0);
        for v in (0..40).step_by(3) {
            multi.add_link(v, (v + 1) % 40);
            multi.add_link(v, (v + 7) % 40);
        }
        assert!(multi.multiplicity(0, 1) >= 2);
        assert_hop_distances_match_bfs(&multi);

        // Cut every link of some switches: they survive as isolated nodes.
        // At 618 switches they sit in the first, a middle and the last
        // block of every split.
        for (x, isolated) in [
            (Xpander::new(5, 14, 1, 2), vec![0, 70]), // 84 switches
            (Xpander::new(5, 103, 1, 2), vec![0, 300, 617]), // 618 switches
        ] {
            let t = x.build();
            let cut: Vec<u32> = (0..t.num_links() as u32)
                .filter(|&l| isolated.contains(&t.link(l).a) || isolated.contains(&t.link(l).b))
                .collect();
            let survivor = t.without_links_largest_component(&cut);
            assert_hop_distances_match_bfs(&survivor);
            let hd = survivor.hop_distances();
            for &v in &isolated {
                assert_eq!(survivor.degree(v), 0);
                assert_eq!(hd.get(v, v), 0);
                let unreachable = hd
                    .row(v)
                    .iter()
                    .filter(|&&d| d == HopDistances::UNREACHABLE)
                    .count();
                assert_eq!(unreachable, t.num_nodes() - 1);
            }
            assert!(hd.get(1, 2) < u32::MAX);
        }
    }

    /// The `u8` matrix's boundary: a 508-node ring (diameter 254, the
    /// largest storable distance) matches BFS, split or not.
    #[test]
    fn hop_distances_hold_diameter_254() {
        let t = ring_with_chords(508, 0, 0);
        assert_hop_distances_match_bfs(&t);
        assert_eq!(t.hop_distances().get(0, 254), 254);
    }

    /// A 510-node ring has diameter 255, which would collide with the
    /// unreachable marker.
    #[test]
    #[should_panic(expected = "hop distances of 255 or more do not fit the u8 matrix")]
    fn hop_distances_refuse_diameter_255() {
        ring_with_chords(510, 0, 0).hop_distances();
    }
}
