//! Slim Fly: the MMS (McKay–Miller–Širáň) diameter-2 topology
//! (Besta & Hoefler, SC 2014), built over the prime field GF(q).
//!
//! For a prime `q ≡ 1 (mod 4)` the network has `2q²` switches of network
//! degree `(3q−1)/2`. The paper's Fig 5a uses `q = 17`: 578 ToRs with 25
//! network ports and 24 servers each.

use crate::graph::{NodeId, NodeKind, Topology};

/// Slim Fly configuration over GF(q), q prime with q ≡ 1 (mod 4).
#[derive(Clone, Copy, Debug)]
pub struct SlimFly {
    pub q: u32,
    pub servers_per_switch: u32,
}

impl SlimFly {
    pub fn new(q: u32, servers_per_switch: u32) -> Self {
        assert!(is_prime(q), "q = {q} must be prime");
        assert!(
            q % 4 == 1,
            "this construction requires q ≡ 1 (mod 4), got {q}"
        );
        SlimFly {
            q,
            servers_per_switch,
        }
    }

    /// The paper's Fig 5a instance: q=17 ⇒ 578 ToRs, 25 network ports,
    /// 24 servers per ToR.
    pub fn paper_fig5a() -> Self {
        Self::new(17, 24)
    }

    pub fn num_switches(&self) -> usize {
        2 * (self.q as usize) * (self.q as usize)
    }

    /// Network degree of every switch: (3q−1)/2.
    pub fn net_degree(&self) -> usize {
        (3 * self.q as usize - 1) / 2
    }

    /// Builds the MMS graph. Vertices are (subgraph, x, y): subgraph 0
    /// holds "routers" (0,x,y), subgraph 1 holds (1,m,c). Node id layout:
    /// subgraph·q² + x·q + y. `group(node)` is `x` (resp. `q + m`),
    /// i.e. the natural column grouping used for cabling.
    pub fn build(&self) -> Topology {
        let q = self.q;
        let qi = q as u64;
        let xi = primitive_root(q) as u64;

        // Generator sets: X = even powers of ξ (quadratic residues),
        // X' = odd powers. Both are symmetric since −1 is a QR for q≡1 mod 4.
        let mut x_set = vec![false; q as usize];
        let mut xp_set = vec![false; q as usize];
        let mut p = 1u64;
        for i in 0..(qi - 1) {
            if i % 2 == 0 {
                x_set[p as usize] = true;
            } else {
                xp_set[p as usize] = true;
            }
            p = p * xi % qi;
        }

        let mut t = Topology::new(format!("slimfly(q={q}, s={})", self.servers_per_switch));
        let id = |s: u32, a: u32, b: u32| -> NodeId { s * q * q + a * q + b };
        for s in 0..2 {
            for a in 0..q {
                for b in 0..q {
                    let n = t.add_node(NodeKind::Tor, self.servers_per_switch);
                    t.set_group(n, s * q + a);
                    debug_assert_eq!(n, id(s, a, b));
                }
            }
        }

        // Intra-column edges.
        for a in 0..q {
            for y in 0..q {
                for yp in (y + 1)..q {
                    let diff = ((yp + q) - y) % q;
                    if x_set[diff as usize] {
                        t.add_link(id(0, a, y), id(0, a, yp));
                    }
                    if xp_set[diff as usize] {
                        t.add_link(id(1, a, y), id(1, a, yp));
                    }
                }
            }
        }
        // Cross edges: (0,x,y) ~ (1,m,c) iff y = m·x + c (mod q).
        for x in 0..q as u64 {
            for m in 0..q as u64 {
                for c in 0..q as u64 {
                    let y = (m * x + c) % qi;
                    t.add_link(id(0, x as u32, y as u32), id(1, m as u32, c as u32));
                }
            }
        }
        t
    }
}

fn is_prime(n: u32) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u32;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

/// Smallest primitive root modulo a prime `q`.
fn primitive_root(q: u32) -> u32 {
    let phi = (q - 1) as u64;
    let mut factors = Vec::new();
    let mut m = phi;
    let mut d = 2u64;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'outer: for g in 2..q as u64 {
        for &f in &factors {
            if pow_mod(g, phi / f, q as u64) == 1 {
                continue 'outer;
            }
        }
        return g as u32;
    }
    unreachable!("no primitive root found for prime {q}");
}

fn pow_mod(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut r = 1u64;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            r = r * b % m;
        }
        b = b * b % m;
        e >>= 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn q5_shape() {
        let sf = SlimFly::new(5, 4);
        let t = sf.build();
        assert_eq!(t.num_nodes(), 50);
        assert_eq!(sf.net_degree(), 7);
        for n in 0..50u32 {
            assert_eq!(t.degree(n), 7, "node {n}");
        }
        assert!(t.is_connected());
    }

    #[test]
    fn q5_diameter_two() {
        let t = SlimFly::new(5, 1).build();
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 2);
    }

    #[test]
    fn q13_regular_diameter_two() {
        let sf = SlimFly::new(13, 12);
        let t = sf.build();
        assert_eq!(t.num_nodes(), 338);
        for n in 0..t.num_nodes() as u32 {
            assert_eq!(t.degree(n), 19);
        }
        let diam = t.hop_distances().as_slice().iter().max().copied().unwrap();
        assert_eq!(diam, 2);
    }

    #[test]
    fn paper_config_q17() {
        let sf = SlimFly::paper_fig5a();
        assert_eq!(sf.num_switches(), 578);
        assert_eq!(sf.net_degree(), 25);
        let t = sf.build();
        assert_eq!(t.num_nodes(), 578);
        assert_eq!(t.num_servers(), 578 * 24);
        for n in 0..578u32 {
            assert_eq!(t.degree(n), 25);
        }
    }

    #[test]
    fn primitive_roots() {
        assert_eq!(primitive_root(5), 2);
        assert_eq!(primitive_root(13), 2);
        assert_eq!(primitive_root(17), 3);
    }

    #[test]
    #[should_panic]
    fn rejects_q_not_1_mod_4() {
        SlimFly::new(7, 1);
    }
}
