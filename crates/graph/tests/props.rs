//! Property-based tests for the CSR substrate and reference algorithms.

use batmem_graph::{alg, gen, Csr, CsrBuilder};
use proptest::prelude::*;

/// Straightforward implementations the optimized generators and
/// algorithms must match exactly.
mod reference {
    use batmem_graph::{alg::KcoreResult, Csr, CsrBuilder};
    use batmem_types::rng::DetRng;

    /// R-MAT by recursive bisection with a four-way branch per level.
    pub fn rmat(scale: u32, edge_factor: u32, a: f64, b: f64, c: f64, seed: u64) -> Csr {
        let n = 1u32 << scale;
        let mut rng = DetRng::new(seed);
        let mut builder = CsrBuilder::new(n);
        for _ in 0..u64::from(edge_factor) * u64::from(n) {
            let (mut lo_s, mut hi_s) = (0u32, n);
            let (mut lo_d, mut hi_d) = (0u32, n);
            while hi_s - lo_s > 1 {
                let mid_s = lo_s + (hi_s - lo_s) / 2;
                let mid_d = lo_d + (hi_d - lo_d) / 2;
                let r: f64 = rng.next_f64();
                if r < a {
                    hi_s = mid_s;
                    hi_d = mid_d;
                } else if r < a + b {
                    hi_s = mid_s;
                    lo_d = mid_d;
                } else if r < a + b + c {
                    lo_s = mid_s;
                    hi_d = mid_d;
                } else {
                    lo_s = mid_s;
                    lo_d = mid_d;
                }
            }
            builder = builder.edge(lo_s, lo_d);
        }
        builder.build()
    }

    /// Symmetrization by sorting and deduplicating both directions of
    /// every loop-free edge.
    pub fn symmetrized(g: &Csr) -> Csr {
        let mut pairs = Vec::new();
        for v in 0..g.num_vertices() {
            for &t in g.neighbors(v) {
                if t != v {
                    pairs.push((v, t));
                    pairs.push((t, v));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        CsrBuilder::new(g.num_vertices()).edges(pairs).build()
    }

    /// K-core peeling that rescans every vertex each round.
    pub fn kcore(g: &Csr) -> KcoreResult {
        let n = g.num_vertices() as usize;
        let mut deg: Vec<u32> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        let mut removed = vec![false; n];
        let mut coreness = vec![0u32; n];
        let mut peel_rounds = Vec::new();
        let mut k = 1u32;
        let mut remaining = n;
        while remaining > 0 {
            let round: Vec<u32> =
                (0..n as u32).filter(|&v| !removed[v as usize] && deg[v as usize] < k).collect();
            if round.is_empty() {
                k += 1;
                continue;
            }
            for &v in &round {
                removed[v as usize] = true;
                coreness[v as usize] = k - 1;
                remaining -= 1;
                for &t in g.neighbors(v) {
                    if !removed[t as usize] && deg[t as usize] > 0 {
                        deg[t as usize] -= 1;
                    }
                }
            }
            peel_rounds.push(round);
        }
        KcoreResult { coreness, peel_rounds }
    }
}

/// R-MAT quadrant probabilities `(a, b, c)`: the Graph500 point, sums that
/// round in f64, and exact 64ths including zero-probability quadrants and
/// `a + b + c == 1`.
fn rmat_probabilities() -> impl Strategy<Value = (f64, f64, f64)> {
    fn sixty_fourths() -> impl Strategy<Value = (f64, f64, f64)> {
        (0u32..=64).prop_flat_map(|a| {
            (0u32..=64 - a).prop_flat_map(move |b| {
                (0u32..=64 - a - b).prop_map(move |c| {
                    (f64::from(a) / 64.0, f64::from(b) / 64.0, f64::from(c) / 64.0)
                })
            })
        })
    }
    prop_oneof![
        Just((0.57, 0.19, 0.19)),
        Just((0.1, 0.2, 0.3)),
        Just((0.45, 0.15, 0.15)),
        Just((0.25, 0.25, 0.5)),
        sixty_fourths(),
        sixty_fourths(),
    ]
}

fn directed(n: u32, edges: &[(u32, u32)]) -> Csr {
    CsrBuilder::new(n).edges(edges.iter().copied()).build()
}

fn edge_list() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2u32..64).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..256);
        (Just(n), edges)
    })
}

proptest! {
    #[test]
    fn rmat_matches_the_branchy_reference(
        scale in 0u32..=12,
        edge_factor in 0u32..=8,
        (a, b, c) in rmat_probabilities(),
        seed in 0u64..u64::MAX,
    ) {
        let expect = reference::rmat(scale, edge_factor, a, b, c, seed);
        prop_assert_eq!(gen::rmat_with(scale, edge_factor, a, b, c, seed), expect);
    }

    #[test]
    fn symmetrized_matches_the_sorting_reference((n, edges) in edge_list()) {
        let g = directed(n, &edges);
        prop_assert_eq!(g.symmetrized(), reference::symmetrized(&g));
    }

    #[test]
    fn kcore_matches_the_scanning_reference((n, edges) in edge_list()) {
        // Symmetric inputs, as the workloads pass, and directed
        // multigraphs with self-loops.
        let g = directed(n, &edges);
        for g in [g.symmetrized(), g] {
            prop_assert_eq!(alg::kcore(&g), reference::kcore(&g));
        }
    }

    #[test]
    fn builder_preserves_edge_multiset((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        let mut expect = edges.clone();
        expect.sort_unstable();
        let mut got: Vec<(u32, u32)> = Vec::new();
        for v in 0..n {
            for &t in g.neighbors(v) {
                got.push((v, t));
            }
        }
        got.sort_unstable();
        prop_assert_eq!(got, expect);
        g.check_invariants().unwrap();
    }

    #[test]
    fn degree_sum_equals_edge_count((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let sum: u64 = (0..n).map(|v| u64::from(g.degree(v))).sum();
        prop_assert_eq!(sum, g.num_edges());
    }

    #[test]
    fn symmetrized_is_symmetric_and_loop_free((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let s = g.symmetrized();
        s.check_invariants().unwrap();
        for v in 0..n {
            for &t in s.neighbors(v) {
                prop_assert_ne!(t, v, "self loop survived");
                prop_assert!(s.neighbors(t).contains(&v), "missing reverse edge {}->{}", t, v);
            }
            // Deduplicated adjacency.
            let mut ns = s.neighbors(v).to_vec();
            let before = ns.len();
            ns.sort_unstable();
            ns.dedup();
            prop_assert_eq!(ns.len(), before);
        }
    }

    #[test]
    fn bfs_levels_are_shortest_path_consistent((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let r = alg::bfs(&g, 0);
        // Triangle inequality on edges: level[t] <= level[v] + 1 for
        // reached v.
        for v in 0..n {
            if r.levels[v as usize] == u32::MAX {
                continue;
            }
            for &t in g.neighbors(v) {
                prop_assert!(r.levels[t as usize] <= r.levels[v as usize] + 1);
            }
        }
        prop_assert_eq!(r.levels[0], 0);
    }

    #[test]
    fn sssp_dominated_by_bfs_hops((n, edges) in edge_list()) {
        // With unit weights, sssp == bfs distance.
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let b = alg::bfs(&g, 0);
        let s = alg::sssp(&g, 0);
        for v in 0..n as usize {
            if b.levels[v] == u32::MAX {
                prop_assert_eq!(s.dist[v], u64::MAX);
            } else {
                prop_assert_eq!(s.dist[v], u64::from(b.levels[v]));
            }
        }
    }

    #[test]
    fn coloring_proper_on_symmetrized((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build().symmetrized();
        let c = alg::coloring(&g);
        for v in 0..n {
            for &t in g.neighbors(v) {
                prop_assert_ne!(c.colors[v as usize], c.colors[t as usize]);
            }
        }
        let colored: usize = c.rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(colored, n as usize);
    }

    #[test]
    fn kcore_rounds_partition_vertices((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build().symmetrized();
        let r = alg::kcore(&g);
        let total: usize = r.peel_rounds.iter().map(Vec::len).sum();
        prop_assert_eq!(total, n as usize);
        // Coreness bounded by degree.
        for v in 0..n {
            prop_assert!(r.coreness[v as usize] <= g.degree(v));
        }
    }

    #[test]
    fn pagerank_is_a_distribution((n, edges) in edge_list()) {
        let g = CsrBuilder::new(n).edges(edges.iter().copied()).build();
        let r = alg::pagerank(&g, 10);
        let sum: f64 = r.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-6, "sum = {}", sum);
        prop_assert!(r.iter().all(|&x| x >= 0.0));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn kcore_matches_the_scanning_reference_on_rmat(
        scale in 2u32..=10,
        edge_factor in 1u32..=16,
        seed in 0u64..u64::MAX,
    ) {
        let g = gen::rmat(scale, edge_factor, seed).symmetrized();
        prop_assert_eq!(alg::kcore(&g), reference::kcore(&g));
    }
}
