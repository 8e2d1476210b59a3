//! Deterministic graph generators.
//!
//! All generators are seeded and reproducible across platforms (they use
//! [`batmem_types::rng::DetRng`], whose output is stable for a given seed).

use crate::csr::{Csr, CsrBuilder};
use batmem_types::rng::DetRng;

/// Largest R-MAT scale the generators accept: vertex ids are `u32`, so
/// `2^scale` vertices must fit in one.
pub const MAX_RMAT_SCALE: u32 = 31;

/// Generates an R-MAT (recursive-matrix / Kronecker) graph with `2^scale`
/// vertices and `edge_factor * 2^scale` directed edges, using the standard
/// Graph500 partition probabilities (a, b, c, d) = (0.57, 0.19, 0.19, 0.05).
///
/// R-MAT graphs have heavy-tailed degree distributions like the social and
/// web graphs the paper's irregular workloads target.
///
/// # Panics
///
/// Panics if `scale > MAX_RMAT_SCALE`.
///
/// # Examples
///
/// ```
/// let g = batmem_graph::gen::rmat(8, 8, 42);
/// assert_eq!(g.num_vertices(), 256);
/// assert_eq!(g.num_edges(), 2048);
/// ```
pub fn rmat(scale: u32, edge_factor: u32, seed: u64) -> Csr {
    rmat_with(scale, edge_factor, 0.57, 0.19, 0.19, seed)
}

/// [`rmat`] with explicit quadrant probabilities `a`, `b`, `c`
/// (`d = 1 - a - b - c`).
///
/// # Panics
///
/// Panics if the probabilities are not a valid sub-distribution, or if
/// `scale > MAX_RMAT_SCALE`.
pub fn rmat_with(scale: u32, edge_factor: u32, a: f64, b: f64, c: f64, seed: u64) -> Csr {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0, "invalid R-MAT probabilities");
    assert!(scale <= MAX_RMAT_SCALE, "R-MAT scale {scale} exceeds the maximum {MAX_RMAT_SCALE}");
    let t = Thresholds { a, ab: a + b, abc: a + b + c };
    let n: u32 = 1 << scale;
    let m = usize::try_from(u64::from(edge_factor) * u64::from(n))
        .expect("R-MAT edge count exceeds the address space");
    let mut srcs = vec![0u32; m];
    let mut dsts = vec![0u32; m];
    let mut rng = DetRng::new(seed);
    for (s, d) in srcs.iter_mut().zip(dsts.iter_mut()) {
        (*s, *d) = rmat_edge(&mut rng, scale, t);
    }
    CsrBuilder::from_edge_lists(n, srcs, dsts).build()
}

/// Cumulative quadrant thresholds `a`, `a + b` and `a + b + c`, evaluated
/// once with the same f64 expressions (and so the same roundings) that a
/// per-level `r < a`, `r < a + b`, `r < a + b + c` chain evaluates.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    a: f64,
    ab: f64,
    abc: f64,
}

/// One R-MAT edge. Each level draws `r` once and picks the quadrant
/// `q = [r >= a] + [r >= a + b] + [r >= a + b + c]` without branching; the
/// high bit of `q` is the level's source bit and the low bit its
/// destination bit. The `scale` levels consume exactly `scale` draws.
fn rmat_edge(rng: &mut DetRng, scale: u32, t: Thresholds) -> (u32, u32) {
    let (mut src, mut dst) = (0u32, 0u32);
    for _ in 0..scale {
        let r = rng.next_f64();
        let q = u32::from(r >= t.a) + u32::from(r >= t.ab) + u32::from(r >= t.abc);
        src = (src << 1) | (q >> 1);
        dst = (dst << 1) | (q & 1);
    }
    (src, dst)
}

/// Generates a uniform random directed graph with `n` vertices and `m` edges.
///
/// # Examples
///
/// ```
/// let g = batmem_graph::gen::uniform(100, 500, 1);
/// assert_eq!(g.num_edges(), 500);
/// ```
pub fn uniform(n: u32, m: u64, seed: u64) -> Csr {
    assert!(n > 0, "uniform graph needs at least one vertex");
    let mut rng = DetRng::new(seed);
    let mut builder = CsrBuilder::new(n);
    for _ in 0..m {
        let s = rng.below(u64::from(n)) as u32;
        let d = rng.below(u64::from(n)) as u32;
        builder = builder.edge(s, d);
    }
    builder.build()
}

/// Generates a weighted variant of [`rmat`]; weights are uniform in
/// `1..=max_weight` (for SSSP).
pub fn rmat_weighted(scale: u32, edge_factor: u32, max_weight: u32, seed: u64) -> Csr {
    let unweighted = rmat(scale, edge_factor, seed);
    let mut rng = DetRng::new(seed ^ 0x5eed);
    let weights: Vec<u32> = (0..unweighted.num_edges())
        .map(|_| rng.range_inclusive(1, u64::from(max_weight)) as u32)
        .collect();
    unweighted.with_weights(weights)
}

/// Generates a 4-connected 2-D grid of `width × height` vertices
/// (bidirectional edges). Grids are the regular-access foil used in tests.
pub fn grid2d(width: u32, height: u32) -> Csr {
    let n = width
        .checked_mul(height)
        .expect("grid dimensions overflow");
    let mut builder = CsrBuilder::new(n);
    let at = |x: u32, y: u32| y * width + x;
    for y in 0..height {
        for x in 0..width {
            let v = at(x, y);
            if x + 1 < width {
                builder = builder.edge(v, at(x + 1, y)).edge(at(x + 1, y), v);
            }
            if y + 1 < height {
                builder = builder.edge(v, at(x, y + 1)).edge(at(x, y + 1), v);
            }
        }
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_is_deterministic_per_seed() {
        let a = rmat(8, 4, 7);
        let b = rmat(8, 4, 7);
        let c = rmat(8, 4, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn rmat_has_heavy_tail() {
        let g = rmat(10, 8, 3);
        let max_deg = (0..g.num_vertices()).map(|v| g.degree(v)).max().unwrap();
        let mean = g.num_edges() / u64::from(g.num_vertices());
        // A power-law graph's max degree far exceeds its mean degree.
        assert!(u64::from(max_deg) > mean * 5, "max {max_deg} mean {mean}");
    }

    #[test]
    fn uniform_counts_and_determinism() {
        let g = uniform(64, 256, 9);
        assert_eq!(g.num_vertices(), 64);
        assert_eq!(g.num_edges(), 256);
        assert_eq!(g, uniform(64, 256, 9));
        g.check_invariants().unwrap();
    }

    #[test]
    fn weighted_rmat_weights_in_range() {
        let g = rmat_weighted(7, 4, 16, 5);
        assert!(g.is_weighted());
        for v in 0..g.num_vertices() {
            for &w in g.weights_of(v) {
                assert!((1..=16).contains(&w));
            }
        }
    }

    #[test]
    fn weighted_rmat_preserves_structure() {
        let g = rmat(7, 4, 5);
        let w = rmat_weighted(7, 4, 16, 5);
        assert_eq!(g.num_edges(), w.num_edges());
        for v in 0..g.num_vertices() {
            assert_eq!(g.neighbors(v), w.neighbors(v));
        }
    }

    #[test]
    fn grid_degrees() {
        let g = grid2d(4, 3);
        assert_eq!(g.num_vertices(), 12);
        // Corner has degree 2, edge 3, interior 4.
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 3);
        assert_eq!(g.degree(5), 4);
        g.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid R-MAT probabilities")]
    fn bad_probabilities_panic() {
        let _ = rmat_with(4, 2, 0.9, 0.2, 0.2, 0);
    }

    #[test]
    #[should_panic(expected = "R-MAT scale 40 exceeds the maximum 31")]
    fn oversized_scale_panics_instead_of_wrapping() {
        // `1u32 << 40` would wrap to a 256-vertex graph in a release build.
        let _ = rmat(40, 1, 1);
    }

    #[test]
    #[should_panic(expected = "R-MAT scale 32 exceeds")]
    fn scale_one_past_the_maximum_panics() {
        let _ = rmat(32, 1, 1);
    }
}
