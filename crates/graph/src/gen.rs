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
    rmat_with_par(scale, edge_factor, a, b, c, seed, 1)
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
/// destination bit. The `scale` levels consume **exactly `scale` draws** —
/// the invariant [`rmat_par`] relies on to jump workers to their chunk
/// offsets.
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

/// [`rmat`] computed on `threads` worker threads, **bit-identical** to the
/// serial generator for every thread count.
///
/// Edge `e` of the serial stream consumes draws `[e * scale, (e + 1) *
/// scale)` of the seeded generator; [`DetRng::skip`] jumps a worker's
/// generator to its chunk boundary in O(1), so each worker writes exactly
/// the edges the serial loop would have produced at those indices into its
/// slice of the edge list. One stable counting sort by source then gives
/// the identical CSR.
///
/// # Panics
///
/// Panics if `scale > MAX_RMAT_SCALE`.
///
/// # Examples
///
/// ```
/// let serial = batmem_graph::gen::rmat(8, 8, 42);
/// let parallel = batmem_graph::gen::rmat_par(8, 8, 42, 4);
/// assert_eq!(serial, parallel);
/// ```
pub fn rmat_par(scale: u32, edge_factor: u32, seed: u64, threads: usize) -> Csr {
    rmat_with_par(scale, edge_factor, 0.57, 0.19, 0.19, seed, threads)
}

/// [`rmat_with`] on `threads` worker threads; see [`rmat_par`].
///
/// # Panics
///
/// Panics if the probabilities are not a valid sub-distribution, or if
/// `scale > MAX_RMAT_SCALE`.
pub fn rmat_with_par(
    scale: u32,
    edge_factor: u32,
    a: f64,
    b: f64,
    c: f64,
    seed: u64,
    threads: usize,
) -> Csr {
    assert!(a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0, "invalid R-MAT probabilities");
    assert!(scale <= MAX_RMAT_SCALE, "R-MAT scale {scale} exceeds the maximum {MAX_RMAT_SCALE}");
    let t = Thresholds { a, ab: a + b, abc: a + b + c };
    let n: u32 = 1 << scale;
    let m = usize::try_from(u64::from(edge_factor) * u64::from(n))
        .expect("R-MAT edge count exceeds the address space");
    let mut srcs = vec![0u32; m];
    let mut dsts = vec![0u32; m];
    // Fills the edges starting at serial index `e0`.
    let fill = |e0: usize, srcs: &mut [u32], dsts: &mut [u32]| {
        let mut rng = DetRng::new(seed);
        rng.skip(e0 as u64 * u64::from(scale));
        for (s, d) in srcs.iter_mut().zip(dsts.iter_mut()) {
            (*s, *d) = rmat_edge(&mut rng, scale, t);
        }
    };
    let workers = threads.clamp(1, m.max(1));
    if workers == 1 {
        fill(0, &mut srcs, &mut dsts);
    } else {
        let per = m.div_ceil(workers);
        std::thread::scope(|scope| {
            for (i, (s, d)) in srcs.chunks_mut(per).zip(dsts.chunks_mut(per)).enumerate() {
                scope.spawn(move || fill(i * per, s, d));
            }
        });
    }
    CsrBuilder::from_edge_lists(n, srcs, dsts).build()
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
    rmat_weighted_par(scale, edge_factor, max_weight, seed, 1)
}

/// [`rmat_weighted`] on `threads` worker threads, bit-identical to the
/// serial generator (see [`rmat_par`]).
///
/// The weight pass consumes exactly two raw draws per edge
/// ([`DetRng::range_inclusive`]) in CSR order, so workers jump to
/// `2 × edges-before-their-vertex-range` and weight disjoint vertex ranges
/// independently.
pub fn rmat_weighted_par(
    scale: u32,
    edge_factor: u32,
    max_weight: u32,
    seed: u64,
    threads: usize,
) -> Csr {
    let unweighted = rmat_par(scale, edge_factor, seed, threads);
    let n = unweighted.num_vertices();
    let m = unweighted.num_edges();
    let weights: Vec<u32> = if threads <= 1 || m < 2 {
        let mut rng = DetRng::new(seed ^ 0x5eed);
        (0..m).map(|_| rng.range_inclusive(1, u64::from(max_weight)) as u32).collect()
    } else {
        // Split the vertex space so each worker owns a contiguous CSR edge
        // range; `skip` aligns its generator with the serial draw stream.
        let workers = threads.min(n.max(1) as usize);
        let cuts: Vec<u32> = (0..=workers as u64).map(|i| (i * u64::from(n) / workers as u64) as u32).collect();
        std::thread::scope(|scope| {
            let unweighted = &unweighted;
            let handles: Vec<_> = cuts
                .windows(2)
                .map(|w| {
                    let (v0, v1) = (w[0], w[1]);
                    scope.spawn(move || {
                        let edges_before: u64 =
                            (0..v0).map(|v| u64::from(unweighted.degree(v))).sum();
                        let mut rng = DetRng::new(seed ^ 0x5eed);
                        rng.skip(2 * edges_before);
                        let mut out = Vec::new();
                        for v in v0..v1 {
                            for _ in 0..unweighted.degree(v) {
                                out.push(rng.range_inclusive(1, u64::from(max_weight)) as u32);
                            }
                        }
                        out
                    })
                })
                .collect();
            let mut all = Vec::with_capacity(m as usize);
            for h in handles {
                all.extend(h.join().expect("weight worker panicked"));
            }
            all
        })
    };
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
    fn parallel_generator_checks_the_scale_too() {
        let _ = rmat_par(32, 1, 1, 2);
    }

    #[test]
    fn parallel_rmat_is_bit_identical_to_serial() {
        let serial = rmat(9, 6, 13);
        for threads in [1, 2, 3, 5, 8, 16] {
            assert_eq!(serial, rmat_par(9, 6, 13, threads), "threads = {threads}");
        }
        // Thread counts exceeding the edge count degrade gracefully.
        assert_eq!(rmat(2, 1, 3), rmat_par(2, 1, 3, 64));
    }

    #[test]
    fn parallel_weighted_rmat_is_bit_identical_to_serial() {
        let serial = rmat_weighted(8, 5, 16, 21);
        for threads in [2, 4, 7] {
            assert_eq!(serial, rmat_weighted_par(8, 5, 16, 21, threads), "threads = {threads}");
        }
    }
}
