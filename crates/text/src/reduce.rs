//! Dimensionality reduction — the UMAP stand-in.
//!
//! Before density clustering, the paper's pipeline reduces embeddings with
//! UMAP. We use PCA computed by power iteration with deflation: for this
//! corpus (lexically separated template families) a linear projection
//! preserves the cluster structure the density clusterer needs, and PCA is
//! deterministic and dependency-free.
//!
//! # Block layout and the bit-exactness contract
//!
//! Each power-iteration step makes two passes over the centered data: a
//! dot product per row (`p = row · v`) and a scaled add per row
//! (`w += p · row`). Row by row, every dot product is one sequential `f64`
//! add chain, so the loop stalls on add latency. [`pca_reduce`] therefore
//! stores the centered data once, flat, in blocks of `BLOCK` = 8 rows,
//! each block transposed: row `r`, column `j` of a block sits at
//! `j * BLOCK + r`. Per block, the kernel
//!
//! 1. runs the block's 8 dot products as independent chains, each
//!    starting at `-0.0` (the start value of `f64`'s `Sum`) and adding
//!    `row[j] * v[j]` over ascending `j`;
//! 2. adds the block's rows into `w` in row order, `w[j]` held in a
//!    register.
//!
//! Every output value thus sees exactly the IEEE-754 operations, in
//! exactly the order, of the plain row-by-row loop, and the results are
//! bit-identical to it (the tier-1 golden `tests/scam_kernels.rs` pins
//! them). Keeping it so rules out `mul_add` and any
//! reassociation. The zero rows padding the last block are never added
//! into `w` either: the plain loop has no such terms, and adding `±0.0`
//! is exact only while no `w[j]` holds `-0.0`. The final projection uses
//! the same dot-product kernel.

use foundation::rng::{Rng, RngExt, SeedableRng};
use foundation::rng::ChaCha8Rng;

/// Rows per block of the centered-data layout (see the module docs).
const BLOCK: usize = 8;

/// The centered data in the block layout of the module docs. Rows past
/// `n` in the last block are zero padding.
struct Blocked {
    data: Vec<f64>,
    n: usize,
    dim: usize,
}

impl Blocked {
    /// Center `data` on `mean` into the block layout.
    fn center(data: &[Vec<f32>], mean: &[f64]) -> Blocked {
        let (n, dim) = (data.len(), mean.len());
        let mut flat = vec![0.0f64; n.div_ceil(BLOCK) * BLOCK * dim];
        for (i, row) in data.iter().enumerate() {
            let block = &mut flat[(i / BLOCK) * BLOCK * dim..][..BLOCK * dim];
            for (j, (&x, m)) in row.iter().zip(mean).enumerate() {
                block[j * BLOCK + i % BLOCK] = f64::from(x) - m;
            }
        }
        Blocked { data: flat, n, dim }
    }

    /// Each block with its number of real (non-padding) rows.
    fn blocks(&self) -> impl Iterator<Item = (&[f64], usize)> + '_ {
        let len = BLOCK * self.dim;
        (0..self.n.div_ceil(BLOCK)).map(move |b| {
            let rows = (self.n - b * BLOCK).min(BLOCK);
            (&self.data[b * len..][..len], rows)
        })
    }
}

/// `row · v` for every row of one block, as `BLOCK` independent chains.
fn project(block: &[f64], v: &[f64]) -> [f64; BLOCK] {
    let mut acc = [-0.0f64; BLOCK];
    for (col, &vj) in block.chunks_exact(BLOCK).zip(v) {
        for (a, &x) in acc.iter_mut().zip(col) {
            *a += x * vj;
        }
    }
    acc
}

/// `w[j] += proj[r] * row_r[j]` for the block's first `proj.len()` rows,
/// in row order, `w[j]` held in a register.
#[inline(always)]
fn add_rows(w: &mut [f64], block: &[f64], proj: &[f64]) {
    for (wj, col) in w.iter_mut().zip(block.chunks_exact(BLOCK)) {
        let mut acc = *wj;
        for (p, x) in proj.iter().zip(col) {
            acc += p * x;
        }
        *wj = acc;
    }
}

/// Reduce `data` (rows = points) to `k` principal components.
///
/// Returns the projected points (rows of length `k`). `seed` initializes
/// the power iteration start vectors. Input rows must share one length.
///
/// # Panics
/// Panics if `data` is empty, rows are ragged, or `k` is zero.
pub fn pca_reduce(data: &[Vec<f32>], k: usize, seed: u64) -> Vec<Vec<f32>> {
    assert!(!data.is_empty(), "no data");
    assert!(k > 0, "k must be positive");
    let dim = data[0].len();
    assert!(data.iter().all(|r| r.len() == dim), "ragged rows");
    let k = k.min(dim);
    let n = data.len();

    // Center the data.
    let mut mean = vec![0.0f64; dim];
    for row in data {
        for (m, &x) in mean.iter_mut().zip(row) {
            *m += f64::from(x);
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    let centered = Blocked::center(data, &mean);

    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9CA0_0000_0000_000A);
    let mut components: Vec<Vec<f64>> = Vec::with_capacity(k);
    let mut w = vec![0.0f64; dim];
    let mut next = vec![0.0f64; dim];

    for _ in 0..k {
        let mut v = random_unit(&mut rng, dim);
        for _iter in 0..60 {
            // w = C^T C v  computed block by block without materializing C^T C.
            w.fill(0.0);
            for (block, rows) in centered.blocks() {
                let proj = project(block, &v);
                // A full block passes the whole array so the row loop
                // unrolls; a partial one passes only its real rows.
                if rows == BLOCK {
                    add_rows(&mut w, block, &proj);
                } else {
                    add_rows(&mut w, block, &proj[..rows]);
                }
            }
            // Deflate previously found components.
            for c in &components {
                let d: f64 = w.iter().zip(c).map(|(a, b)| a * b).sum();
                for (wi, &ci) in w.iter_mut().zip(c) {
                    *wi -= d * ci;
                }
            }
            let norm: f64 = w.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-12 {
                // Degenerate direction (rank exhausted); keep previous v.
                break;
            }
            for (x, &wi) in next.iter_mut().zip(&w) {
                *x = wi / norm;
            }
            // Convergence check.
            let delta: f64 = next
                .iter()
                .zip(&v)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            std::mem::swap(&mut v, &mut next);
            if delta < 1e-9 {
                break;
            }
        }
        components.push(v);
    }

    let mut out: Vec<Vec<f32>> = (0..n).map(|_| Vec::with_capacity(k)).collect();
    for ((block, rows), out) in centered.blocks().zip(out.chunks_mut(BLOCK)) {
        for c in &components {
            for (row, p) in out.iter_mut().zip(&project(block, c)[..rows]) {
                row.push(*p as f32);
            }
        }
    }
    out
}

fn random_unit(rng: &mut impl Rng, dim: usize) -> Vec<f64> {
    loop {
        let v: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
        let n: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt();
        if n > 1e-9 {
            return v.into_iter().map(|x| x / n).collect();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tight blobs along the x-axis in 5-D.
    fn blobs() -> Vec<Vec<f32>> {
        let mut data = Vec::new();
        for i in 0..20 {
            let jitter = (i % 5) as f32 * 0.01;
            let mut a = vec![0.0f32; 5];
            a[0] = 10.0 + jitter;
            a[1] = jitter;
            data.push(a);
            let mut b = vec![0.0f32; 5];
            b[0] = -10.0 - jitter;
            b[1] = -jitter;
            data.push(b);
        }
        data
    }

    #[test]
    fn first_component_separates_blobs() {
        let data = blobs();
        let reduced = pca_reduce(&data, 1, 3);
        // Points from blob A (even indices) all on one side, blob B other side.
        let a_side = reduced[0][0].signum();
        for (i, r) in reduced.iter().enumerate() {
            if i % 2 == 0 {
                assert_eq!(r[0].signum(), a_side, "point {i}");
            } else {
                assert_eq!(r[0].signum(), -a_side, "point {i}");
            }
            assert!(r[0].abs() > 5.0);
        }
    }

    #[test]
    fn output_shape() {
        let data = blobs();
        let reduced = pca_reduce(&data, 3, 1);
        assert_eq!(reduced.len(), data.len());
        assert!(reduced.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn k_clamped_to_dim() {
        let data = vec![vec![1.0f32, 2.0], vec![3.0, 4.0], vec![0.0, 1.0]];
        let reduced = pca_reduce(&data, 10, 1);
        assert_eq!(reduced[0].len(), 2);
    }

    #[test]
    fn deterministic_under_seed() {
        let data = blobs();
        assert_eq!(pca_reduce(&data, 2, 9), pca_reduce(&data, 2, 9));
    }

    #[test]
    fn variance_ordering_of_components() {
        // Column 0 has much higher variance than column 1.
        let data = blobs();
        let reduced = pca_reduce(&data, 2, 4);
        let var = |idx: usize| {
            let mean: f32 = reduced.iter().map(|r| r[idx]).sum::<f32>() / reduced.len() as f32;
            reduced.iter().map(|r| (r[idx] - mean).powi(2)).sum::<f32>() / reduced.len() as f32
        };
        assert!(var(0) > var(1) * 10.0, "v0={} v1={}", var(0), var(1));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_input_panics() {
        let _ = pca_reduce(&[], 2, 1);
    }
}
