//! A KD-tree for radius queries over dense points: DBSCAN's neighborhood
//! index (the clusterer ablation's baseline).
//!
//! Pruning only pays in low dimensions. In the 48 dimensions the
//! scam-post pipeline clusters in, the expanding-radius k-th-neighbor
//! search HDBSCAN used to run on this tree was slower than brute force, so
//! HDBSCAN now computes its core distances by brute force.

/// A KD-tree built over borrowed points (rows of equal length).
pub struct KdTree<'a> {
    points: &'a [Vec<f32>],
    /// Flattened tree: `nodes[i]` is the point index at node `i`; layout is
    /// a balanced binary tree stored by recursive median splits.
    order: Vec<usize>,
    dim: usize,
}

impl<'a> KdTree<'a> {
    /// Build a tree over `points`.
    ///
    /// # Panics
    /// Panics if points are ragged or the set is empty.
    pub fn build(points: &'a [Vec<f32>]) -> KdTree<'a> {
        assert!(!points.is_empty(), "empty point set");
        let dim = points[0].len();
        assert!(dim > 0, "zero-dimensional points");
        assert!(points.iter().all(|p| p.len() == dim), "ragged points");
        let mut order: Vec<usize> = (0..points.len()).collect();
        build_recursive(points, &mut order, 0, dim);
        KdTree { points, order, dim }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` if the tree is empty (cannot happen via [`KdTree::build`]).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Indices of all points within `radius` of `query` (inclusive),
    /// including the query point itself if indexed.
    pub fn within_radius(&self, query: &[f32], radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.radius_rec(query, radius, 0, self.order.len(), 0, &mut out);
        out.sort_unstable();
        out
    }

    fn radius_rec(
        &self,
        query: &[f32],
        radius: f64,
        lo: usize,
        hi: usize,
        depth: usize,
        out: &mut Vec<usize>,
    ) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let idx = self.order[mid];
        let p = &self.points[idx];
        if dist(p, query) <= radius {
            out.push(idx);
        }
        let axis = depth % self.dim;
        let delta = f64::from(query[axis]) - f64::from(p[axis]);
        // Search the near side always; the far side only if the splitting
        // plane is within radius.
        if delta <= 0.0 {
            self.radius_rec(query, radius, lo, mid, depth + 1, out);
            if -delta <= radius {
                self.radius_rec(query, radius, mid + 1, hi, depth + 1, out);
            }
        } else {
            self.radius_rec(query, radius, mid + 1, hi, depth + 1, out);
            if delta <= radius {
                self.radius_rec(query, radius, lo, mid, depth + 1, out);
            }
        }
    }
}

fn build_recursive(points: &[Vec<f32>], order: &mut [usize], depth: usize, dim: usize) {
    if order.len() <= 1 {
        return;
    }
    let axis = depth % dim;
    let mid = order.len() / 2;
    order.select_nth_unstable_by(mid, |&a, &b| {
        points[a][axis].total_cmp(&points[b][axis])
    });
    let (left, rest) = order.split_at_mut(mid);
    build_recursive(points, left, depth + 1, dim);
    build_recursive(points, &mut rest[1..], depth + 1, dim);
}

/// Euclidean distance.
pub fn dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = f64::from(*x) - f64::from(*y);
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use foundation::rng::{RngExt, SeedableRng};
    use foundation::rng::ChaCha8Rng;

    fn random_points(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn brute_radius(points: &[Vec<f32>], q: &[f32], r: f64) -> Vec<usize> {
        (0..points.len()).filter(|&i| dist(&points[i], q) <= r).collect()
    }

    #[test]
    fn radius_query_matches_brute_force() {
        let pts = random_points(300, 4, 1);
        let tree = KdTree::build(&pts);
        for qi in [0, 7, 100, 299] {
            for r in [0.1, 0.5, 1.0] {
                let got = tree.within_radius(&pts[qi], r);
                let want = brute_radius(&pts, &pts[qi], r);
                assert_eq!(got, want, "qi={qi} r={r}");
            }
        }
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![vec![1.0f32, 1.0]; 10];
        let tree = KdTree::build(&pts);
        assert_eq!(tree.within_radius(&pts[0], 0.0).len(), 10);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_build_panics() {
        let _ = KdTree::build(&[]);
    }
}
