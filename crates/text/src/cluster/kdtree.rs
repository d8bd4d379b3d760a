//! A KD-tree for radius queries over dense points: DBSCAN's neighborhood
//! index (the clusterer ablation's baseline).
//!
//! Pruning only pays in low dimensions. In the 48 dimensions the
//! scam-post pipeline clusters in, the expanding-radius k-th-neighbor
//! search HDBSCAN used to run on this tree was slower than brute force, so
//! HDBSCAN now computes its core distances by brute force. That search is
//! kept under `#[cfg(test)]` as the brute-force kernel's differential
//! oracle.

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

/// The differential oracle for HDBSCAN's brute-force core distances.
#[cfg(test)]
impl KdTree<'_> {
    /// Distance to the k-th nearest neighbor of point `i` (excluding
    /// itself). Returns `f64::INFINITY` when fewer than `k` other points
    /// exist.
    pub fn kth_neighbor_distance(&self, i: usize, k: usize) -> f64 {
        let query = &self.points[i];
        // Expanding-radius search: start from a guess and double until we
        // have k neighbors. Correct (the final radius bounds all misses)
        // and simple; fast in clustered data.
        if self.len() <= k {
            return f64::INFINITY;
        }
        let mut radius = self.initial_radius_guess(i);
        loop {
            let mut hits = self.within_radius(query, radius);
            hits.retain(|&j| j != i);
            if hits.len() >= k {
                let mut ds: Vec<f64> = hits.iter().map(|&j| dist(&self.points[j], query)).collect();
                ds.sort_by(|a, b| a.total_cmp(b));
                return ds[k - 1];
            }
            radius = (radius * 2.0).max(1e-6);
        }
    }

    fn initial_radius_guess(&self, i: usize) -> f64 {
        // Distance to the root point is a cheap nonzero scale estimate.
        let root = self.order[self.order.len() / 2];
        let d = dist(&self.points[i], &self.points[root]);
        if d > 0.0 {
            d / 4.0
        } else {
            1e-3
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
    fn kth_distance_matches_brute_force() {
        let pts = random_points(120, 3, 2);
        let tree = KdTree::build(&pts);
        for qi in [0, 50, 119] {
            for k in [1, 5, 10] {
                let got = tree.kth_neighbor_distance(qi, k);
                let mut ds: Vec<f64> = (0..pts.len())
                    .filter(|&j| j != qi)
                    .map(|j| dist(&pts[j], &pts[qi]))
                    .collect();
                ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
                assert!((got - ds[k - 1]).abs() < 1e-9, "qi={qi} k={k}");
            }
        }
    }

    #[test]
    fn kth_distance_with_too_few_points() {
        let pts = random_points(3, 2, 3);
        let tree = KdTree::build(&pts);
        assert_eq!(tree.kth_neighbor_distance(0, 5), f64::INFINITY);
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![vec![1.0f32, 1.0]; 10];
        let tree = KdTree::build(&pts);
        assert_eq!(tree.within_radius(&pts[0], 0.0).len(), 10);
        assert_eq!(tree.kth_neighbor_distance(0, 3), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_build_panics() {
        let _ = KdTree::build(&[]);
    }
}
