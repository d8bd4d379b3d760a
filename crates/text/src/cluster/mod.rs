//! Density clustering — the HDBSCAN stand-in, plus baselines.
//!
//! * [`mod@dbscan`] — classic DBSCAN over a KD-tree index;
//! * [`mod@hdbscan`] — full HDBSCAN: core distances → mutual
//!   reachability → MST → condensed tree → excess-of-mass selection;
//! * [`mod@kmeans`] — a k-means baseline used by the ablation bench;
//! * [`kdtree`] — DBSCAN's radius-query index.
//!
//! All algorithms are deterministic given their inputs (k-means takes a
//! seed for initialization).

pub mod dbscan;
pub mod hdbscan;
pub mod kdtree;
pub mod kmeans;

pub use dbscan::dbscan;
pub use hdbscan::hdbscan;
pub use kmeans::kmeans;

/// Label assigned to each input point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClusterLabel {
    /// Point belongs to cluster `id` (ids are dense, starting at 0).
    Cluster(usize),
    /// Point is noise / an outlier.
    Noise,
}

impl ClusterLabel {
    /// Cluster id, if not noise.
    pub fn id(self) -> Option<usize> {
        match self {
            ClusterLabel::Cluster(i) => Some(i),
            ClusterLabel::Noise => None,
        }
    }

    /// `true` when the point is noise.
    pub fn is_noise(self) -> bool {
        matches!(self, ClusterLabel::Noise)
    }
}

/// Parameters shared by the density clusterers.
#[derive(Debug, Clone, Copy)]
pub struct ClusterParams {
    /// DBSCAN neighborhood radius (ignored by HDBSCAN, which picks its own
    /// cut).
    pub eps: f64,
    /// Minimum points to form a dense region (DBSCAN `minPts`, HDBSCAN
    /// `min_cluster_size`).
    pub min_pts: usize,
}

impl Default for ClusterParams {
    fn default() -> Self {
        ClusterParams { eps: 0.5, min_pts: 5 }
    }
}

/// Count clusters in a labeling.
pub fn n_clusters(labels: &[ClusterLabel]) -> usize {
    labels
        .iter()
        .filter_map(|l| l.id())
        .max()
        .map(|m| m + 1)
        .unwrap_or(0)
}

/// Fraction of points labeled noise.
pub fn noise_fraction(labels: &[ClusterLabel]) -> f64 {
    if labels.is_empty() {
        return 0.0;
    }
    labels.iter().filter(|l| l.is_noise()).count() as f64 / labels.len() as f64
}

/// Group point indices by cluster id; noise is excluded.
pub fn members_by_cluster(labels: &[ClusterLabel]) -> Vec<Vec<usize>> {
    let k = n_clusters(labels);
    let mut groups = vec![Vec::new(); k];
    for (i, l) in labels.iter().enumerate() {
        if let Some(c) = l.id() {
            groups[c].push(i);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_helpers() {
        let labels = vec![
            ClusterLabel::Cluster(0),
            ClusterLabel::Noise,
            ClusterLabel::Cluster(1),
            ClusterLabel::Cluster(0),
        ];
        assert_eq!(n_clusters(&labels), 2);
        assert!((noise_fraction(&labels) - 0.25).abs() < 1e-12);
        let groups = members_by_cluster(&labels);
        assert_eq!(groups[0], vec![0, 3]);
        assert_eq!(groups[1], vec![2]);
    }

    #[test]
    fn empty_labels() {
        assert_eq!(n_clusters(&[]), 0);
        assert_eq!(noise_fraction(&[]), 0.0);
    }
}
