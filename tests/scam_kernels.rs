//! Golden digests for the two numeric kernels of the §6 scam-post
//! pipeline: the power-iteration PCA and HDBSCAN's core distances. A kernel
//! change that moves a single bit of either fails here.
//!
//! Both values were computed at commit e85e680, with the row-by-row PCA
//! loop and the kd-tree core-distance search. The block PCA kernel and the
//! brute-force distance kernel that replaced them must reproduce them
//! exactly.

use acctrade::core::scamposts::{analyze, synthetic_posts, ScamPipelineConfig};
use acctrade::telemetry::digest64;
use acctrade::text::embed::Embedder;
use acctrade::text::reduce::pca_reduce;
use std::collections::BTreeSet;

#[test]
fn scam_analysis_matches_the_row_by_row_kernels() {
    let analysis = analyze(&synthetic_posts(25, 12, 77), ScamPipelineConfig::default());
    assert_eq!(digest64(&format!("{analysis:?}")), "14968f79177b64d5");
}

#[test]
fn pca_reduction_matches_the_row_by_row_kernel_bit_for_bit() {
    let cfg = ScamPipelineConfig::default();
    // The distinct texts, in corpus order: the pipeline embeds documents,
    // not posts.
    let mut seen = BTreeSet::new();
    let texts: Vec<String> = synthetic_posts(25, 12, 77)
        .into_iter()
        .map(|p| p.text)
        .filter(|t| seen.insert(t.clone()))
        .collect();
    let embedded = Embedder::new(cfg.embed_dim, cfg.seed).embed_all(&texts);
    let reduced = pca_reduce(&embedded, cfg.reduce_dim, cfg.seed);
    let bits: String = reduced
        .iter()
        .flatten()
        .map(|x| format!("{:08x}", x.to_bits()))
        .collect();
    assert_eq!(digest64(&bits), "d60a0af221a19beb");
}
