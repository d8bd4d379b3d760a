//! Text-kernel benches: the two hot loops of the §6 scam-post pipeline at
//! the pipeline's own shapes — power-iteration PCA from 192 to 48
//! dimensions, then HDBSCAN on that reduction — over 750 distinct
//! synthetic posts, about the corpus a scale-0.1 study clusters. Results
//! land in `BENCH_report.json` with every other bench, and
//! `BENCH_budget.json` caps both medians.

use acctrade_core::scamposts::{synthetic_posts, ScamPipelineConfig};
use acctrade_text::cluster::hdbscan;
use acctrade_text::embed::Embedder;
use acctrade_text::reduce::pca_reduce;
use foundation::bench::{criterion_group, criterion_main, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;

const DOCUMENTS: usize = 750;

fn bench_text(c: &mut Criterion) {
    let cfg = ScamPipelineConfig::default();
    let mut seen = BTreeSet::new();
    let texts: Vec<String> = synthetic_posts(80, 40, 77)
        .into_iter()
        .map(|p| p.text)
        .filter(|t| seen.insert(t.clone()))
        .take(DOCUMENTS)
        .collect();
    let embedded = Embedder::new(cfg.embed_dim, cfg.seed).embed_all(&texts);
    let reduced = pca_reduce(&embedded, cfg.reduce_dim, cfg.seed);
    eprintln!(
        "[text] {} documents, {} -> {} dims",
        embedded.len(),
        cfg.embed_dim,
        cfg.reduce_dim
    );

    let mut group = c.benchmark_group("text");
    group.sample_size(10);
    group.bench_function("pca_reduce_192_48", |b| {
        b.iter(|| pca_reduce(black_box(&embedded), cfg.reduce_dim, cfg.seed))
    });
    // 3 is the default backend's min_cluster_size.
    group.bench_function("hdbscan_48d", |b| {
        b.iter(|| hdbscan(black_box(&reduced), 3))
    });
    group.finish();
}

criterion_group!(benches, bench_text);
criterion_main!(benches);
