#![warn(missing_docs)]

//! # acctrade-text
//!
//! A from-scratch text-analysis toolkit replacing the Python NLP stack the
//! paper used for its scam-post analysis (§6):
//!
//! | Paper stack | This crate |
//! |---|---|
//! | CLD2 language detection | [`langdetect`] — char-trigram Naive Bayes |
//! | BERTopic stop-word removal | [`stopwords`] + [`mod@tokenize`] |
//! | all-mpnet-base-v2 embeddings | [`vectorize`] (TF-IDF) + [`embed`] (seeded random projection) |
//! | UMAP | [`reduce`] — power-iteration PCA |
//! | HDBSCAN | [`cluster`] — DBSCAN and an HDBSCAN-style variant |
//! | KeyBERT | [`keywords`] — class-based TF-IDF (c-TF-IDF) |
//! | manual similarity analysis | [`similarity`] — normalized word-level similarity |
//!
//! The substitutions are honest algorithmic stand-ins: the synthetic corpus
//! is template-generated, so lexical clustering recovers the same scam
//! families the neural stack recovers on the real corpus. See DESIGN.md for
//! the substitution rationale.

pub mod cluster;
pub mod embed;
pub mod keywords;
pub mod langdetect;
pub mod ngram;
pub mod reduce;
pub mod similarity;
pub mod stopwords;
pub mod tokenize;
pub mod vectorize;

pub use cluster::{dbscan, hdbscan, ClusterLabel, ClusterParams};
pub use embed::Embedder;
pub use keywords::class_tfidf_keywords;
pub use langdetect::{detect_language, Lang};
pub use similarity::word_similarity;
pub use tokenize::tokenize;
pub use vectorize::{cosine, TfIdfModel};

#[cfg(test)]
mod testkit {
    //! Point sets for the kernels' differential property tests.

    /// `n` rows of `dim` values cycled from `vals`. `shape` 1 repeats every
    /// row three times over; `shape` 2 makes every row equal (a rank-0
    /// set); `shape` 3 snaps values to a coarse grid, so many distinct
    /// pairs lie at equal distances.
    pub fn shaped_points(n: usize, dim: usize, shape: usize, vals: &[f32]) -> Vec<Vec<f32>> {
        let row =
            |i: usize| -> Vec<f32> { (0..dim).map(|t| vals[(i * dim + t) % vals.len()]).collect() };
        (0..n)
            .map(|i| match shape {
                1 => row(i / 3),
                2 => row(0),
                3 => row(i).into_iter().map(|x| (x / 25.0).round()).collect(),
                _ => row(i),
            })
            .collect()
    }
}
