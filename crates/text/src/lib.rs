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

