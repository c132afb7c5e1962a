//! Classical clustering baselines referenced by the Data Bubbles paper:
//!
//! * [`slink`] — Sibson's optimally efficient O(n²) single-link algorithm
//!   (reference \[9\] of the paper), also over caller-supplied distance
//!   rows ([`slink_from_rows`]) so a precomputed matrix can feed it;
//! * [`agglomerative`] — generic agglomerative clustering with
//!   single/complete/average/Ward linkage (Lance–Williams updates), used
//!   to cross-check SLINK and as the "classical hierarchical clustering
//!   algorithm" Data Bubbles also supports (paper §6: "When applying a
//!   classical hierarchical clustering algorithm such as the single link
//!   method to Data Bubbles…");
//! * [`Dendrogram`] — the merge tree with `cut`/`cut_at_distance`
//!   extraction and weighted expansion (the paper's §5 remark: "we can
//!   apply an analogous technique to expand a dendrogram");
//! * [`kmeans`] / [`weighted_kmeans`] — the k-means baseline (reference
//!   \[8\]) including the sufficient-statistics variant of §2 that treats a
//!   CF `(n, LS, ss)` as the point `LS/n` with weight `n`.

#![warn(missing_docs)]

mod agglo;
mod dendrogram;
mod kmeans;
mod slink;

pub use agglo::{agglomerative, agglomerative_from_fn, Linkage};
pub use dendrogram::{Dendrogram, Merge};
pub use kmeans::{kmeans, weighted_kmeans, weighted_kmeans_cfs, KMeansParams, KMeansResult};
pub use slink::{slink, slink_from_fn, slink_from_rows};
