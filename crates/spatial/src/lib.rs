//! Dense vector datasets, distance metrics and spatial indexes.
//!
//! This crate is the spatial substrate of the Data Bubbles reproduction:
//!
//! * [`Dataset`] — a flat, row-major container of `d`-dimensional `f64`
//!   points. All higher layers (OPTICS, BIRCH, sampling, Data Bubbles)
//!   operate on datasets or on summaries derived from them.
//! * [`Metric`] — distance functions ([`Euclidean`], [`SquaredEuclidean`],
//!   [`Manhattan`], [`Chebyshev`]).
//! * [`kernels`] — batched, cache-blocked squared-distance kernels with a
//!   fixed lane-reduction order; the canonical distance arithmetic every
//!   index, classifier and oracle sweep shares (see DESIGN.md §13).
//! * [`SpatialIndex`] — ε-range, k-NN and 1-NN queries. Two
//!   implementations with identical semantics: [`KdTree`], the one index
//!   of coordinate data (the "index-based access structure" OPTICS
//!   assumes), and [`LinearScan`], the always correct baseline it is
//!   tested against.
//! * [`CellTable`] — exact 1-NN queries against a fixed set of 2-d points
//!   from a precomputed candidate list per grid cell, in front of a
//!   [`KdTree`]; the nearest-representative query of classification.
//! * [`VpTree`] — range and k-NN queries under an arbitrary metric given
//!   as a distance closure, for data with no coordinates.
//!
//! # Example
//!
//! ```
//! use db_spatial::{Dataset, KdTree, SpatialIndex};
//!
//! let ds = Dataset::from_rows(2, &[&[0.0, 0.0], &[1.0, 0.0], &[5.0, 5.0]]).unwrap();
//! let tree = KdTree::build(&ds);
//! let mut out = Vec::new();
//! tree.range(&ds, &[0.1, 0.0], 2.0, &mut out);
//! let ids: Vec<usize> = out.iter().map(|n| n.id).collect();
//! assert_eq!(ids.len(), 2);
//! assert!(ids.contains(&0) && ids.contains(&1));
//! ```

#![warn(missing_docs)]

mod dataset;
mod error;
pub mod id;
pub mod io;
pub mod kernels;
mod metric;
pub mod order;
pub mod vptree;

pub mod index;

pub use dataset::Dataset;
pub use error::SpatialError;
pub use id::{checked_id, id_u32};
pub use index::cells::CellTable;
pub use index::kdtree::KdTree;
pub use index::linear::LinearScan;
pub use index::{Neighbor, NnTally, SpatialIndex};
pub use io::{read_csv, read_csv_from, write_csv, write_csv_to, CsvError, CsvOptions};
pub use kernels::{dist_tile, dists_to_block, dists_to_indexed, nn_block};
pub use metric::{Chebyshev, Euclidean, Manhattan, Metric, SquaredEuclidean};
pub use order::DistId;
pub use vptree::{MetricNeighbor, VpTree};

/// Euclidean distance between two slices of equal length.
///
/// Convenience free function used pervasively by the higher layers.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
#[inline]
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    Euclidean.dist(a, b)
}

/// Squared Euclidean distance between two slices of equal length.
#[inline]
pub fn euclidean_sq(a: &[f64], b: &[f64]) -> f64 {
    SquaredEuclidean.dist(a, b)
}
