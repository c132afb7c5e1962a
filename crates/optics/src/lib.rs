//! OPTICS (Ankerst, Breunig, Kriegel, Sander, SIGMOD 1999) and DBSCAN
//! (Ester et al., KDD 1996) — the hierarchical/density clustering substrate
//! of the Data Bubbles reproduction.
//!
//! The OPTICS walk is implemented once, generically, over the
//! [`OpticsSpace`] trait (ε-neighbourhood + core-distance + object weight).
//! Plain vector data uses [`PointSpace`]; the `data-bubbles` crate provides
//! a second implementation whose neighbourhood/core-distance follow
//! Definitions 6–8 of the Data Bubbles paper — exactly the paper's claim
//! that only those definitions need to change. A space that can hand out
//! full distance rows ([`OpticsSpace::distance_rows`]) is walked with one
//! fused pass per row instead of the seed heap, with the same ordering.
//!
//! Also provided:
//!
//! * [`ClusterOrdering`] — the augmented ordering with reachability and
//!   core-distances (the data behind a reachability plot);
//! * [`extract_dbscan`] — flat cluster extraction from an ordering with a
//!   cut level ε′ ≤ ε (§3.2.2 of the OPTICS paper);
//! * [`extract_xi`] — hierarchical ξ-cluster extraction from steep areas;
//! * [`dbscan`] — the classic flat DBSCAN as an independent baseline.
//!
//! # Example
//!
//! ```
//! use db_optics::{optics_points, OpticsParams, extract_dbscan};
//! use db_spatial::Dataset;
//!
//! // Two well separated groups on a line.
//! let mut ds = Dataset::new(1).unwrap();
//! for i in 0..10 {
//!     ds.push(&[i as f64 * 0.1]).unwrap();
//!     ds.push(&[100.0 + i as f64 * 0.1]).unwrap();
//! }
//! let ordering = optics_points(&ds, &OpticsParams { eps: 10.0, min_pts: 3 });
//! let labels = extract_dbscan(&ordering, 1.0, ds.len());
//! let distinct: std::collections::HashSet<i32> =
//!     labels.iter().copied().filter(|&l| l >= 0).collect();
//! assert_eq!(distinct.len(), 2);
//! ```

#![warn(missing_docs)]

mod algorithm;
mod dbscan;
mod ordering;
pub mod params;
pub mod persist;
mod space;
mod tree;
mod xi;

pub use algorithm::{optics, optics_points, optics_points_supervised, optics_supervised};
pub use dbscan::{dbscan, dbscan_core};
pub use ordering::{extract_dbscan, median_smooth, ClusterOrdering, OrderingEntry, UNDEFINED};
pub use params::{k_distances, suggest_cut, suggest_eps};
pub use persist::{read_ordering, write_ordering, PersistError};
pub use space::{DistanceRows, OpticsParams, OpticsSpace, PointSpace};
pub use tree::{ClusterNode, ClusterTree};
pub use xi::{extract_xi, XiCluster};
