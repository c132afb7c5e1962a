//! BIRCH (Zhang, Ramakrishnan, Livny, SIGMOD 1996) — the data-compression
//! substrate of the Data Bubbles paper.
//!
//! Provides:
//!
//! * [`Cf`] — a Clustering Feature (paper Def. 1), stored as
//!   `(n, mean, ssd)` after BETULA (Lang & Schubert) rather than the
//!   cancellation-prone `(n, LS, ss)`, with the additivity condition and
//!   centroid / radius / diameter in closed form.
//! * [`CfTree`] — the height-balanced CF-tree with branching factor `B`,
//!   leaf capacity `L` and absorption threshold `T`; phase 1 inserts points
//!   one by one and rebuilds with a larger threshold whenever the tree
//!   exceeds its memory bound, phase 2 ([`CfTree::condense_to`]) repeatedly
//!   rebuilds until at most `k` leaf entries remain.
//! * [`birch`] — the end-to-end convenience function the pipelines use:
//!   build the tree over a dataset and return the ≤ `k` leaf CFs.
//!
//! The threshold-increase heuristic is implemented so that it exhibits the
//! qualitative behaviour the Data Bubbles paper reports (§8, §9.1): at
//! extreme compression rates and in high dimensions the final increase
//! overshoots and the tree ends up with *fewer* leaf entries than requested.
//!
//! # Example
//!
//! ```
//! use db_birch::{birch, BirchParams};
//! use db_spatial::Dataset;
//!
//! let mut ds = Dataset::new(2).unwrap();
//! for i in 0..100 {
//!     ds.push(&[i as f64 % 10.0, (i / 10) as f64]).unwrap();
//! }
//! let cfs = birch(&ds, 20, &BirchParams::default());
//! assert!(cfs.len() <= 20);
//! let total: u64 = cfs.iter().map(|cf| cf.n()).sum();
//! assert_eq!(total, 100); // every point is summarized exactly once
//! ```

#![warn(missing_docs)]

mod cf;
mod tree;

pub use cf::{Cf, CfError};
pub use tree::{birch, birch_supervised, BirchParams, CfTree};
