//! `db-serve`: the streaming clustering service — the paper's warehouse
//! loop turned into a long-lived process.
//!
//! The motivation section of the Data Bubbles paper is explicitly about
//! databases that keep growing: compress once, absorb inserts via CF
//! additivity (Definition 1), and re-run OPTICS on the cheap bubble set
//! whenever a fresh cluster ordering is wanted. [`BubbleService`] is that
//! loop as a service:
//!
//! * it owns a live [`db_sampling::IncrementalCompression`];
//! * batched inserts go through the *fallible* absorb boundary
//!   ([`db_sampling::IncrementalCompression::try_absorb_all`]) — a NaN point is a typed
//!   rejection, never a corrupted representative;
//! * queries are answered from a cached [`Artifact`] (cluster ordering +
//!   single-link bubble labels) via one NN lookup, never blocking on a
//!   recluster;
//! * the artifact is recomputed lazily on a background thread when
//!   staleness triggers fire (absorbed-object count, fraction of mass
//!   absorbed since the last build). A rebuild's cost depends on the k
//!   representatives, never on the n objects absorbed: it snapshots only
//!   the representatives and their statistics (O(k) under the ingest
//!   lock), runs only the bubble-OPTICS clustering step (no expansion of
//!   the absorbed objects), and cuts single-link labels in O(k²) from the
//!   distance matrix that step built. It runs under a
//!   [`db_supervise::RunBudget`] + [`db_supervise::CancelToken`]; a forced
//!   recluster cancels the in-flight one (typed
//!   [`data_bubbles::pipeline::PipelineError::Cancelled`], not a panic).
//!
//! [`routes::service_response`] exposes the whole thing over the hardened
//! `db-obsd` HTTP layer (`POST /ingest`, `GET /label`, `GET /ordering`,
//! `GET /stats`, `POST /recluster`), falling back to the telemetry routes
//! (`/metrics`, `/healthz`, `/trace`) for everything else.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod routes;
mod service;

pub use routes::{service_response, ServeServer};
pub use service::{
    Artifact, BubbleService, IngestReceipt, LabelAnswer, ServiceConfig, ServiceStats,
};
