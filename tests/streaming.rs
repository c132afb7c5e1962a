//! Incremental-vs-batch differential suite for the streaming ingest path
//! (ISSUE 8): absorbing a stream — one-by-one, via `absorb_all`, or
//! through the service — must be bit-identical to a batch classification
//! against the same representatives, and a post-absorb recluster must
//! equal a recluster of the equivalent batch-built compression.

use std::sync::Arc;
use std::time::Duration;

use data_bubbles::pipeline::{
    recluster_from_compression, run_pipeline, Compressor, PipelineConfig, Recovery,
};
use data_bubbles::{try_bubble_dendrogram, BubbleSpace, DataBubble};
use db_hierarchical::Linkage;
use db_optics::OpticsParams;
use db_sampling::{
    accumulate_stats, compress_by_sampling, nn_classify, CompressedSample, IncrementalCompression,
};
use db_serve::{BubbleService, ServiceConfig};
use db_spatial::Dataset;

const SEED: u64 = 2001;
const K: usize = 20;

fn blobs(n: usize, seed: u64) -> Dataset {
    let params = db_datagen::SeparatedBlobsParams { n, ..Default::default() };
    db_datagen::separated_blobs(&params, seed).data
}

fn concat(a: &Dataset, b: &Dataset) -> Dataset {
    let mut out = Dataset::new(a.dim()).expect("dim");
    for row in a.iter().chain(b.iter()) {
        out.push(row).expect("finite rows");
    }
    out
}

fn optics() -> OpticsParams {
    OpticsParams { eps: f64::INFINITY, min_pts: 20 }
}

fn pipeline_cfg(seed: u64) -> PipelineConfig {
    PipelineConfig::new(K, Compressor::Sample { seed }, Recovery::Bubbles, optics())
}

/// The batch reference: classify base+stream against the base's sampled
/// representatives in one pass.
fn batch_reference(base: &Dataset, stream: &Dataset) -> (CompressedSample, Dataset) {
    let c = compress_by_sampling(base, K, SEED).expect("compress");
    let combined = concat(base, stream);
    let assignment = nn_classify(&combined, &c.reps);
    let stats = accumulate_stats(&combined, &assignment, c.k());
    (CompressedSample { sample_ids: c.sample_ids, reps: c.reps, stats, assignment }, combined)
}

#[test]
fn absorb_stream_is_bit_identical_to_batch_classification() {
    let base = blobs(300, 1);
    let stream = blobs(80, 2);
    let (batch, _) = batch_reference(&base, &stream);

    let c = compress_by_sampling(&base, K, SEED).expect("compress");

    // One by one.
    let mut one_by_one = IncrementalCompression::from_sample(&c);
    for row in stream.iter() {
        one_by_one.try_absorb(row).expect("absorb");
    }
    assert_eq!(one_by_one.assignment(), batch.assignment.as_slice());
    assert_eq!(one_by_one.stats(), batch.stats.as_slice());

    // Whole stream atomically.
    let mut atomic = IncrementalCompression::from_sample(&c);
    atomic.try_absorb_all(&stream).expect("absorb_all");
    assert_eq!(atomic.assignment(), batch.assignment.as_slice());
    assert_eq!(atomic.stats(), batch.stats.as_slice());

    // Uneven batch splits.
    for batch_size in [3, 17, 79] {
        let mut split = IncrementalCompression::from_sample(&c);
        let rows: Vec<&[f64]> = stream.iter().collect();
        for chunk in rows.chunks(batch_size) {
            let mut part = Dataset::new(stream.dim()).expect("dim");
            for row in chunk {
                part.push(row).expect("finite");
            }
            split.try_absorb_all(&part).expect("absorb_all chunk");
        }
        assert_eq!(split.assignment(), batch.assignment.as_slice(), "batch_size={batch_size}");
        assert_eq!(split.stats(), batch.stats.as_slice(), "batch_size={batch_size}");
    }
}

/// A recluster of a zero-absorb compression is bit-for-bit the
/// `run_pipeline` output the compression came from: same representatives,
/// stats and assignment must yield the same ordering and expansion.
#[test]
fn zero_absorb_recluster_matches_run_pipeline() {
    let ds = blobs(300, 4);
    let cfg = pipeline_cfg(SEED);
    let fresh = run_pipeline(&ds, &cfg).expect("pipeline");

    let inc =
        IncrementalCompression::from_sample(&compress_by_sampling(&ds, K, SEED).expect("compress"));
    let reclustered = recluster_from_compression(&inc, &cfg).expect("recluster");

    assert_eq!(reclustered.rep_ordering, fresh.rep_ordering);
    assert_eq!(reclustered.expanded, fresh.expanded);
    assert_eq!(reclustered.n_representatives, fresh.n_representatives);
}

/// After absorbing a stream, a recluster equals the recluster of the
/// equivalent batch-built compression (same reps, batch-classified stats
/// and assignment) — the incremental path loses nothing.
#[test]
fn post_absorb_recluster_equals_equivalent_batch_compression() {
    let base = blobs(300, 5);
    let stream = blobs(80, 6);
    let cfg = pipeline_cfg(SEED);

    let c = compress_by_sampling(&base, K, SEED).expect("compress");
    let mut incremental = IncrementalCompression::from_sample(&c);
    incremental.try_absorb_all(&stream).expect("absorb");

    let (batch, _) = batch_reference(&base, &stream);
    let batch_inc = IncrementalCompression::from_sample(&batch);

    let a = recluster_from_compression(&incremental, &cfg).expect("recluster incremental");
    let b = recluster_from_compression(&batch_inc, &cfg).expect("recluster batch");
    assert_eq!(a.rep_ordering, b.rep_ordering);
    assert_eq!(a.expanded, b.expanded);
}

/// The service's background recluster computes exactly what a direct
/// `recluster_from_compression` of the same compression computes, minus
/// the expansion nobody reads — HTTP, caching and threading change
/// nothing about the ordering, and the served labels are the single-link
/// cut of the same bubbles.
#[test]
fn service_recluster_matches_direct_recluster() {
    let base = blobs(300, 7);
    let stream = blobs(80, 8);

    let c = compress_by_sampling(&base, K, SEED).expect("compress");
    let svc = Arc::new(
        BubbleService::new(
            IncrementalCompression::from_sample(&c),
            ServiceConfig::new(optics(), 4.0),
        )
        .expect("service"),
    );
    svc.ingest(&stream).expect("ingest");
    let generation = svc.force_recluster();
    assert!(svc.wait_for_generation(generation, Duration::from_secs(30)));
    let artifact = svc.artifact();

    let mut reference = IncrementalCompression::from_sample(&c);
    reference.try_absorb_all(&stream).expect("absorb");
    let direct = recluster_from_compression(&reference, &pipeline_cfg(SEED)).expect("recluster");

    assert_eq!(artifact.output.rep_ordering, direct.rep_ordering);
    assert!(artifact.output.expanded.is_none(), "the service runs no recovery step");
    let bubbles: Vec<DataBubble> = reference
        .stats()
        .iter()
        .map(DataBubble::try_from_cf)
        .collect::<Result<_, _>>()
        .expect("bubbles");
    let space = BubbleSpace::try_new(bubbles).expect("space");
    let labels = try_bubble_dendrogram(&space, Linkage::Single).expect("dendrogram");
    assert_eq!(artifact.rep_labels, labels.cut_at_distance(4.0));
    svc.shutdown();
}
