//! Ablations beyond the paper, isolating the design choices DESIGN.md
//! calls out:
//!
//! 1. **Bubble distance (Def. 6) vs. plain rep-to-rep distance** — why the
//!    structural distortion disappears;
//! 2. **Virtual reachability (Def. 9) vs. §5-style weighted expansion** on
//!    the same bubble ordering.

use std::io;

use data_bubbles::pipeline::{expand_bubbles, expand_weighted};
use data_bubbles::{BubbleSpace, DataBubble};
use db_optics::optics;
use db_sampling::compress_by_sampling;

use crate::config::RunConfig;
use crate::experiments::common::{dents, ds1_setup, expanded_quality};
use crate::report::Report;

struct AblationRow {
    ablation: &'static str,
    variant: &'static str,
    ari: f64,
    dents: usize,
}

db_obs::impl_to_json!(AblationRow { ablation, variant, ari, dents });

/// Runs all ablations.
pub fn run(cfg: &RunConfig) -> io::Result<()> {
    let mut rep = Report::new("ablations", &cfg.out_dir)?;
    rep.line("Ablations: bubble distance, virtual reachability");
    rep.line(format!("scale = {:?}", cfg.scale));
    let data = cfg.make_ds1();
    let setup = ds1_setup(data.len());
    let k = (data.len() / 1_000).max(10);
    let mut rows: Vec<AblationRow> = Vec::new();

    // Shared compression for both ablations.
    let compressed = compress_by_sampling(&data.data, k, cfg.seed)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    let members = compressed.members();
    let bubbles: Vec<DataBubble> = compressed.stats.iter().map(DataBubble::from_cf).collect();

    // --- Ablation 1: Definition 6 vs. plain representative distance. ----
    rep.section("ablation 1: bubble distance (Def. 6) vs. rep-to-rep distance");
    let space = BubbleSpace::new(bubbles.clone());
    let ordering = optics(&space, &setup.bubble_optics());
    let full = expand_bubbles(&ordering, &members, &space, setup.min_pts);
    let q_full = expanded_quality(&full, &data, setup.cut);
    let d_full = dents(&full.reachabilities(), &setup);
    rep.line(format!("Def. 6 distance:      ARI = {:.3}, dents = {d_full}", q_full.ari));
    rows.push(AblationRow {
        ablation: "distance",
        variant: "def6",
        ari: q_full.ari,
        dents: d_full,
    });

    // Zero-extent bubbles degrade Def. 6 to the plain distance between the
    // representatives and Lemma 1 to nndist ≡ 0, isolating the distance
    // definition (weights and expansion structure stay identical).
    let flat: Vec<DataBubble> =
        bubbles.iter().map(|b| DataBubble::new(b.rep().to_vec(), b.n(), 0.0)).collect();
    let flat_space = BubbleSpace::new(flat);
    let flat_ordering = optics(&flat_space, &setup.bubble_optics());
    let flat_expanded = expand_bubbles(&flat_ordering, &members, &flat_space, setup.min_pts);
    let q_flat = expanded_quality(&flat_expanded, &data, setup.cut);
    let d_flat = dents(&flat_expanded.reachabilities(), &setup);
    rep.line(format!("rep-to-rep distance:  ARI = {:.3}, dents = {d_flat}", q_flat.ari));
    rows.push(AblationRow {
        ablation: "distance",
        variant: "rep-to-rep",
        ari: q_flat.ari,
        dents: d_flat,
    });

    // --- Ablation 2: virtual reachability vs. weighted expansion. -------
    rep.section("ablation 2: expansion — virtual reachability (Def. 9) vs. §5 weighted");
    let weighted = expand_weighted(&ordering, &members);
    let q_weighted = expanded_quality(&weighted, &data, setup.cut);
    let d_weighted = dents(&weighted.reachabilities(), &setup);
    rep.line(format!("virtual reachability: ARI = {:.3}, dents = {d_full}", q_full.ari));
    rep.line(format!("weighted filler:      ARI = {:.3}, dents = {d_weighted}", q_weighted.ari));
    rows.push(AblationRow {
        ablation: "expansion",
        variant: "virtual-reachability",
        ari: q_full.ari,
        dents: d_full,
    });
    rows.push(AblationRow {
        ablation: "expansion",
        variant: "weighted-filler",
        ari: q_weighted.ari,
        dents: d_weighted,
    });

    rep.finish(Some(&rows))
}
