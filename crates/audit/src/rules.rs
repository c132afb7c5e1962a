//! The rule catalogue: each of the workspace's hard-won invariants,
//! written down as a checkable property.
//!
//! Every rule here earned its place by being violated (or nearly so) at
//! some point in the project's history:
//!
//! * `no-unwrap-prod` — service/supervision/pipeline code must not
//!   panic on `Result`/`Option`; PR 7/8 converted these paths to typed
//!   errors and this rule keeps them converted.
//! * `total-cmp` — float orderings go through `f64::total_cmp` (or the
//!   shared `db_spatial::order` helper); `partial_cmp` on NaN-capable
//!   values silently reorders under adversarial input (PR 2).
//! * `no-naked-sqrt` — the ε/k-NN pipeline compares in *squared* space
//!   and takes `sqrt` only at reporting flush sites (the PR 9 audit,
//!   made permanent).
//! * `no-wallclock-in-core` — determinism paths never read clocks;
//!   wall time lives in obs/supervise/serve/bench (PR 3's bit-for-bit
//!   guarantee would silently die the day a clock steered a loop).
//! * `checked-id-cast` — point/bubble ids are `u32`; a bare `as u32`
//!   silently truncates above `Dataset::MAX_POINTS`, so casts go
//!   through `db_spatial::id::{checked_id, id_u32}`.
//! * `no-hashmap-iter-order` — crates that produce `PipelineOutput` or
//!   orderings must not iterate `HashMap`/`HashSet` (iteration order is
//!   nondeterministic); collect and sort, or keep maps lookup-only.
//! * `counter-naming` — metric/span names follow the registry's
//!   `area.snake_case` convention so exporters group them correctly.
//! * `lock-order` — in `db-serve`, `live` is never acquired while
//!   `cache` is held (the PR 8 deadlock convention), enforced by an
//!   acquisition-site scan.
//!
//! Two meta rules are always on and live in the engine, not here:
//! `bad-allow` (a suppression without a reason, or naming an unknown
//! rule) and `unused-allow` (a suppression that excuses nothing).
//!
//! # Adding a rule
//!
//! Implement [`Rule`] (scoping by crate/path is the rule's own job —
//! helpers below), append it to [`all_rules`], add a positive, a
//! negative, and an allow fixture to `tests/rules.rs`, document it in
//! `DESIGN.md` §14, and — if the initial sweep needs suppressions —
//! update the checked-in `audit.budget`.

use crate::engine::{Finding, SourceFile};

/// One lint rule.
pub trait Rule {
    /// Stable kebab-case id, used in diagnostics, `--rule`, and allows.
    fn id(&self) -> &'static str;
    /// One-line description for `--list-rules`.
    fn summary(&self) -> &'static str;
    /// Scans one file, pushing findings.
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>);
}

/// The full rule set, in catalogue order.
pub fn all_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(NoUnwrapProd),
        Box::new(TotalCmp),
        Box::new(NoNakedSqrt),
        Box::new(NoWallclockInCore),
        Box::new(CheckedIdCast),
        Box::new(NoHashmapIterOrder),
        Box::new(CounterNaming),
        Box::new(LockOrder),
    ]
}

// ---------------------------------------------------------------------
// Shared text helpers
// ---------------------------------------------------------------------

fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// 1-based columns of word-bounded occurrences of `needle` in `line`:
/// the characters adjacent to the match must not extend an identifier.
fn token_cols(line: &str, needle: &str) -> Vec<usize> {
    let mut cols = Vec::new();
    let lb = line.as_bytes();
    let nb = needle.as_bytes();
    let mut from = 0;
    while let Some(p) = line[from..].find(needle) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_char(lb[at - 1]);
        let after = at + nb.len();
        let first_is_ident = nb.first().copied().is_some_and(is_ident_char);
        let last_is_ident = nb.last().copied().is_some_and(is_ident_char);
        let before_bound = !first_is_ident || before_ok;
        let after_bound = !last_is_ident || after >= lb.len() || !is_ident_char(lb[after]);
        if before_bound && after_bound {
            cols.push(at + 1);
        }
        from = at + 1;
    }
    cols
}

/// Flags every word-bounded `needle` on the production lines of `file`.
fn flag_token(
    file: &SourceFile,
    needle: &str,
    rule: &'static str,
    message: &str,
    suggestion: &str,
    out: &mut Vec<Finding>,
) {
    for (line_no, text) in file.prod_lines() {
        for col in token_cols(text, needle) {
            out.push(Finding {
                rule,
                path: file.path.clone(),
                line: line_no,
                col,
                message: message.to_string(),
                suggestion: suggestion.to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------
// no-unwrap-prod
// ---------------------------------------------------------------------

/// Panic-freedom of service paths: no `.unwrap()` / `.expect(` in the
/// production code of the serving, supervision, observability-daemon,
/// and pipeline layers. (Mirrors the `clippy::unwrap_used` denies in
/// those crates, but also covers builds where clippy does not run.)
pub struct NoUnwrapProd;

impl NoUnwrapProd {
    fn in_scope(file: &SourceFile) -> bool {
        matches!(file.crate_name.as_str(), "serve" | "supervise" | "obsd")
            || file.path.starts_with("crates/core/src/pipeline/")
    }
}

impl Rule for NoUnwrapProd {
    fn id(&self) -> &'static str {
        "no-unwrap-prod"
    }
    fn summary(&self) -> &'static str {
        "no unwrap/expect in production code of serve, supervise, obsd, core::pipeline"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !Self::in_scope(file) {
            return;
        }
        let sg = "return a typed error (PipelineError / ServeError / ObsdError) or recover \
                  explicitly with unwrap_or_else";
        flag_token(file, ".unwrap()", self.id(), "unwrap in a no-panic path", sg, out);
        flag_token(file, ".expect(", self.id(), "expect in a no-panic path", sg, out);
    }
}

// ---------------------------------------------------------------------
// total-cmp
// ---------------------------------------------------------------------

/// Total float orderings only. `partial_cmp` on floats returns `None`
/// for NaN, which every `unwrap_or` / `sort_by` caller then turns into a
/// silent misordering under adversarial data. The blessed home for float
/// ordering is `db_spatial::order` (and direct `f64::total_cmp`, which
/// this rule does not flag).
pub struct TotalCmp;

/// The one file allowed to say `partial_cmp`: the shared ordering helper
/// (its `PartialOrd` impl must forward to the total order).
const ORDER_HELPER: &str = "crates/spatial/src/order.rs";

impl Rule for TotalCmp {
    fn id(&self) -> &'static str {
        "total-cmp"
    }
    fn summary(&self) -> &'static str {
        "no partial_cmp outside the shared total-order helper (db_spatial::order)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.path == ORDER_HELPER {
            return;
        }
        flag_token(
            file,
            "partial_cmp",
            self.id(),
            "partial_cmp is NaN-unsound for float orderings",
            "use f64::total_cmp, or db_spatial::order::DistId for (distance, id) heaps",
            out,
        );
    }
}

// ---------------------------------------------------------------------
// no-naked-sqrt
// ---------------------------------------------------------------------

/// The squared-space discipline (PR 9): every ε / k-NN comparison
/// happens on squared distances; `sqrt` is taken once, at reporting
/// flush sites, and tallied under `spatial.sqrt_evals`. Inside the
/// distance pipeline a naked `.sqrt()` is either a perf bug or a unit
/// bug — both have happened.
pub struct NoNakedSqrt;

/// Files where `sqrt` is the point: the distance kernels and the metric
/// definitions (Euclidean *is* the sqrt of its surrogate).
const SQRT_FILES: &[&str] = &["crates/spatial/src/kernels.rs", "crates/spatial/src/metric.rs"];

impl NoNakedSqrt {
    fn in_scope(file: &SourceFile) -> bool {
        matches!(file.crate_name.as_str(), "spatial" | "optics" | "core" | "hierarchical")
            && !SQRT_FILES.contains(&file.path.as_str())
    }
}

impl Rule for NoNakedSqrt {
    fn id(&self) -> &'static str {
        "no-naked-sqrt"
    }
    fn summary(&self) -> &'static str {
        "sqrt only in kernels, metric definitions, and reasoned flush sites (squared-space audit)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !Self::in_scope(file) {
            return;
        }
        flag_token(
            file,
            ".sqrt()",
            self.id(),
            "sqrt inside the squared-space distance pipeline",
            "compare in squared space and convert at the flush site; if this IS a flush site, \
             allow it with the reason",
            out,
        );
    }
}

// ---------------------------------------------------------------------
// no-wallclock-in-core
// ---------------------------------------------------------------------

/// Determinism paths must not read clocks: the bit-for-bit guarantee
/// across thread counts (PR 3) dies the moment a wall-clock read steers
/// a loop. `Instant`/`SystemTime` belong to obs, supervise, serve,
/// obsd, and bench.
pub struct NoWallclockInCore;

impl NoWallclockInCore {
    fn in_scope(file: &SourceFile) -> bool {
        matches!(
            file.crate_name.as_str(),
            "core"
                | "optics"
                | "spatial"
                | "birch"
                | "sampling"
                | "hierarchical"
                | "eval"
                | "datagen"
                | "rng"
                | "oracle"
        )
    }
}

impl Rule for NoWallclockInCore {
    fn id(&self) -> &'static str {
        "no-wallclock-in-core"
    }
    fn summary(&self) -> &'static str {
        "no Instant::now/SystemTime in determinism-path crates"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !Self::in_scope(file) {
            return;
        }
        let sg = "move the timing to db-obs spans, or — for output-only timing metadata — \
                  allow with a reason stating it never influences results";
        flag_token(
            file,
            "Instant::now",
            self.id(),
            "wall-clock read in a determinism path",
            sg,
            out,
        );
        flag_token(file, "SystemTime", self.id(), "wall-clock read in a determinism path", sg, out);
    }
}

// ---------------------------------------------------------------------
// checked-id-cast
// ---------------------------------------------------------------------

/// Point/bubble ids are `u32` and the ingest boundary caps datasets at
/// `u32::MAX` points — but a bare `as u32` anywhere else silently
/// truncates if some new path forgets the cap. Id casts go through
/// `db_spatial::id::checked_id` (fallible) or `id_u32` (debug-asserted,
/// for counts already bounded upstream).
pub struct CheckedIdCast;

impl CheckedIdCast {
    fn in_scope(file: &SourceFile) -> bool {
        matches!(file.crate_name.as_str(), "core" | "sampling" | "serve")
    }
}

impl Rule for CheckedIdCast {
    fn id(&self) -> &'static str {
        "checked-id-cast"
    }
    fn summary(&self) -> &'static str {
        "no bare `as u32` id casts in core/sampling/serve; use db_spatial::id helpers"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !Self::in_scope(file) {
            return;
        }
        flag_token(
            file,
            "as u32",
            self.id(),
            "bare `as u32` silently truncates above Dataset::MAX_POINTS",
            "use db_spatial::id::checked_id (fallible) or id_u32 (debug-asserted) for id casts",
            out,
        );
    }
}

// ---------------------------------------------------------------------
// no-hashmap-iter-order
// ---------------------------------------------------------------------

/// Crates that produce `PipelineOutput`, cluster orderings, or
/// dendrograms must not iterate a `HashMap`/`HashSet`: iteration order
/// is randomized per process, so any output assembled from it breaks
/// the bit-determinism contract. Maps may be used lookup-only
/// (`entry`/`get`), or collected and sorted before iteration.
pub struct NoHashmapIterOrder;

const ITER_METHODS: &[&str] =
    &[".iter()", ".iter_mut()", ".keys()", ".values()", ".values_mut()", ".into_iter()", ".drain("];

impl NoHashmapIterOrder {
    fn in_scope(file: &SourceFile) -> bool {
        matches!(
            file.crate_name.as_str(),
            "core" | "optics" | "birch" | "sampling" | "hierarchical"
        )
    }

    /// Extracts the identifier a `HashMap`/`HashSet` occurrence binds:
    /// `let (mut) NAME: ...HashMap<...>`, `let (mut) NAME = HashMap::`,
    /// a parameter `NAME: &HashMap<...>`, or a struct field
    /// `NAME: Option<HashMap<...>>`.
    fn binding_name(line: &str, col: usize) -> Option<String> {
        let b = line.as_bytes();
        let mut i = col - 1; // 0-based index of the occurrence start
                             // Walk back over the type/path context (`std::collections::`,
                             // `&`, `Option<`, whitespace) to the binder.
        while i > 0 {
            let c = b[i - 1];
            if is_ident_char(c) || matches!(c, b':' | b'&' | b'<' | b' ' | b'\t') {
                // Stop the walk at the binder itself: a single `:` (not
                // `::`) or an `=`.
                if c == b':' && (i < 2 || b[i - 2] != b':') && (i >= b.len() || b[i] != b':') {
                    break;
                }
                i -= 1;
            } else if c == b'=' {
                break;
            } else {
                return None;
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1; // step over the binder
                // Skip whitespace, then collect the identifier.
        while i > 0 && matches!(b[i - 1], b' ' | b'\t') {
            i -= 1;
        }
        let end = i;
        while i > 0 && is_ident_char(b[i - 1]) {
            i -= 1;
        }
        let name = &line[i..end];
        if name.is_empty() || name == "mut" {
            None
        } else {
            Some(name.to_string())
        }
    }
}

impl Rule for NoHashmapIterOrder {
    fn id(&self) -> &'static str {
        "no-hashmap-iter-order"
    }
    fn summary(&self) -> &'static str {
        "no HashMap/HashSet iteration in output-producing crates (nondeterministic order)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if !Self::in_scope(file) {
            return;
        }
        // Pass 1: names bound to hash containers in production code.
        let mut names: Vec<String> = Vec::new();
        for (_, text) in file.prod_lines() {
            for ty in ["HashMap", "HashSet"] {
                for col in token_cols(text, ty) {
                    if let Some(name) = Self::binding_name(text, col) {
                        if !names.contains(&name) {
                            names.push(name);
                        }
                    }
                }
            }
        }
        // Pass 2: iteration over any of those names.
        for (line_no, text) in file.prod_lines() {
            for name in &names {
                // `name.iter()` etc. (also matches `self.name.iter()`).
                for m in ITER_METHODS {
                    let needle = format!("{name}{m}");
                    for col in token_cols(text, &needle) {
                        out.push(self.finding(file, line_no, col, name));
                    }
                }
                // `for x in name` / `in &name` / `in &mut name`.
                for pat in [format!("in {name}"), format!("in &{name}"), format!("in &mut {name}")]
                {
                    for col in token_cols(text, &pat) {
                        out.push(self.finding(file, line_no, col, name));
                    }
                }
            }
        }
    }
}

impl NoHashmapIterOrder {
    fn finding(&self, file: &SourceFile, line: usize, col: usize, name: &str) -> Finding {
        Finding {
            rule: self.id(),
            path: file.path.clone(),
            line,
            col,
            message: format!("iteration over hash container `{name}` has nondeterministic order"),
            suggestion: "collect into a Vec and sort (e.g. by key with total_cmp/Ord) before \
                         iterating, use a BTreeMap, or keep the map lookup-only"
                .to_string(),
        }
    }
}

// ---------------------------------------------------------------------
// counter-naming
// ---------------------------------------------------------------------

/// Metric and span names follow the registry convention
/// `area.snake_case` (≥ 2 dot-separated segments, each
/// `[a-z][a-z0-9_]*`): exporters group by the area prefix and the
/// Prometheus mangler assumes it.
pub struct CounterNaming;

const NAME_MACROS: &[&str] = &["counter!", "gauge!", "histogram!", "span!", "span_linked!"];

fn valid_metric_name(name: &str) -> bool {
    let segs: Vec<&str> = name.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| {
            let mut ch = s.chars();
            matches!(ch.next(), Some(c) if c.is_ascii_lowercase())
                && ch.all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
}

impl Rule for CounterNaming {
    fn id(&self) -> &'static str {
        "counter-naming"
    }
    fn summary(&self) -> &'static str {
        "metric/span name literals match the `area.snake_case` registry convention"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        for (line_no, text) in file.prod_lines() {
            for mac in NAME_MACROS {
                for col in token_cols(text, mac) {
                    // First string literal after the macro on this line is
                    // the name argument; a non-literal name is not checkable.
                    let Some(lit) =
                        file.lexed.strings.iter().find(|s| s.line == line_no && s.col > col)
                    else {
                        continue;
                    };
                    if !valid_metric_name(&lit.content) {
                        out.push(Finding {
                            rule: self.id(),
                            path: file.path.clone(),
                            line: line_no,
                            col: lit.col,
                            message: format!(
                                "metric/span name `{}` does not match `area.snake_case`",
                                lit.content
                            ),
                            suggestion: "name it `<area>.<metric>` with lowercase snake_case \
                                         segments, e.g. `optics.distance_calls`"
                                .to_string(),
                        });
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// lock-order
// ---------------------------------------------------------------------

/// The PR 8 deadlock convention in `db-serve`: the `live` compression
/// lock is never acquired while the `cache` artifact lock is held
/// (`live → cache` is the only legal nesting). This is an
/// acquisition-site scan per function body — it cannot see guard drops,
/// so a false positive on a genuinely dropped guard is silenced with an
/// allow comment explaining the drop.
pub struct LockOrder;

#[derive(PartialEq, Clone, Copy)]
enum LockKind {
    Cache,
    Live,
}

impl LockOrder {
    /// Classifies the lock acquisition at byte `pos` (the `lock` token)
    /// of `body`, from the receiver text before it and the argument text
    /// after it.
    fn classify(body: &str, pos: usize, after_open: usize) -> Option<LockKind> {
        // Receiver: identifier/path chars walking backwards.
        let recv_start = body[..pos]
            .rfind(|c: char| !(c.is_alphanumeric() || "._&: ".contains(c)))
            .map(|p| p + 1)
            .unwrap_or(0);
        // Arguments: to the matching close paren.
        let bytes = body.as_bytes();
        let mut depth = 0i32;
        let mut end = after_open;
        while end < bytes.len() {
            match bytes[end] {
                b'(' => depth += 1,
                b')' => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            end += 1;
        }
        let ctx = &body[recv_start..end.min(body.len())];
        if ctx.contains("cache") {
            Some(LockKind::Cache)
        } else if ctx.contains("live") {
            Some(LockKind::Live)
        } else {
            None
        }
    }
}

impl Rule for LockOrder {
    fn id(&self) -> &'static str {
        "lock-order"
    }
    fn summary(&self) -> &'static str {
        "db-serve never acquires `live` while `cache` is held (deadlock convention)"
    }
    fn check(&self, file: &SourceFile, out: &mut Vec<Finding>) {
        if file.crate_name != "serve" {
            return;
        }
        let masked = &file.lexed.masked;
        let bytes = masked.as_bytes();
        // Find each `fn` and scan its body.
        let mut search = 0usize;
        while let Some(p) = masked[search..].find("fn ") {
            let fn_at = search + p;
            search = fn_at + 3;
            if fn_at > 0 && is_ident_char(bytes[fn_at - 1]) {
                continue; // part of another identifier
            }
            // Body: next `{` to its matching `}`.
            let Some(open_rel) = masked[fn_at..].find('{') else { continue };
            let open = fn_at + open_rel;
            let mut depth = 0i32;
            let mut close = open;
            while close < bytes.len() {
                match bytes[close] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                close += 1;
            }
            let body = &masked[open..close.min(masked.len())];

            // Ordered scan of lock acquisitions inside the body.
            let mut cache_at: Option<usize> = None;
            let mut from = 0usize;
            while let Some(q) = body[from..].find("lock") {
                let at = from + q;
                from = at + 4;
                let before_ok = at == 0 || !is_ident_char(body.as_bytes()[at - 1]);
                let after = body[at + 4..].trim_start();
                if !before_ok || !(after.starts_with('(') || body[at + 4..].starts_with("()")) {
                    continue;
                }
                let open_paren = at + 4 + (body[at + 4..].find('(').unwrap_or(0));
                match Self::classify(body, at, open_paren) {
                    Some(LockKind::Cache) => cache_at = Some(at),
                    Some(LockKind::Live) if cache_at.is_some() => {
                        let line = open + at; // byte offset in masked
                        let line_no = masked[..line].matches('\n').count() + 1;
                        let col = line - masked[..line].rfind('\n').map(|x| x + 1).unwrap_or(0) + 1;
                        out.push(Finding {
                            rule: self.id(),
                            path: file.path.clone(),
                            line: line_no,
                            col,
                            message: "`live` acquired after `cache` in the same function \
                                      (lock-order inversion risk)"
                                .to_string(),
                            suggestion: "acquire `live` first (live → cache is the only \
                                         legal nesting); if the cache guard is provably \
                                         dropped, allow with the reason"
                                .to_string(),
                        });
                    }
                    _ => {}
                }
            }
            search = close.min(masked.len()).max(search);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cols_respects_word_boundaries() {
        assert_eq!(token_cols("x.unwrap() unwrap_or", ".unwrap()"), vec![2]);
        assert_eq!(token_cols("partial_cmp my_partial_cmp", "partial_cmp"), vec![1]);
        assert_eq!(token_cols("a as u32, b as u321", "as u32"), vec![3]);
    }

    #[test]
    fn metric_name_validation() {
        assert!(valid_metric_name("optics.distance_calls"));
        assert!(valid_metric_name("serve.ingest.batch_points"));
        assert!(!valid_metric_name("x"));
        assert!(!valid_metric_name("Optics.calls"));
        assert!(!valid_metric_name("optics."));
        assert!(!valid_metric_name("optics.Calls"));
        assert!(!valid_metric_name(".calls"));
    }

    #[test]
    fn hashmap_binding_extraction() {
        let l = "    let mut region_of: HashMap<Vec<u16>, u32> = HashMap::new();";
        let col = token_cols(l, "HashMap")[0];
        assert_eq!(NoHashmapIterOrder::binding_name(l, col), Some("region_of".to_string()));
        let l2 = "    let mut counts = std::collections::HashMap::new();";
        let col2 = token_cols(l2, "HashMap")[0];
        assert_eq!(NoHashmapIterOrder::binding_name(l2, col2), Some("counts".to_string()));
    }
}
