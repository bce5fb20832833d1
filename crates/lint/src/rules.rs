//! The invariant rules: what `imdpp-lint` denies and why.
//!
//! Every rule here encodes an invariant the test suite can only check
//! *dynamically* (and often only probabilistically); the lint moves the
//! check to `cargo` time.  Each rule names the incident that motivated it —
//! see `docs/INVARIANTS.md` for the full catalogue.
//!
//! The rules are deliberately heuristic: they run over the token stream of
//! [`crate::lexer`], not a typed AST, so they over-approximate (flagging
//! some sound sites, silenced with a justified
//! `// lint: allow(<rule>) — why` annotation) and under-approximate (a
//! hash container smuggled through enough indirection escapes).  The
//! deny-by-default direction is the point: a new nondeterminism hazard
//! fails the build until a human either fixes it or writes down why it is
//! sound, and `tests/parallel_determinism.rs` remains the ground truth.

use crate::annotations::Allows;
use crate::lexer::{lex, Lexed, Token, TokenKind};
use std::collections::BTreeSet;

/// Rule identifiers (these appear in `allow(...)` annotations and reports).
pub const RULE_HASH_ORDER: &str = "hash-order";
pub const RULE_FLOAT_ACCUM: &str = "float-accum";
pub const RULE_ATOMIC_ORDERING: &str = "atomic-ordering";
pub const RULE_ATOMIC_SEQCST: &str = "atomic-seqcst";
pub const RULE_CLOCK: &str = "clock";
pub const RULE_SPAWN: &str = "spawn";
pub const RULE_PANIC_BUDGET: &str = "panic-budget";
pub const RULE_BAD_ANNOTATION: &str = "bad-annotation";
pub const RULE_UNUSED_ALLOW: &str = "unused-allow";
pub const RULE_REPO_HYGIENE: &str = "repo-hygiene";

/// Crates whose iteration order can feed RNG streams, edge order or greedy
/// tie-breaks; hash-container iteration is denied there (PR 1's bug class:
/// `HashSet` iteration fed `endpoints` in the generators).
const HASH_SCOPED_CRATES: &[&str] = &["graph", "kg", "diffusion", "core", "sketch"];

/// Selection / repair path files where accumulated float state is denied
/// (PR 7's bug class: a running `+=` gain sum in CELF diverged by ulps from
/// the oracle's exact value and broke prefix reproduction).
const FLOAT_SCOPED_FILES: &[&str] = &[
    "crates/core/src/nominees.rs",
    "crates/core/src/submodular.rs",
    "crates/core/src/dysim.rs",
    "crates/core/src/tdsi.rs",
    "crates/core/src/dre.rs",
    "crates/sketch/src/maintain.rs",
];

/// Identifier fragments that mark a statement as handling oracle-derived
/// float values (as opposed to integer bookkeeping like `evaluations += 1`).
const FLOAT_MARKERS: &[&str] = &[
    "gain",
    "value",
    "cost",
    "spent",
    "sigma",
    "spread",
    "marginal",
    "objective",
];

/// Where reading the clock is part of the job: the telemetry layer and the
/// benches.  Everywhere else a clock read needs an `allow(clock)` naming the
/// telemetry span it feeds.
const CLOCK_ALLOWED_PREFIXES: &[&str] = &["crates/obs/", "crates/bench/"];

/// The only file allowed to create threads: the suite's one work-queue.
/// Ad-hoc threads elsewhere bypass `par::effective_threads` and the
/// task-owns-its-state discipline that makes scheduling irrelevant to
/// results.
const SPAWN_ALLOWED_FILES: &[&str] = &["crates/diffusion/src/par.rs"];

/// Hash-container methods whose result order is the hasher's, not the
/// program's.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
    "intersection",
    "union",
    "difference",
    "symmetric_difference",
];

/// Atomic memory orderings that require a justification annotation.  The
/// documented policy (crates/obs) is relaxed or acquire/release with a
/// reason; `SeqCst` is denied outright — it papers over a protocol the
/// author could not state, at a cost on every armv8/ppc fence.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel"];

/// One finding: a rule violation at a location.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    pub message: String,
}

/// Result of linting one file: findings plus the panic sites (the latter
/// are aggregated into per-crate budgets by the workspace driver rather
/// than reported per site).
#[derive(Debug, Default)]
pub struct FileLint {
    pub findings: Vec<Finding>,
    /// Lines of `.unwrap()` / `.expect(` / `panic!` sites.
    pub panic_sites: Vec<usize>,
}

/// Lints one file's source. `rel_path` must be repo-relative with `/`
/// separators (it drives the per-rule scoping).
pub fn lint_file(rel_path: &str, source: &str) -> FileLint {
    let lexed = lex(source);
    let allows = Allows::parse(&lexed);
    let depths = bracket_depths(&lexed.tokens);
    let mut used_allows: BTreeSet<usize> = BTreeSet::new();
    let mut raw: Vec<Finding> = Vec::new();

    check_hash_order(rel_path, &lexed, &depths, &mut raw);
    check_float_accum(rel_path, &lexed, &depths, &mut raw);
    check_atomics(rel_path, &lexed, &mut raw);
    check_clock(rel_path, &lexed, &mut raw);
    check_spawn(rel_path, &lexed, &mut raw);

    // Deduplicate (two detectors can flag the same line) and apply allows.
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    raw.dedup_by(|a, b| a.line == b.line && a.rule == b.rule);
    let mut findings: Vec<Finding> = Vec::new();
    for f in raw {
        // `atomic-seqcst` is not suppressible: no allow lookup at all.
        if f.rule != RULE_ATOMIC_SEQCST {
            if let Some(ix) = allows.covering(f.rule, f.line) {
                if allows.all()[ix].justified {
                    used_allows.insert(ix);
                    continue;
                }
            }
        }
        findings.push(f);
    }

    // Annotation hygiene: unjustified allows and allows nothing consumed.
    for (ix, a) in allows.all().iter().enumerate() {
        if !a.justified {
            findings.push(Finding {
                rule: RULE_BAD_ANNOTATION,
                path: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "allow({}) has no justification — write `// lint: allow({}) — <why>`",
                    a.rules.join(", "),
                    a.rules.join(", "),
                ),
            });
        } else if !used_allows.contains(&ix) {
            findings.push(Finding {
                rule: RULE_UNUSED_ALLOW,
                path: rel_path.to_string(),
                line: a.line,
                message: format!(
                    "allow({}) suppresses nothing — remove the stale annotation",
                    a.rules.join(", ")
                ),
            });
        }
    }
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    FileLint {
        findings,
        panic_sites: panic_sites(&lexed),
    }
}

/// Bracket depth per token (all of `()[]{}` count — the rules only need a
/// consistent notion of "same nesting level").
fn bracket_depths(tokens: &[Token]) -> Vec<usize> {
    let mut depth = 0usize;
    let mut out = Vec::with_capacity(tokens.len());
    for t in tokens {
        match t.text.as_str() {
            "(" | "[" | "{" => {
                out.push(depth);
                depth += 1;
            }
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                out.push(depth);
            }
            _ => out.push(depth),
        }
    }
    out
}

fn ident_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Ident && t.text == text)
}

fn punct_at(tokens: &[Token], i: usize, text: &str) -> bool {
    tokens
        .get(i)
        .is_some_and(|t| t.kind == TokenKind::Punct && t.text == text)
}

fn is_hash_container(text: &str) -> bool {
    text == "HashMap" || text == "HashSet"
}

/// The budget key a repo-relative path belongs to: `crates/<name>/…` maps to
/// `<name>`, the root `src/`, `tests/` and `examples/` trees to pseudo-crates.
pub fn budget_key(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crates").to_string(),
        Some("src") => "suite".to_string(),
        Some("tests") => "tests".to_string(),
        Some("examples") => "examples".to_string(),
        Some(other) => other.to_string(),
        None => rel_path.to_string(),
    }
}

fn crate_of(rel_path: &str) -> Option<&str> {
    rel_path.strip_prefix("crates/")?.split('/').next()
}

// ---------------------------------------------------------------------------
// hash-order
// ---------------------------------------------------------------------------

/// Flags iteration over `HashMap` / `HashSet` in the RNG- and
/// selection-feeding crates.  Tracking is name-based: identifiers bound (by
/// `let`, field or parameter position) to a statement mentioning a hash
/// container are considered hash-ordered until rebound to something else.
fn check_hash_order(rel_path: &str, lexed: &Lexed, depths: &[usize], out: &mut Vec<Finding>) {
    let Some(krate) = crate_of(rel_path) else {
        return;
    };
    if !HASH_SCOPED_CRATES.contains(&krate) {
        return;
    }
    let tokens = &lexed.tokens;

    // Pending set mutations: (apply-at-index, name, insert?)
    let mut pending: Vec<(usize, String, bool)> = Vec::new();
    let mut hash_idents: BTreeSet<String> = BTreeSet::new();

    // Field / parameter ascriptions take effect immediately: walking left
    // from a container token over path segments to find `name :`.
    for i in 0..tokens.len() {
        if tokens[i].kind == TokenKind::Ident && is_hash_container(&tokens[i].text) {
            let mut j = i;
            while j >= 1 {
                let prev = &tokens[j - 1];
                let skip = prev.text == "::"
                    || prev.text == "&"
                    || prev.text == "mut"
                    || (prev.kind == TokenKind::Ident && j >= 2 && punct_at(tokens, j - 2, "::"));
                if skip {
                    j -= 1;
                } else {
                    break;
                }
            }
            if j >= 2 && punct_at(tokens, j - 1, ":") && tokens[j - 2].kind == TokenKind::Ident {
                hash_idents.insert(tokens[j - 2].text.clone());
            }
        }
    }

    // `let` bindings: insertion or (rebinding) removal, effective after the
    // statement ends so `let v: Vec<_> = set.into_iter()…` still sees `set`.
    for i in 0..tokens.len() {
        if !ident_at(tokens, i, "let") {
            continue;
        }
        let mut j = i + 1;
        if ident_at(tokens, j, "mut") {
            j += 1;
        }
        if tokens.get(j).map(|t| t.kind) != Some(TokenKind::Ident) {
            continue; // destructuring pattern: not tracked
        }
        let name = tokens[j].text.clone();
        let d = depths[i];
        let mut end = j;
        let mut mentions_hash = false;
        while end < tokens.len() {
            if tokens[end].kind == TokenKind::Ident && is_hash_container(&tokens[end].text) {
                mentions_hash = true;
            }
            if punct_at(tokens, end, ";") && depths[end] <= d {
                break;
            }
            end += 1;
        }
        pending.push((end + 1, name, mentions_hash));
    }
    pending.sort_by_key(|p| p.0);

    let mut pending_iter = pending.into_iter().peekable();
    for i in 0..tokens.len() {
        while let Some((at, _, _)) = pending_iter.peek() {
            if *at <= i {
                let (_, name, insert) = pending_iter.next().expect("peeked");
                if insert {
                    hash_idents.insert(name);
                } else {
                    hash_idents.remove(&name);
                }
            } else {
                break;
            }
        }
        let t = &tokens[i];
        // `recv.iter()` — receiver identifier directly before the dot.
        if t.kind == TokenKind::Ident
            && HASH_ITER_METHODS.contains(&t.text.as_str())
            && punct_at(tokens, i + 1, "(")
            && i >= 2
            && punct_at(tokens, i - 1, ".")
            && tokens[i - 2].kind == TokenKind::Ident
            && (hash_idents.contains(&tokens[i - 2].text) || is_hash_container(&tokens[i - 2].text))
        {
            out.push(Finding {
                rule: RULE_HASH_ORDER,
                path: rel_path.to_string(),
                line: t.line,
                message: format!(
                    "`{}.{}()` iterates a hash container in a determinism-scoped crate; \
                     iterate a BTreeMap/sorted Vec instead, or justify why order cannot \
                     reach RNG, edge order or selection",
                    tokens[i - 2].text,
                    t.text
                ),
            });
        }
        // `for pat in <expr containing a hash ident> {`
        if ident_at(tokens, i, "for") {
            let d = depths[i];
            let mut j = i + 1;
            let mut in_ix = None;
            while j < tokens.len() && j < i + 64 {
                if ident_at(tokens, j, "in") && depths[j] == d {
                    in_ix = Some(j);
                    break;
                }
                j += 1;
            }
            if let Some(in_ix) = in_ix {
                let mut k = in_ix + 1;
                while k < tokens.len() {
                    if punct_at(tokens, k, "{") && depths[k] == d {
                        break;
                    }
                    let tk = &tokens[k];
                    if tk.kind == TokenKind::Ident
                        && (hash_idents.contains(&tk.text) || is_hash_container(&tk.text))
                    {
                        out.push(Finding {
                            rule: RULE_HASH_ORDER,
                            path: rel_path.to_string(),
                            line: tokens[i].line,
                            message: format!(
                                "`for … in` over hash-ordered `{}` in a determinism-scoped \
                                 crate; iterate a BTreeMap/sorted Vec instead, or justify \
                                 why order cannot reach RNG, edge order or selection",
                                tk.text
                            ),
                        });
                        break;
                    }
                    k += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// float-accum
// ---------------------------------------------------------------------------

/// Flags running float accumulation (`+=`, `.sum()`) over oracle-derived
/// values in the selection / repair path files.  Integer bookkeeping
/// (`evaluations += 1`) carries none of the [`FLOAT_MARKERS`] and passes.
fn check_float_accum(rel_path: &str, lexed: &Lexed, depths: &[usize], out: &mut Vec<Finding>) {
    if !FLOAT_SCOPED_FILES.contains(&rel_path) {
        return;
    }
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        let is_plus_eq = punct_at(tokens, i, "+=");
        let is_sum = ident_at(tokens, i, "sum")
            && punct_at(tokens, i + 1, "(")
            && i >= 1
            && punct_at(tokens, i - 1, ".");
        let is_turbofish_sum = ident_at(tokens, i, "sum")
            && punct_at(tokens, i + 1, "::")
            && i >= 1
            && punct_at(tokens, i - 1, ".");
        if !is_plus_eq && !is_sum && !is_turbofish_sum {
            continue;
        }
        let (start, end) = statement_span(tokens, depths, i);
        let marker = tokens[start..end].iter().find(|t| {
            t.kind == TokenKind::Ident
                && FLOAT_MARKERS
                    .iter()
                    .any(|m| t.text.to_ascii_lowercase().contains(m))
        });
        if let Some(m) = marker {
            let op = if is_plus_eq { "+=" } else { ".sum()" };
            out.push(Finding {
                rule: RULE_FLOAT_ACCUM,
                path: rel_path.to_string(),
                line: tokens[i].line,
                message: format!(
                    "`{op}` accumulates `{}`-like float state on a selection/repair path; \
                     install the oracle's exact value instead of a running sum, or justify \
                     why accumulated rounding cannot reach the greedy trace",
                    m.text
                ),
            });
        }
    }
}

/// The token span of the statement containing `i`: from after the previous
/// `;` / `{` / `}` at or below the token's depth to the next `;` at or
/// below it.
fn statement_span(tokens: &[Token], depths: &[usize], i: usize) -> (usize, usize) {
    let d = depths[i];
    let mut start = i;
    while start > 0 {
        let p = &tokens[start - 1];
        if depths[start - 1] <= d && matches!(p.text.as_str(), ";" | "{" | "}") {
            break;
        }
        start -= 1;
    }
    let mut end = i;
    while end < tokens.len() {
        if depths[end] <= d && punct_at(tokens, end, ";") {
            break;
        }
        end += 1;
    }
    (start, end.min(tokens.len()))
}

// ---------------------------------------------------------------------------
// atomic-ordering / atomic-seqcst
// ---------------------------------------------------------------------------

/// Every atomic `Ordering::…` site must justify its ordering; `SeqCst` is
/// denied with no escape hatch.  (`cmp::Ordering`'s variants — `Less`,
/// `Equal`, `Greater` — do not collide with the atomic names.)
fn check_atomics(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        if !ident_at(tokens, i, "Ordering") || !punct_at(tokens, i + 1, "::") {
            continue;
        }
        let Some(variant) = tokens.get(i + 2) else {
            continue;
        };
        if variant.text == "SeqCst" {
            out.push(Finding {
                rule: RULE_ATOMIC_SEQCST,
                path: rel_path.to_string(),
                line: variant.line,
                message: "Ordering::SeqCst is denied (not suppressible): state the actual \
                          protocol with Relaxed/Acquire/Release and an allow(atomic-ordering) \
                          justification"
                    .to_string(),
            });
        } else if ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
            out.push(Finding {
                rule: RULE_ATOMIC_ORDERING,
                path: rel_path.to_string(),
                line: variant.line,
                message: format!(
                    "atomic Ordering::{} needs a justification — \
                     `// lint: allow(atomic-ordering) — <why this ordering suffices>`",
                    variant.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// clock
// ---------------------------------------------------------------------------

/// `Instant::now` / `SystemTime::now` outside the telemetry layer and the
/// benches must name the telemetry span or measurement they feed.  Clock
/// reads anywhere else are how wall-clock sneaks into adaptive logic and
/// breaks replayability.
fn check_clock(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    if CLOCK_ALLOWED_PREFIXES
        .iter()
        .any(|p| rel_path.starts_with(p))
    {
        return;
    }
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        let is_clock = (ident_at(tokens, i, "Instant") || ident_at(tokens, i, "SystemTime"))
            && punct_at(tokens, i + 1, "::")
            && ident_at(tokens, i + 2, "now");
        if is_clock {
            out.push(Finding {
                rule: RULE_CLOCK,
                path: rel_path.to_string(),
                line: tokens[i].line,
                message: format!(
                    "`{}::now()` outside crates/obs and crates/bench — annotate the \
                     telemetry span it feeds with `// lint: allow(clock) — <span>`",
                    tokens[i].text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// spawn
// ---------------------------------------------------------------------------

/// `thread::spawn` / `thread::scope` outside the work-queue module: ad-hoc
/// threads bypass `par::effective_threads` and the task ownership that
/// keeps scheduling out of results.
fn check_spawn(rel_path: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    if SPAWN_ALLOWED_FILES.contains(&rel_path) {
        return;
    }
    let tokens = &lexed.tokens;
    for i in 0..tokens.len() {
        let is_spawn = ident_at(tokens, i, "thread")
            && punct_at(tokens, i + 1, "::")
            && (ident_at(tokens, i + 2, "spawn") || ident_at(tokens, i + 2, "scope"));
        if is_spawn {
            out.push(Finding {
                rule: RULE_SPAWN,
                path: rel_path.to_string(),
                line: tokens[i].line,
                message: "thread creation outside imdpp_diffusion::par — route work \
                          through par::run_queue, or justify the harness thread with \
                          `// lint: allow(spawn) — <why>`"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// panic sites (aggregated into budgets by the workspace driver)
// ---------------------------------------------------------------------------

/// Lines of `.unwrap()`, `.expect(…)` and `panic!` sites.  `unwrap_or*`,
/// `unwrap_err`, `expect_err` are different identifiers and do not count.
fn panic_sites(lexed: &Lexed) -> Vec<usize> {
    let tokens = &lexed.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let t = &tokens[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let dotted = i >= 1 && punct_at(tokens, i - 1, ".");
        let called = punct_at(tokens, i + 1, "(");
        let site = (t.text == "unwrap" && dotted && called && punct_at(tokens, i + 2, ")"))
            || (t.text == "expect" && dotted && called)
            || (t.text == "panic" && punct_at(tokens, i + 1, "!"));
        if site {
            out.push(t.line);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Finding> {
        lint_file(path, src).findings
    }

    #[test]
    fn budget_keys_map_paths() {
        assert_eq!(budget_key("crates/engine/src/lib.rs"), "engine");
        assert_eq!(budget_key("src/lib.rs"), "suite");
        assert_eq!(budget_key("tests/end_to_end.rs"), "tests");
        assert_eq!(budget_key("examples/quickstart.rs"), "examples");
    }

    #[test]
    fn hash_iteration_fires_only_in_scoped_crates() {
        let src = "fn f() { let m = std::collections::HashMap::new(); for k in m.keys() {} }";
        assert_eq!(findings("crates/graph/src/x.rs", src).len(), 1);
        assert!(findings("crates/engine/src/lib.rs", src).is_empty());
    }

    #[test]
    fn rebinding_to_vec_stops_tracking_after_the_statement() {
        let src = "\
fn f() {
    let mut s: std::collections::HashSet<u32> = std::collections::HashSet::new();
    let mut s: Vec<u32> = s.into_iter().collect();
    s.sort_unstable();
    for v in s { use_it(v); }
}
";
        let fs = findings("crates/graph/src/x.rs", src);
        // The into_iter on line 3 is flagged (still a hash set there)…
        assert_eq!(fs.iter().filter(|f| f.line == 3).count(), 1);
        // …but the loop over the sorted Vec on line 5 is not.
        assert!(fs.iter().all(|f| f.line != 5));
    }

    #[test]
    fn membership_tests_are_not_iteration() {
        let src = "fn f(s: &std::collections::HashSet<u32>) -> bool { s.contains(&3) }";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn float_accum_distinguishes_counters_from_oracle_values() {
        let src = "\
fn f() {
    let mut evaluations = 0usize;
    evaluations += 1;
    let mut current_value = 0.0;
    current_value += gain;
}
";
        let fs = findings("crates/core/src/nominees.rs", src);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 5);
        // Same code outside the scoped files: silent.
        assert!(findings("crates/graph/src/x.rs", src).is_empty());
    }

    #[test]
    fn seqcst_is_not_suppressible() {
        let src = "\
fn f(a: &std::sync::atomic::AtomicU64) {
    // lint: allow(atomic-seqcst) — trying to sneak it in
    a.load(std::sync::atomic::Ordering::SeqCst);
}
";
        let fs = findings("crates/obs/src/x.rs", src);
        assert!(fs.iter().any(|f| f.rule == RULE_ATOMIC_SEQCST));
        // The annotation itself is reported as consuming nothing.
        assert!(fs.iter().any(|f| f.rule == RULE_UNUSED_ALLOW));
    }

    #[test]
    fn relaxed_needs_and_accepts_a_justification() {
        let bare = "fn f(a: &A) { a.load(Ordering::Relaxed); }";
        let fs = findings("crates/obs/src/x.rs", bare);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].rule, RULE_ATOMIC_ORDERING);

        let ok = "\
fn f(a: &A) {
    // lint: allow(atomic-ordering) — independent counter, no ordering needed
    a.load(Ordering::Relaxed);
}
";
        assert!(findings("crates/obs/src/x.rs", ok).is_empty());
    }

    #[test]
    fn cmp_ordering_is_not_an_atomic_site() {
        let src = "fn f() { let _ = a.partial_cmp(&b).unwrap_or(Ordering::Equal); }";
        assert!(findings("crates/core/src/x.rs", src).is_empty());
    }

    #[test]
    fn clock_scope_and_annotation() {
        let src = "fn f() { let t = Instant::now(); }";
        assert!(findings("crates/obs/src/lib.rs", src).is_empty());
        assert!(findings("crates/bench/benches/b.rs", src).is_empty());
        assert_eq!(findings("crates/engine/src/lib.rs", src).len(), 1);
        assert_eq!(findings("tests/scale_store.rs", src).len(), 1);
    }

    #[test]
    fn spawn_scope() {
        let src = "fn f() { std::thread::spawn(|| {}); }";
        assert!(findings("crates/diffusion/src/par.rs", src).is_empty());
        // The parallel callers of the queue get no exemption of their own.
        for path in [
            "crates/sketch/src/sampler.rs",
            "crates/sketch/src/sharded.rs",
            "crates/diffusion/src/montecarlo.rs",
            "tests/engine_snapshot.rs",
        ] {
            assert_eq!(findings(path, src).len(), 1, "{path}");
        }
    }

    #[test]
    fn panic_sites_exclude_fallible_cousins_and_comments() {
        let src = "\
fn f(x: Option<u32>, r: Result<u32, u32>) -> u32 {
    // unwrap() in a comment does not count
    let a = x.unwrap();
    let b = r.unwrap_or(0);
    let c = r.expect(\"msg\");
    let d = r.unwrap_err();
    if a + b + c + d > 10 { panic!(\"boom\"); }
    0
}
";
        let lint = lint_file("crates/core/src/x.rs", src);
        assert_eq!(lint.panic_sites, vec![3, 5, 7]);
    }

    #[test]
    fn unjustified_allow_is_a_finding_and_does_not_suppress() {
        let src = "\
fn f() {
    // lint: allow(clock)
    let t = Instant::now();
}
";
        let fs = findings("crates/engine/src/lib.rs", src);
        assert!(fs.iter().any(|f| f.rule == RULE_CLOCK));
        assert!(fs.iter().any(|f| f.rule == RULE_BAD_ANNOTATION));
    }
}
