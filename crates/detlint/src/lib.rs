//! detlint — the workspace determinism & robustness lint engine.
//!
//! The simulator's headline guarantee is *bit-replayability*: the same
//! scenario seed must produce byte-identical scorecards on every run,
//! every machine, every thread count. That guarantee has been broken
//! exactly once — by a floating-point fold over `HashMap` iteration
//! order, whose per-process randomization produced ULP-level drift that
//! flipped a routing decision. The type system cannot express "this
//! collection's iteration order is unspecified", so this crate enforces
//! it at the source level instead.
//!
//! Five rules (see [`RULES`]):
//!
//! | rule | catches | where |
//! |------|---------|-------|
//! | `unordered-iter` | iterating a `HashMap`/`HashSet` | determinism-critical crates |
//! | `wall-clock` | `Instant::now` / `SystemTime::now` | everywhere but bench + examples |
//! | `unseeded-rng` | `thread_rng` / `from_entropy` / `OsRng` | non-test code |
//! | `float-unordered-fold` | `.sum::<f64>()` / `.fold(..)` over a hash collection | determinism-critical crates |
//! | `bare-panic` | `.unwrap()` / `.expect()` / `panic!` | hot-path modules |
//!
//! A finding is suppressed by an inline annotation **with a
//! justification** — the justification is not optional:
//!
//! ```text
//! // detlint: allow(wall-clock) — fit_time is a reported measurement,
//! // never fed back into a decision.
//! ```
//!
//! A malformed annotation (unknown rule, missing justification) is
//! itself a finding under the pseudo-rule `bad-allow`, so the escape
//! hatch cannot silently rot.
//!
//! The analysis is lexical + local (a hand-rolled tokenizer, a per-file
//! symbol table of hash-typed names, and backward receiver-chain
//! resolution). It is deliberately dependency-free: a lint that gates
//! CI must never be the thing that fails to build offline.

pub mod tokenize;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use tokenize::{lex, Comment, TokKind, Token};

/// All rules, in severity-then-name order. `bad-allow` is the
/// pseudo-rule for malformed suppression annotations.
pub const RULES: &[&str] = &[
    "unordered-iter",
    "wall-clock",
    "unseeded-rng",
    "float-unordered-fold",
    "bare-panic",
    "bad-allow",
];

/// Unordered hash collections. `IndexMap` is *not* here: its iteration
/// order is insertion order, which is deterministic.
const HASH_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FxHashMap",
    "FxHashSet",
    "AHashMap",
    "AHashSet",
];

/// Crates whose output feeds bit-replayed scorecards. `unordered-iter`
/// and `float-unordered-fold` apply here, tests included — a test that
/// asserts on unordered iteration is a flaky test.
const CRITICAL_CRATES: &[&str] = &[
    "crates/netsim/",
    "crates/scenarios/",
    "crates/framework/",
    "crates/dataplane/",
    "crates/hecate-ml/",
    "crates/obsv/",
    "crates/obsv-analyze/",
    "crates/polka/",
];

/// Hot-path modules where `bare-panic` applies: a panic here tears down
/// a simulation or a forwarding worker mid-scenario. An entry ending in
/// `/` covers every file below it.
const BARE_PANIC_FILES: &[&str] = &[
    "crates/netsim/src/sim.rs",
    "crates/netsim/src/timeq.rs",
    // Path search: Yen's algorithm runs inside `discover_tunnels` at
    // run time.
    "crates/netsim/src/topo.rs",
    // The max-min kernel and its simulator adapter run on every
    // simulator event and every optimizer patch.
    "crates/netsim/src/maxmin.rs",
    "crates/netsim/src/fairness.rs",
    // The whole control loop: admission, consults, installs and
    // migrations, the forecast cache, the telemetry store and the
    // placement search.
    "crates/framework/src/",
    // The scenario runner drives that loop epoch by epoch; a panic
    // loses the whole scorecard. It pulls the elastic schedule stream
    // while it schedules.
    "crates/scenarios/src/runner.rs",
    "crates/scenarios/src/elastic.rs",
    "crates/dataplane/src/plane.rs",
    "crates/dataplane/src/shard.rs",
    "crates/dataplane/src/netem.rs",
    // `FlowLabel::next_port` runs once per packet per hop, and so do
    // `CoreNode::forward` and the proof-of-transit fold.
    "crates/dataplane/src/label.rs",
    "crates/polka/src/route.rs",
    "crates/polka/src/pot.rs",
    // Every model's fit and roll runs inside a consult, whichever model
    // the service was built with; bad telemetry must come back as
    // `MlError`, not abort the controller.
    "crates/hecate-ml/src/",
    // The fan-out every forecast and fit runs under.
    "crates/linalg/src/par.rs",
    // A panic in a transaction unwinds through the controller's admit,
    // and every edge configuration is parsed and resolved here.
    "crates/freertr/src/",
];

/// Method names that begin unordered iteration when called on a hash
/// collection.
const ITER_TRIGGERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// Adapters that forward the receiver unchanged for *collection*
/// resolution: `map.lock().unwrap().iter()` is still iteration over
/// `map` (`unwrap`/`expect` forward a guard's success value).
const TRANSPARENT: &[&str] = &[
    "read",
    "write",
    "lock",
    "borrow",
    "borrow_mut",
    "as_ref",
    "as_mut",
    "clone",
    "to_owned",
    "unwrap",
    "expect",
];

/// For `float-unordered-fold` the chain additionally passes through
/// iterator adapters: `map.values().map(|x| x.cost).sum::<f64>()` is
/// still an unordered reduction.
const ITER_ADAPTERS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "map",
    "filter",
    "filter_map",
    "copied",
    "cloned",
    "flatten",
    "flat_map",
    "enumerate",
    "rev",
    "skip",
    "take",
    "step_by",
    "zip",
    "chain",
    "inspect",
    "by_ref",
];

/// One diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired (one of [`RULES`]).
    pub rule: &'static str,
    /// Display path (real file on disk).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What is wrong and what to do instead.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

/// A parsed `allow` suppression annotation.
#[derive(Debug)]
struct Allow {
    rules: Vec<String>,
    /// Lines this annotation suppresses findings on.
    lines: BTreeSet<u32>,
    /// Set when the annotation is malformed; becomes a `bad-allow`.
    problem: Option<String>,
    /// Line the annotation itself sits on (for `bad-allow` reports).
    at_line: u32,
}

/// Per-file symbol table: names whose type mentions a hash collection.
#[derive(Debug, Default)]
struct Symbols {
    /// Variables, fields and parameters.
    vars: BTreeSet<String>,
    /// Functions whose return type mentions a hash collection.
    fns: BTreeSet<String>,
    /// Fn parameters with *non*-hash types that shadow a hash-typed
    /// name elsewhere in the file: (name, body token range). Inside the
    /// range a bare use of the name resolves to the parameter.
    shadows: Vec<(String, usize, usize)>,
}

impl Symbols {
    /// True if a bare use of `name` at token `at` is shadowed by a
    /// non-hash fn parameter.
    fn shadowed(&self, name: &str, at: usize) -> bool {
        self.shadows
            .iter()
            .any(|(n, lo, hi)| n == name && (*lo..=*hi).contains(&at))
    }
}

fn is_hash_type(name: &str) -> bool {
    HASH_TYPES.contains(&name)
}

fn is_critical(vpath: &str) -> bool {
    CRITICAL_CRATES.iter().any(|c| vpath.starts_with(c))
}

fn wall_clock_exempt(vpath: &str) -> bool {
    vpath.starts_with("crates/bench/")
        || vpath.starts_with("examples/")
        || vpath.contains("/examples/")
}

fn bare_panic_target(vpath: &str) -> bool {
    BARE_PANIC_FILES
        .iter()
        .any(|f| vpath == *f || (f.ends_with('/') && vpath.starts_with(f)))
}

fn is_test_path(vpath: &str) -> bool {
    vpath.starts_with("tests/") || vpath.contains("/tests/") || vpath.ends_with("/tests.rs")
}

/// Scan one file's source. `vpath` is the workspace-relative path used
/// for rule scoping (fixtures override it via a
/// `// detlint-fixture-path: <path>` directive on the first lines);
/// `display_path` is what diagnostics print.
pub fn scan_source(display_path: &str, vpath: &str, src: &str) -> Vec<Finding> {
    let (toks, comments) = lex(src);
    let vpath = fixture_path_override(&comments).unwrap_or_else(|| vpath.to_string());
    let lines: Vec<&str> = src.lines().collect();
    let snippet = |line: u32| -> String {
        lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    };

    let in_test = test_regions(&toks);
    let syms = collect_symbols(&toks);
    let allows = parse_allows(&comments, &toks);

    let mut found: Vec<Finding> = Vec::new();
    let mut emit = |rule: &'static str, tok: &Token, message: String| {
        found.push(Finding {
            rule,
            path: display_path.to_string(),
            line: tok.line,
            col: tok.col,
            message,
            snippet: snippet(tok.line),
        });
    };

    let critical = is_critical(&vpath);
    let panics_here = bare_panic_target(&vpath);
    let testy_path = is_test_path(&vpath);

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1);
        let prev = i.checked_sub(1).map(|j| &toks[j]);

        // --- wall-clock ---------------------------------------------
        if matches!(
            t.text.as_str(),
            "Instant" | "SystemTime" | "Utc" | "Local" | "Date"
        ) && next.is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.is_ident("now"))
            && !wall_clock_exempt(&vpath)
        {
            emit(
                "wall-clock",
                t,
                format!(
                    "`{}::now()` reads the wall clock; simulated time must come \
                     from the event clock so runs are bit-replayable",
                    t.text
                ),
            );
        }

        // --- unseeded-rng -------------------------------------------
        if !in_test[i] && !testy_path {
            let rng_hit = match t.text.as_str() {
                "thread_rng" if next.is_some_and(|n| n.is_punct("(")) => true,
                "from_entropy" | "from_os_rng" | "from_rng_os"
                    if prev.is_some_and(|p| p.is_punct("::") || p.is_punct(".")) =>
                {
                    true
                }
                "OsRng" => true,
                "random"
                    if prev.is_some_and(|p| p.is_punct("::"))
                        && i >= 2
                        && toks[i - 2].is_ident("rand") =>
                {
                    true
                }
                _ => false,
            };
            if rng_hit {
                emit(
                    "unseeded-rng",
                    t,
                    format!(
                        "`{}` draws ambient entropy; all randomness must flow \
                         from an explicit u64 scenario seed",
                        t.text
                    ),
                );
            }
        }

        // --- bare-panic ---------------------------------------------
        if panics_here && !in_test[i] {
            let hit = match t.text.as_str() {
                "unwrap" | "expect" => {
                    prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("("))
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    next.is_some_and(|n| n.is_punct("!"))
                }
                _ => false,
            };
            if hit {
                emit(
                    "bare-panic",
                    t,
                    format!(
                        "`{}` can tear down a simulation or forwarding worker \
                         mid-scenario; return an error instead",
                        t.text
                    ),
                );
            }
        }

        if !critical {
            continue;
        }

        // --- unordered-iter -----------------------------------------
        if ITER_TRIGGERS.contains(&t.text.as_str())
            && prev.is_some_and(|p| p.is_punct("."))
            && next.is_some_and(|n| n.is_punct("("))
        {
            if let Some(recv) = hash_receiver(&toks, i - 1, &syms, TRANSPARENT) {
                emit(
                    "unordered-iter",
                    t,
                    format!(
                        "`.{}()` on `{}` iterates a hash collection in \
                         unspecified order; use BTreeMap/BTreeSet or collect \
                         and sort first",
                        t.text, recv
                    ),
                );
            }
        }

        // `for x in map` / `for x in &self.flows` — iteration without a
        // method call. Chains containing `(` are left to the method
        // triggers above.
        if t.is_ident("for") {
            if let Some((name, at)) = for_loop_hash_expr(&toks, i, &syms) {
                emit(
                    "unordered-iter",
                    &toks[at],
                    format!(
                        "`for` loop over hash collection `{name}` iterates in \
                         unspecified order; use BTreeMap/BTreeSet or sort first"
                    ),
                );
            }
        }

        // --- float-unordered-fold -----------------------------------
        let float_hit = match t.text.as_str() {
            "sum" | "product" => {
                prev.is_some_and(|p| p.is_punct("."))
                    && next.is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct("<"))
                    && toks
                        .get(i + 3)
                        .is_some_and(|n| n.is_ident("f32") || n.is_ident("f64"))
            }
            "fold" => {
                prev.is_some_and(|p| p.is_punct(".")) && next.is_some_and(|n| n.is_punct("("))
            }
            _ => false,
        };
        if float_hit {
            let mut through: Vec<&str> =
                Vec::with_capacity(TRANSPARENT.len() + ITER_ADAPTERS.len());
            through.extend_from_slice(TRANSPARENT);
            through.extend_from_slice(ITER_ADAPTERS);
            if let Some(recv) = hash_receiver(&toks, i - 1, &syms, &through) {
                emit(
                    "float-unordered-fold",
                    t,
                    format!(
                        "floating-point reduction over hash collection `{recv}`: \
                         iteration order changes the rounding, which has flipped \
                         routing decisions before; sort the terms first"
                    ),
                );
            }
        }
    }

    // Apply suppressions, then append bad-allow findings.
    let mut out: Vec<Finding> = found
        .into_iter()
        .filter(|f| {
            !allows.iter().any(|a| {
                a.problem.is_none()
                    && a.rules.iter().any(|r| r == f.rule)
                    && a.lines.contains(&f.line)
            })
        })
        .collect();
    for a in &allows {
        if let Some(problem) = &a.problem {
            out.push(Finding {
                rule: "bad-allow",
                path: display_path.to_string(),
                line: a.at_line,
                col: 1,
                message: format!(
                    "malformed detlint allow: {problem} — write \
                     `// detlint: allow(<rule>) — <why it is sound>`"
                ),
                snippet: snippet(a.at_line),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// `// detlint-fixture-path: crates/netsim/src/lib.rs` in the first
/// lines of a fixture makes the engine scope rules as if the snippet
/// lived at that path.
fn fixture_path_override(comments: &[Comment]) -> Option<String> {
    comments
        .iter()
        .filter(|c| c.line <= 5)
        .find_map(|c| {
            c.text
                .split_once("detlint-fixture-path:")
                .map(|(_, rest)| rest.trim().to_string())
        })
        .filter(|p| !p.is_empty())
}

/// Per-token "inside a test region" flags, computed by tracking
/// `#[test]` / `#[cfg(test)]` attributes and brace depth.
fn test_regions(toks: &[Token]) -> Vec<bool> {
    let mut out = vec![false; toks.len()];
    let mut depth = 0u32;
    let mut stack: Vec<u32> = Vec::new();
    let mut pending = false;
    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        if t.is_punct("#") && toks.get(i + 1).is_some_and(|n| n.is_punct("[")) {
            // scan the attribute group; #[cfg(not(test))] must not arm
            let mut j = i + 2;
            let mut d = 1u32;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && d > 0 {
                let tj = &toks[j];
                if tj.is_punct("[") {
                    d += 1;
                } else if tj.is_punct("]") {
                    d -= 1;
                } else if tj.is_ident("test") || tj.is_ident("proptest") {
                    has_test = true;
                } else if tj.is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                pending = true;
            }
            let inside = !stack.is_empty();
            for flag in out.iter_mut().take(j).skip(i) {
                *flag = inside;
            }
            i = j;
            continue;
        }
        if t.is_punct("{") {
            depth += 1;
            if pending {
                stack.push(depth);
                pending = false;
            }
        } else if t.is_punct("}") {
            if stack.last() == Some(&depth) {
                stack.pop();
            }
            depth = depth.saturating_sub(1);
        } else if t.is_punct(";") && pending && stack.is_empty() {
            // attribute landed on a body-less item (`mod tests;`)
            pending = false;
        }
        out[i] = !stack.is_empty();
        i += 1;
    }
    out
}

/// Collect names whose declared type or initializer mentions a hash
/// collection: struct fields, `let` bindings (annotated or inferred),
/// fn params, and functions returning hash collections.
fn collect_symbols(toks: &[Token]) -> Symbols {
    let mut syms = Symbols::default();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // `name: <type containing a hash collection>` — fields, params,
        // annotated lets, struct-literal inits.
        if toks.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            if type_mentions_hash(toks, i + 2) {
                syms.vars.insert(t.text.clone());
            }
            continue;
        }
        // `let [mut] name = <expr containing a hash constructor>;`
        if t.is_ident("let") {
            let mut j = i + 1;
            if toks.get(j).is_some_and(|n| n.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = toks.get(j).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if toks.get(j + 1).is_some_and(|n| n.is_punct("=")) && expr_mentions_hash(toks, j + 2) {
                syms.vars.insert(name.text.clone());
            }
            continue;
        }
        // `fn name(..) -> <type containing a hash collection>`
        if t.is_ident("fn") {
            let Some(name) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) else {
                continue;
            };
            if fn_returns_hash(toks, i + 2) {
                syms.fns.insert(name.text.clone());
            }
            let _ = collect_param_shadows(toks, i + 2, &mut syms.shadows);
        }
    }
    syms
}

/// Record the non-hash-typed parameters of the fn whose name ends at
/// `start - 1`, scoped to the fn's body. A parameter like
/// `names: &[&str]` must shadow a hash-typed field `names` for the rest
/// of the fn, or every use of the slice would be flagged.
fn collect_param_shadows(
    toks: &[Token],
    start: usize,
    shadows: &mut Vec<(String, usize, usize)>,
) -> Option<()> {
    // skip generics to the parameter list's `(`
    let mut i = start;
    let mut angle = 0i32;
    let open = loop {
        let t = toks.get(i)?;
        match t.text.as_str() {
            "<" if t.kind == TokKind::Punct => angle += 1,
            ">" if t.kind == TokKind::Punct => angle -= 1,
            "(" if t.kind == TokKind::Punct && angle == 0 => break i,
            ";" | "{" if t.kind == TokKind::Punct => return None,
            _ => {}
        }
        i += 1;
        if i > start + 64 {
            return None;
        }
    };
    // parameters sit at paren depth 1
    let mut depth = 0i32;
    let mut names: Vec<String> = Vec::new();
    let mut i = open;
    let close = loop {
        let t = toks.get(i)?;
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break i;
                    }
                }
                _ => {}
            }
        }
        if depth == 1
            && t.kind == TokKind::Ident
            && toks.get(i + 1).is_some_and(|n| n.is_punct(":"))
            && !type_mentions_hash(toks, i + 2)
        {
            names.push(t.text.clone());
        }
        i += 1;
    };
    if names.is_empty() {
        return None;
    }
    // the body is the `{ .. }` after the signature (trait fns end in `;`)
    let mut i = close + 1;
    let body_open = loop {
        let t = toks.get(i)?;
        if t.is_punct(";") {
            return None;
        }
        if t.is_punct("{") {
            break i;
        }
        i += 1;
        if i > close + 96 {
            return None;
        }
    };
    let mut depth = 0i32;
    let mut i = body_open;
    let body_close = loop {
        let t = toks.get(i)?;
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                break i;
            }
        }
        i += 1;
    };
    for n in names {
        shadows.push((n, body_open, body_close));
    }
    Some(())
}

/// Scan a type position starting at `start` until a depth-0 terminator;
/// true if a hash-collection ident appears.
fn type_mentions_hash(toks: &[Token], start: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(start).take(64) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "<" | "(" | "[" => depth += 1,
                ">" | ")" | "]" if depth > 0 => depth -= 1,
                ">" | ")" | "]" | "," | ";" | "{" | "}" | "=" if depth == 0 => return false,
                _ => {}
            },
            TokKind::Ident if is_hash_type(&t.text) => return true,
            _ => {}
        }
    }
    false
}

/// Scan an initializer expression until `;` at paren depth 0; true if a
/// hash-collection ident appears (e.g. `HashMap::new()`, `HashSet::from`).
fn expr_mentions_hash(toks: &[Token], start: usize) -> bool {
    let mut depth = 0i32;
    for t in toks.iter().skip(start).take(96) {
        match t.kind {
            TokKind::Punct => match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => return false,
                _ => {}
            },
            TokKind::Ident if is_hash_type(&t.text) => return true,
            _ => {}
        }
    }
    false
}

/// From just past a fn name: skip to a depth-0 `->` (if any, before the
/// body `{` or `;`) and check the return type.
fn fn_returns_hash(toks: &[Token], start: usize) -> bool {
    let mut depth = 0i32;
    let mut i = start;
    let end = toks.len().min(start + 160);
    while i < end {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" | ";" if depth == 0 => return false,
                "-" if depth == 0 && toks.get(i + 1).is_some_and(|n| n.is_punct(">")) => {
                    return type_mentions_hash(toks, i + 2);
                }
                _ => {}
            }
        }
        i += 1;
    }
    false
}

/// Walk backward from the `.` at `dot` through the receiver chain.
/// Returns the hash-typed name the chain bottoms out in, if any.
/// `through` lists method names treated as forwarding the receiver.
fn hash_receiver(
    toks: &[Token],
    mut dot: usize,
    syms: &Symbols,
    through: &[&str],
) -> Option<String> {
    loop {
        let j = dot.checked_sub(1)?;
        let t = &toks[j];
        if t.is_punct(")") {
            let open = back_match(toks, j, "(", ")")?;
            let k = open.checked_sub(1)?;
            let kt = &toks[k];
            if kt.kind == TokKind::Ident {
                let name = kt.text.as_str();
                if k >= 1 && toks[k - 1].is_punct(".") {
                    // method call `.name(..)`
                    if through.contains(&name) {
                        dot = k - 1;
                        continue;
                    }
                    if syms.fns.contains(name) {
                        return Some(kt.text.clone());
                    }
                    return None;
                }
                if k >= 2 && toks[k - 1].is_punct("::") {
                    // path call `Seg::..::name(..)`: flag if a segment
                    // is a hash type (`HashMap::new().keys()`).
                    let mut p = k - 1;
                    while let Some(seg) = p.checked_sub(1).map(|q| &toks[q]) {
                        if seg.kind != TokKind::Ident {
                            break;
                        }
                        if is_hash_type(&seg.text) {
                            return Some(seg.text.clone());
                        }
                        if p >= 2 && toks[p - 2].is_punct("::") {
                            p -= 2;
                        } else {
                            break;
                        }
                    }
                    if syms.fns.contains(name) {
                        return Some(kt.text.clone());
                    }
                    return None;
                }
                // free call `name(..)`
                if syms.fns.contains(name) {
                    return Some(kt.text.clone());
                }
                return None;
            }
            // grouped receiver `(&map).iter()` — look inside the group
            for inner in &toks[open + 1..j] {
                if inner.kind == TokKind::Ident
                    && (is_hash_type(&inner.text) || syms.vars.contains(&inner.text))
                {
                    return Some(inner.text.clone());
                }
            }
            return None;
        }
        if t.is_punct("]") {
            // indexing: resolve the chain before the `[`
            dot = back_match(toks, j, "[", "]")?;
            continue;
        }
        if t.is_punct("?") {
            dot = j;
            continue;
        }
        if t.kind == TokKind::Ident {
            let is_field = j >= 1 && toks[j - 1].is_punct(".");
            // A bare local use may be shadowed by a non-hash parameter
            // of the enclosing fn; a field access (`self.x`) is not.
            let shadowed = !is_field && syms.shadowed(&t.text, j);
            if !shadowed && (syms.vars.contains(&t.text) || is_hash_type(&t.text)) {
                return Some(t.text.clone());
            }
            // dotted field path: keep checking outer segments
            // (`self.inner.iter()` checks `inner`, then `self`).
            if is_field {
                dot = j - 1;
                continue;
            }
            return None;
        }
        return None;
    }
}

/// Index of the `open` punct matching the `close` punct at `close_idx`,
/// walking backward.
fn back_match(toks: &[Token], close_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut d = 0i32;
    let mut i = close_idx;
    loop {
        let t = &toks[i];
        if t.is_punct(close) {
            d += 1;
        } else if t.is_punct(open) {
            d -= 1;
            if d == 0 {
                return Some(i);
            }
        }
        i = i.checked_sub(1)?;
    }
}

/// `for <pat> in <expr> {` where `<expr>` is a call-free path whose
/// segments include a hash-typed name. Returns (name, token index of
/// the offending ident).
fn for_loop_hash_expr(toks: &[Token], for_idx: usize, syms: &Symbols) -> Option<(String, usize)> {
    // `for<'a>` HRTB and `impl .. for Type` have no depth-0 `in`.
    if toks.get(for_idx + 1).is_some_and(|n| n.is_punct("<")) {
        return None;
    }
    let mut depth = 0i32;
    let mut in_idx = None;
    for (off, t) in toks.iter().enumerate().skip(for_idx + 1).take(96) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return None, // `impl Trait for T {`
                _ => {}
            }
        } else if depth == 0 && t.is_ident("in") {
            in_idx = Some(off);
            break;
        }
    }
    let in_idx = in_idx?;
    // The expr runs to the loop body `{` at depth 0. If it contains a
    // call anywhere, the method triggers own it — so find the extent
    // first, then look for a bare hash-typed path.
    let mut depth = 0i32;
    let mut end = None;
    for (off, t) in toks.iter().enumerate().skip(in_idx + 1).take(32) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => return None, // calls are the method triggers' job
                "[" => depth += 1,
                "]" => depth -= 1,
                "{" if depth == 0 => {
                    end = Some(off);
                    break;
                }
                _ => {}
            }
        }
    }
    let end = end?;
    for (off, t) in toks.iter().enumerate().take(end).skip(in_idx + 1) {
        if t.kind != TokKind::Ident {
            continue;
        }
        let is_field = off >= 1 && toks[off - 1].is_punct(".");
        if !is_field && syms.shadowed(&t.text, off) {
            continue;
        }
        if is_hash_type(&t.text) || syms.vars.contains(&t.text) {
            return Some((t.text.clone(), off));
        }
    }
    None
}

/// Parse every `detlint:` comment into an [`Allow`], computing the
/// lines it suppresses: its own line plus the next code line (skipping
/// further comments and `#[..]` attribute lines).
fn parse_allows(comments: &[Comment], toks: &[Token]) -> Vec<Allow> {
    // first token index per line, for target-line resolution
    let mut line_first_tok: Vec<(u32, usize)> = Vec::new();
    let mut last_line = 0u32;
    for (i, t) in toks.iter().enumerate() {
        if t.line != last_line {
            line_first_tok.push((t.line, i));
            last_line = t.line;
        }
    }
    let target_line = |after: u32| -> Option<u32> {
        let mut idx = line_first_tok.partition_point(|&(l, _)| l <= after);
        while let Some(&(line, first)) = line_first_tok.get(idx) {
            let first_tok = &toks[first];
            if first_tok.is_punct("#") {
                idx += 1; // attribute line between the allow and the code
                continue;
            }
            return Some(line);
        }
        None
    };

    let mut out = Vec::new();
    for c in comments {
        let Some((_, rest)) = c.text.split_once("detlint:") else {
            continue;
        };
        if !rest.trim_start().starts_with("allow") {
            continue;
        }
        let mut allow = Allow {
            rules: Vec::new(),
            lines: BTreeSet::new(),
            problem: None,
            at_line: c.line,
        };
        let body = rest.trim_start();
        let parsed = body
            .strip_prefix("allow")
            .and_then(|b| b.trim_start().strip_prefix('('))
            .and_then(|b| b.split_once(')'));
        match parsed {
            None => allow.problem = Some("expected `allow(<rule>, ..)`".to_string()),
            Some((rules_str, justification)) => {
                for r in rules_str.split(',') {
                    let r = r.trim();
                    if r.is_empty() {
                        continue;
                    }
                    if RULES.contains(&r) && r != "bad-allow" {
                        allow.rules.push(r.to_string());
                    } else {
                        allow.problem = Some(format!("unknown rule `{r}`"));
                    }
                }
                if allow.rules.is_empty() && allow.problem.is_none() {
                    allow.problem = Some("no rule named".to_string());
                }
                let just = justification
                    .trim_start_matches(|ch: char| {
                        ch.is_whitespace() || matches!(ch, '—' | '–' | '-' | ':' | ',' | '.')
                    })
                    .trim();
                if just.is_empty() && allow.problem.is_none() {
                    allow.problem = Some("missing justification after the rule list".to_string());
                }
            }
        }
        allow.lines.insert(c.line);
        allow.lines.insert(c.end_line);
        if let Some(t) = target_line(c.end_line) {
            allow.lines.insert(t);
        }
        out.push(allow);
    }
    out
}

// ---------------------------------------------------------------------
// Workspace walking & reporting
// ---------------------------------------------------------------------

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target",
    "vendor",
    ".git",
    "fixtures",
    "node_modules",
    ".cargo",
];

/// All `.rs` files under `root`, sorted, excluding vendored code, build
/// output and lint fixtures.
pub fn workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Scan `files` (as found on disk), scoping rules by each file's path
/// relative to `root`. `rule_filter` of `None` runs every rule.
pub fn scan_files(
    root: &Path,
    files: &[PathBuf],
    rule_filter: Option<&[String]>,
) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for f in files {
        let src = std::fs::read_to_string(f)?;
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .replace('\\', "/");
        let display = f.to_string_lossy().replace('\\', "/");
        let mut file_findings = scan_source(&display, &rel, &src);
        if let Some(filter) = rule_filter {
            file_findings.retain(|f| filter.iter().any(|r| r == f.rule));
        }
        findings.extend(file_findings);
    }
    Ok(findings)
}

/// Render findings rustc-style.
pub fn render_text(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "error[{}]: {}", f.rule, f.message);
        let _ = writeln!(out, "  --> {}:{}:{}", f.path, f.line, f.col);
        if !f.snippet.is_empty() {
            let _ = writeln!(out, "   | {}", f.snippet);
        }
        let _ = writeln!(
            out,
            "   = help: fix it, or annotate `// detlint: allow({}) — <why it is sound>`",
            f.rule
        );
        out.push('\n');
    }
    if findings.is_empty() {
        let _ = writeln!(
            out,
            "detlint: clean — {} files scanned, {} rules",
            files_scanned,
            RULES.len()
        );
    } else {
        let _ = writeln!(
            out,
            "detlint: {} finding(s) in {} files scanned",
            findings.len(),
            files_scanned
        );
    }
    out
}

/// Render findings as the stable `detlint/v1` JSON envelope.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\"schema\":\"detlint/v1\",\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\",\"snippet\":\"{}\"}}",
            json_escape(f.rule),
            json_escape(&f.path),
            f.line,
            f.col,
            json_escape(&f.message),
            json_escape(&f.snippet)
        );
    }
    let _ = write!(out, "],\"count\":{}}}", findings.len());
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan_at(vpath: &str, src: &str) -> Vec<Finding> {
        scan_source(vpath, vpath, src)
    }

    fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn flags_hash_iteration_in_critical_crate_only() {
        let src = "fn f(m: &HashMap<u32, f64>) { for (k, v) in m.iter() { use_it(k, v); } }";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["unordered-iter"]);
        assert!(scan_at("crates/freertr/src/x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_bare_hash_path_flagged() {
        let src = "struct S { flows: HashMap<u64, Flow> }\n\
                   impl S { fn g(&self) { for f in &self.flows { h(f); } } }";
        let hits = scan_at("crates/framework/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["unordered-iter"]);
    }

    #[test]
    fn non_hash_param_shadows_hash_field() {
        // `names` the slice parameter must not resolve to `names` the
        // HashMap field — but a field access still must.
        let src = "struct T { names: HashMap<String, u32> }\n\
                   impl T {\n\
                   fn by_names(&self, names: &[&str]) -> Vec<u32> {\n\
                       names.iter().map(|n| self.node(n)).collect()\n\
                   }\n\
                   fn all(&self) -> Vec<u32> { self.names.values().copied().collect() }\n\
                   }";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["unordered-iter"], "{hits:?}");
        assert_eq!(hits[0].line, 6, "only the field access is unordered");
    }

    #[test]
    fn btree_iteration_is_clean() {
        let src = "fn f(m: &BTreeMap<u32, f64>) -> f64 { m.values().sum::<f64>() }";
        assert!(scan_at("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn lock_adapter_is_transparent() {
        let src = "struct T { inner: RwLock<HashMap<K, V>> }\n\
                   fn f(t: &T) { for k in t.inner.read().keys() { g(k); } }";
        let hits = scan_at("crates/framework/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["unordered-iter"]);
    }

    #[test]
    fn fn_return_type_resolves_receiver() {
        let src = "fn usage() -> HashMap<u32, f64> { todo_impl() }\n\
                   fn f() { for (k, v) in usage().into_iter() { g(k, v); } }";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["unordered-iter"]);
    }

    #[test]
    fn float_fold_through_adapters_flagged() {
        let src = "fn f(m: &HashMap<u32, f64>) -> f64 { m.values().map(|x| x * 2.0).sum::<f64>() }";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        // .values() itself is unordered-iter; the sum is the fold rule
        assert!(rules_of(&hits).contains(&"float-unordered-fold"));
    }

    #[test]
    fn vec_sum_is_clean() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }";
        assert!(scan_at("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn wall_clock_everywhere_but_bench_and_examples() {
        let src = "fn f() -> u128 { Instant::now().elapsed().as_nanos() }";
        assert_eq!(
            rules_of(&scan_at("crates/netsim/src/x.rs", src)),
            ["wall-clock"]
        );
        assert!(scan_at("crates/bench/src/x.rs", src).is_empty());
        assert!(scan_at("examples/demo.rs", src).is_empty());
    }

    #[test]
    fn unseeded_rng_skips_tests() {
        let src = "fn f() { let mut rng = thread_rng(); }";
        assert_eq!(
            rules_of(&scan_at("crates/netsim/src/x.rs", src)),
            ["unseeded-rng"]
        );
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let mut rng = thread_rng(); } }";
        assert!(scan_at("crates/netsim/src/x.rs", test_src).is_empty());
        assert!(scan_at("crates/netsim/tests/x.rs", src).is_empty());
    }

    #[test]
    fn bare_panic_only_in_hot_path_files() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in [
            "crates/netsim/src/sim.rs",
            "crates/netsim/src/topo.rs",
            "crates/scenarios/src/elastic.rs",
        ] {
            assert_eq!(rules_of(&scan_at(path, src)), ["bare-panic"], "{path}");
        }
        assert!(scan_at("crates/netsim/src/flow.rs", src).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f(x: Option<u32>) -> u32 { x.unwrap() } }";
        assert!(scan_at("crates/netsim/src/sim.rs", test_src).is_empty());
    }

    #[test]
    fn bare_panic_covers_every_file_of_a_listed_directory() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }";
        for path in ["crates/hecate-ml/src/gp.rs", "crates/hecate-ml/src/a/b.rs"] {
            assert_eq!(rules_of(&scan_at(path, src)), ["bare-panic"], "{path}");
        }
        assert!(scan_at("crates/hecate-ml/tests/x.rs", src).is_empty());
        assert!(scan_at("crates/hecate-ml-extra/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_with_justification_suppresses() {
        let src = "fn f() -> u128 {\n\
                   // detlint: allow(wall-clock) — measured quantity, reported only.\n\
                   Instant::now().elapsed().as_nanos()\n\
                   }";
        assert!(scan_at("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_skips_attribute_lines() {
        let src = "fn f() -> u128 {\n\
                   // detlint: allow(wall-clock) — measured, reported only.\n\
                   #[allow(clippy::disallowed_methods)]\n\
                   let t = Instant::now();\n\
                   t.elapsed().as_nanos()\n\
                   }";
        assert!(scan_at("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_justification_is_bad_allow() {
        let src = "// detlint: allow(wall-clock)\n\
                   fn f() -> u128 { Instant::now().elapsed().as_nanos() }";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        // the allow is void: the wall-clock finding stands AND bad-allow fires
        let rules = rules_of(&hits);
        assert!(rules.contains(&"bad-allow"), "{hits:?}");
        assert!(rules.contains(&"wall-clock"), "{hits:?}");
    }

    #[test]
    fn allow_with_unknown_rule_is_bad_allow() {
        let src = "// detlint: allow(wall-time) — close but wrong name\nfn f() {}";
        let hits = scan_at("crates/netsim/src/x.rs", src);
        assert_eq!(rules_of(&hits), ["bad-allow"]);
    }

    #[test]
    fn multi_rule_allow() {
        let src = "fn f(m: &HashMap<u32, f64>) -> f64 {\n\
                   // detlint: allow(unordered-iter, float-unordered-fold) — summed into a\n\
                   // display-only counter; order cannot matter for an integer count.\n\
                   m.values().sum::<f64>()\n\
                   }";
        assert!(scan_at("crates/netsim/src/x.rs", src).is_empty());
    }

    #[test]
    fn fixture_path_directive_rescopes() {
        let src = "// detlint-fixture-path: crates/netsim/src/x.rs\n\
                   fn f(m: &HashMap<u32, u32>) { for k in m.keys() { g(k); } }";
        let hits = scan_source(
            "tests/fixtures/whatever.rs",
            "tests/fixtures/whatever.rs",
            src,
        );
        assert_eq!(rules_of(&hits), ["unordered-iter"]);
    }

    #[test]
    fn json_envelope_shape() {
        let f = Finding {
            rule: "wall-clock",
            path: "a/b.rs".into(),
            line: 3,
            col: 7,
            message: "msg with \"quotes\"".into(),
            snippet: "let t = x;".into(),
        };
        let j = render_json(&[f]);
        assert!(j.starts_with("{\"schema\":\"detlint/v1\""));
        for key in [
            "\"rule\":",
            "\"path\":",
            "\"line\":",
            "\"col\":",
            "\"message\":",
            "\"snippet\":",
            "\"count\":1",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
