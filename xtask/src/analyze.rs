//! The token model and the call-graph pass behind `cargo xtask lint`.
//!
//! [`extract`] turns one file into a [`FileModel`]: the comment-free
//! token stream, the comments, a per-token `#[cfg(test)]`/`#[test]` flag
//! from brace-tracked scopes, and the `fn` items with their `impl`
//! context. Every source rule reads this one model, and
//! [`analyze_sources`] builds it once per file: the per-file rules of
//! [`crate::lint`] run on it, and so do the two reachability analyses
//! over a conservative, name-resolution-free call graph:
//!
//! 1. **hot-alloc** — allocation sites (`Vec::…`/`vec![…]`/`Box::new`/
//!    `String::…`/`HashMap::…`/`.to_vec()`/`.clone()`/`.collect()`/
//!    `format!` plus direct `alloc::` use) transitively reachable from
//!    the steady-state entry points, minus the vetted cold-path /
//!    site allow-list in `xtask/analyze_allow.txt`;
//! 2. **hot-panic** — the [`panic_site`]s reachable from the same entry
//!    points, vetted through the same `xtask/lint_allow.txt` entries the
//!    per-file `no-panic` rule uses (so one vet covers both views).
//!
//! ## Soundness model (read before trusting a clean pass)
//!
//! The call graph is a *conservative over-approximation* with no name
//! resolution and no trait dispatch:
//!
//! - `name(…)` resolves to every free `fn name` in the workspace;
//! - `Type::name(…)` resolves to `fn name` in any `impl …Type` block
//!   (`Self::` uses the enclosing impl); an unknown qualifier falls
//!   back to free `fn name` (the `module::fn` case) and otherwise is
//!   treated as external (so `Instant::now(…)`-style calls on std
//!   types do not fan out to every local `new`);
//! - `self.name(…)` resolves within the enclosing impl type first,
//!   widening to all methods when the name is a trait method;
//! - `recv.name(…)` is **dyn-widened**: it resolves to every method
//!   named `name` in every impl/trait block of the workspace, because
//!   a `Box<dyn Trait>` receiver cannot be resolved statically.
//!   Calls through local type *aliases* are the known blind spot of
//!   the tightened qualified rule.
//!
//! Widening means spurious edges (a `.tick(…)` on a memory model also
//! "calls" every other `tick` in the tree); the `cold`/`coldfile`
//! entries of `analyze_allow.txt` prune the vetted-false ones, and
//! every entry of either allow-list must stay live or the pass fails
//! (`stale-allow`). `Vec::new()`-style non-allocating constructors are
//! still reported: a fresh container on the steady-state path exists to
//! be filled.

use std::collections::{HashMap, VecDeque};

use crate::lexer::{lex, Tok, TokKind};
use crate::lint::{check_no_panic, check_ordering_comments, check_sync_facade};

/// A recovered `fn` definition.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Repo-relative path of the defining file.
    pub file: String,
    /// The function's bare name.
    pub name: String,
    /// Last path segment of the `impl`'d type, when defined in an impl.
    pub impl_type: Option<String>,
    /// Trait name for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Body as a token-index range into the file's comment-free stream.
    pub body: (usize, usize),
    /// Defined under `#[cfg(test)]` / `#[test]` (excluded from the graph).
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` or bare `name` for display and allow-list matching.
    pub fn display(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{t}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One call site recovered from a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Call {
    /// `name(…)` — free-function call.
    Bare(String),
    /// `Qual::name(…)` — `(qualifier, name)`; qualifier may be `Self`.
    Qualified(String, String),
    /// `self.name(…)` — method on the enclosing impl type.
    SelfMethod(String),
    /// `recv.name(…)` — dyn-widened method call.
    Method(String),
}

/// A direct allocation or panic site inside one function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based source line.
    pub line: usize,
    /// `"alloc"` or `"panic"`.
    pub kind: &'static str,
    /// Human description of the matched pattern.
    pub what: String,
}

/// Container types whose associated calls count as allocation sites.
const HEAP_TYPES: [&str; 10] = [
    "Vec", "Box", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "VecDeque", "Rc", "Arc",
];

/// Method names that allocate (type-blind, hence conservative).
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_owned", "to_string", "clone", "collect"];

/// Keywords that can precede `(` without being a call.
const KEYWORDS: [&str; 24] = [
    "if", "else", "while", "for", "loop", "match", "return", "fn", "in", "as", "let", "move",
    "mut", "ref", "break", "continue", "where", "use", "pub", "crate", "super", "dyn", "impl",
    "box",
];

// ---------------------------------------------------------------------
// The token model
// ---------------------------------------------------------------------

/// The model of one file every rule reads: a comment-free token stream,
/// the comments, which tokens are test code, and the `fn` items whose
/// `body` ranges index into the token stream.
pub struct FileModel {
    /// Repo-relative path.
    pub path: String,
    /// The source text, for allow-list fragments matched per line.
    pub src: String,
    /// Comment-free token stream.
    pub toks: Vec<Tok>,
    /// `test[i]`: token `i` lies in a `#[cfg(test)]`/`#[test]` item
    /// (its attribute, header or body).
    pub test: Vec<bool>,
    /// The comment tokens, in source order.
    pub comments: Vec<Tok>,
    /// Recovered `fn` items.
    pub items: Vec<FnItem>,
}

impl FileModel {
    /// The text of 1-based line `n` (empty past the end).
    pub fn line(&self, n: usize) -> &str {
        self.src.lines().nth(n.wrapping_sub(1)).unwrap_or_default()
    }
}

enum ScopeKind {
    Block,
    Impl {
        ty: Option<String>,
        tr: Option<String>,
    },
    Fn {
        item: usize,
    },
}

struct Scope {
    kind: ScopeKind,
    test: bool,
}

/// Builds the [`FileModel`] of `src`: brace-tracked scopes decide which
/// tokens are test code and recover `fn` items with their impl context.
/// Attribute-aware and tolerant of anything it does not model (those
/// tokens just act as block delimiters); because it reads tokens, a
/// brace inside a string, char literal or comment is never a scope.
pub fn extract(path: &str, src: &str) -> FileModel {
    let (comments, toks): (Vec<Tok>, Vec<Tok>) = lex(src)
        .into_iter()
        .partition(|t| t.kind == TokKind::Comment);
    let mut test = vec![false; toks.len()];
    let mut items: Vec<FnItem> = Vec::new();
    let mut scopes: Vec<Scope> = Vec::new();
    let mut pending_test = false;
    let mut i = 0usize;
    while i < toks.len() {
        // A token is test code inside a test scope, or between a test
        // attribute and the item it gates (`#[cfg(test)] mod t;`).
        let in_test = pending_test || scopes.last().is_some_and(|s| s.test);
        let t = &toks[i];
        let next = if t.is_punct("#") {
            // `#[…]` / `#![…]` attribute: bracket-matched skip, noting
            // `#[test]` / `#[cfg(test)]`-style contents.
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct("!")) {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_punct("[")) {
                let start = j;
                let mut depth = 0i32;
                while j < toks.len() {
                    if toks[j].is_punct("[") {
                        depth += 1;
                    } else if toks[j].is_punct("]") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                let idents: Vec<&str> = toks[start..=j.min(toks.len() - 1)]
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident)
                    .map(|t| t.text.as_str())
                    .collect();
                // Only these two gate test-only code: any other cfg
                // naming `test` may compile outside tests
                // (`cfg(not(test))`), so its item stays live.
                pending_test |= idents == ["test"] || idents == ["cfg", "test"];
                j + 1
            } else {
                i + 1
            }
        } else if t.is_punct("{") {
            scopes.push(Scope {
                kind: ScopeKind::Block,
                test: in_test,
            });
            pending_test = false;
            i + 1
        } else if t.is_punct("}") {
            if let Some(Scope {
                kind: ScopeKind::Fn { item },
                ..
            }) = scopes.pop()
            {
                items[item].body.1 = i;
            }
            i + 1
        } else if t.is_punct(";") {
            pending_test = false;
            i + 1
        } else if t.is_ident("impl") {
            let (ty, tr, open) = parse_impl_header(&toks, i + 1);
            pending_test = false;
            match open {
                Some(open) => {
                    scopes.push(Scope {
                        kind: ScopeKind::Impl { ty, tr },
                        test: in_test,
                    });
                    open + 1
                }
                None => toks.len(),
            }
        } else if t.is_ident("trait") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            // `trait Name … {`: default-method bodies inside are real
            // items (dyn-widened method calls must reach them).
            let name = toks[i + 1].text.clone();
            let mut j = i + 2;
            let mut angle = 0i32;
            while j < toks.len() {
                if toks[j].is_punct("<") {
                    angle += 1;
                } else if toks[j].is_punct(">") {
                    angle -= 1;
                } else if angle == 0 && (toks[j].is_punct("{") || toks[j].is_punct(";")) {
                    break;
                }
                j += 1;
            }
            pending_test = false;
            if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                scopes.push(Scope {
                    kind: ScopeKind::Impl {
                        ty: None,
                        tr: Some(name),
                    },
                    test: in_test,
                });
            }
            j + 1
        } else if t.is_ident("fn") && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident) {
            let name = toks[i + 1].text.clone();
            let line = t.line;
            let mut j = i + 2;
            while j < toks.len() && !toks[j].is_punct("{") && !toks[j].is_punct(";") {
                j += 1;
            }
            pending_test = false;
            if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                let (impl_type, trait_name) = scopes
                    .iter()
                    .rev()
                    .find_map(|s| match &s.kind {
                        ScopeKind::Impl { ty, tr } => Some((ty.clone(), tr.clone())),
                        _ => None,
                    })
                    .unwrap_or((None, None));
                let item = items.len();
                items.push(FnItem {
                    file: path.to_string(),
                    name,
                    impl_type,
                    trait_name,
                    line,
                    body: (j + 1, j + 1),
                    is_test: in_test,
                });
                scopes.push(Scope {
                    kind: ScopeKind::Fn { item },
                    test: in_test,
                });
            }
            j + 1
        } else {
            i + 1
        };
        let next = next.min(toks.len());
        test[i..next].fill(in_test);
        i = next;
    }
    FileModel {
        path: path.to_string(),
        src: src.to_string(),
        toks,
        test,
        comments,
        items,
    }
}

/// Parses an `impl` header starting at token `from`, returning the
/// impl'd type's last path segment, the trait name for trait impls,
/// and the index of the opening `{` (None on malformed input).
/// Generics are skipped by `<`/`>` depth (safe: the lexer fuses `->`).
fn parse_impl_header(toks: &[Tok], from: usize) -> (Option<String>, Option<String>, Option<usize>) {
    let mut angle = 0i32;
    let mut before_for: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    let mut collecting = true;
    let mut j = from;
    while j < toks.len() {
        let t = &toks[j];
        if angle == 0 && t.is_punct("{") {
            let (ty, tr) = if saw_for {
                (after_for, before_for)
            } else {
                (before_for, None)
            };
            return (ty, tr, Some(j));
        }
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if angle == 0 && t.kind == TokKind::Ident {
            match t.text.as_str() {
                "for" => saw_for = true,
                "where" => collecting = false,
                "dyn" | "mut" => {}
                name if collecting => {
                    if saw_for {
                        after_for = Some(name.to_string());
                    } else {
                        before_for = Some(name.to_string());
                    }
                }
                _ => {}
            }
        }
        j += 1;
    }
    (None, None, None)
}

// ---------------------------------------------------------------------
// Body scanning: calls + direct alloc/panic sites
// ---------------------------------------------------------------------

/// Calls and direct sites recovered from one function body.
#[derive(Debug, Default)]
pub struct BodyScan {
    /// Outgoing call sites, in source order.
    pub calls: Vec<Call>,
    /// Direct allocation / panic sites.
    pub sites: Vec<Site>,
}

/// Every panic site the pass recognises, as it reads in source. The
/// per-file `no-panic` rule checks the first three; the reachability
/// analysis checks all of them.
pub const PANIC_SITES: [&str; 6] = [
    ".unwrap(",
    ".expect(",
    "panic!(",
    "unreachable!(",
    "todo!(",
    "unimplemented!(",
];

/// The one panic-site recogniser: whether token `k` starts a
/// `.unwrap(`/`.expect(` method call or a `panic!`-family macro
/// invocation, and which entry of [`PANIC_SITES`] it is.
pub fn panic_site(toks: &[Tok], k: usize) -> Option<&'static str> {
    let is = |n: usize, p: &str| toks.get(n).is_some_and(|t| t.is_punct(p));
    if toks[k].kind != TokKind::Ident {
        return None;
    }
    let name = toks[k].text.as_str();
    let site = *PANIC_SITES
        .iter()
        .find(|s| s.trim_matches(['.', '!', '(']) == name)?;
    let found = if site.starts_with('.') {
        k > 0 && is(k - 1, ".") && is(k + 1, "(")
    } else {
        is(k + 1, "!") && (is(k + 2, "(") || is(k + 2, "[") || is(k + 2, "{"))
    };
    found.then_some(site)
}

/// Scans the token range `body` of `toks` for call sites and for the
/// direct allocation / panic patterns listed in the module docs.
pub fn scan_body(toks: &[Tok], body: (usize, usize)) -> BodyScan {
    let mut out = BodyScan::default();
    for k in body.0..body.1.min(toks.len()) {
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            continue;
        }
        if let Some(site) = panic_site(toks, k) {
            out.sites.push(Site {
                line: t.line,
                kind: "panic",
                what: format!("`{site}…)`"),
            });
        }
        let name = t.text.as_str();
        let next = toks.get(k + 1);
        // Macro invocation: `name!(` / `name![` / `name!{`.
        if next.is_some_and(|n| n.is_punct("!"))
            && toks
                .get(k + 2)
                .is_some_and(|n| n.is_punct("(") || n.is_punct("[") || n.is_punct("{"))
        {
            let what = match name {
                "vec" => "`vec![…]` allocates",
                "format" => "`format!(…)` allocates",
                _ => continue,
            };
            out.sites.push(Site {
                line: t.line,
                kind: "alloc",
                what: what.to_string(),
            });
            continue;
        }
        // Direct `alloc::` use.
        if name == "alloc" && next.is_some_and(|n| n.is_punct("::")) {
            out.sites.push(Site {
                line: t.line,
                kind: "alloc",
                what: "direct `alloc::` use".to_string(),
            });
            continue;
        }
        // Call: `name(`.
        if !next.is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let prev = k.checked_sub(1).map(|p| &toks[p]);
        let prev2 = k.checked_sub(2).map(|p| &toks[p]);
        if prev.is_some_and(|p| p.is_punct(".")) {
            if ALLOC_METHODS.contains(&name) {
                out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: format!("`.{name}(…)` allocates (type-blind: vet if the receiver is not heap-backed)"),
                });
            }
            if prev2.is_some_and(|p| p.is_ident("self")) {
                out.calls.push(Call::SelfMethod(name.to_string()));
            } else {
                out.calls.push(Call::Method(name.to_string()));
            }
        } else if prev.is_some_and(|p| p.is_punct("::"))
            && prev2.is_some_and(|p| p.kind == TokKind::Ident)
        {
            let q = prev2.map(|p| p.text.clone()).unwrap_or_default();
            if HEAP_TYPES.contains(&q.as_str()) {
                out.sites.push(Site {
                    line: t.line,
                    kind: "alloc",
                    what: format!("`{q}::{name}(…)` constructs a heap container"),
                });
            } else {
                out.calls.push(Call::Qualified(q, name.to_string()));
            }
        } else if prev.is_some_and(|p| p.is_ident("fn")) {
            // nested `fn name(` definition, not a call
        } else if !KEYWORDS.contains(&name) {
            out.calls.push(Call::Bare(name.to_string()));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Allow-list: cold barriers + vetted sites
// ---------------------------------------------------------------------

/// Parsed `xtask/analyze_allow.txt`.
#[derive(Debug, Default)]
pub struct AnalyzeAllow {
    /// `cold name` / `cold Type::name`: vetted cold-path functions the
    /// BFS must not descend into.
    pub cold: Vec<String>,
    /// `coldfile <path-substring>`: every function in a matching file is a
    /// cold barrier (for whole modules reached only via dyn-widening).
    pub coldfiles: Vec<String>,
    /// `site <path-suffix> :: <line-substring>`: vetted hot-path
    /// allocation sites — the open-item-3 work list.
    pub sites: Vec<(String, String)>,
    /// Malformed lines, reported as findings.
    pub errors: Vec<(usize, String)>,
}

/// Parses the analyze allow-list (blank lines and `#` comments ignored).
pub fn parse_analyze_allow(text: &str) -> AnalyzeAllow {
    let mut out = AnalyzeAllow::default();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("cold ") {
            out.cold.push(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("coldfile ") {
            out.coldfiles.push(rest.trim().to_string());
        } else if let Some(rest) = line.strip_prefix("site ") {
            match rest.split_once(" :: ") {
                Some((p, frag)) => out
                    .sites
                    .push((p.trim().to_string(), frag.trim().to_string())),
                None => out
                    .errors
                    .push((i + 1, "`site` entry needs `path :: substring`".to_string())),
            }
        } else {
            out.errors.push((
                i + 1,
                "expected `cold …`, `coldfile …`, or `site … :: …`".to_string(),
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------
// The analysis proper
// ---------------------------------------------------------------------

/// A steady-state entry point.
#[derive(Debug, Clone, Copy)]
pub enum Entry {
    /// `fn name` in any `impl …Type` block.
    Type(&'static str, &'static str),
    /// `fn name` in any `impl Trait for …` block.
    Trait(&'static str, &'static str),
}

impl Entry {
    fn display(&self) -> String {
        match self {
            Entry::Type(t, n) => format!("{t}::{n}"),
            Entry::Trait(t, n) => format!("<impl {t}>::{n}"),
        }
    }
}

/// The steady-state entry points of the workspace: one descriptor's
/// worth of work flows through these and nothing else once a run is
/// warm (see DESIGN.md §Static analysis).
pub const ENTRY_POINTS: &[Entry] = &[
    Entry::Type("FlowLutSim", "tick"),
    Entry::Type("Session", "offer"),
    Entry::Type("ShardedFlowLut", "tick"),
    Entry::Type("FlowService", "pump"),
    Entry::Trait("FlowPipeline", "push"),
    Entry::Trait("FlowPipeline", "poll"),
];

/// One finding of the pass, from any rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line (0 for file-, entry- or allow-list-level findings).
    pub line: usize,
    /// The rule's name (the table in the crate docs).
    pub rule: &'static str,
    /// Shortest call chain from an entry point (empty when n/a).
    pub chain: String,
    /// What is wrong and how to fix it.
    pub msg: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.msg
        )?;
        if !self.chain.is_empty() {
            write!(f, "\n    via {}", self.chain)?;
        }
        Ok(())
    }
}

/// A finding without a call chain.
pub fn finding(file: &str, line: usize, rule: &'static str, msg: String) -> Finding {
    Finding {
        file: file.to_string(),
        line,
        rule,
        chain: String::new(),
        msg,
    }
}

/// Whether an allow-list (`path suffix :: line substring` entries)
/// covers line `text` of `file`. Marks every covering entry in `used`:
/// an entry is live exactly when it vetted a site in this pass.
pub fn vet(list: &[(String, String)], used: &mut [bool], file: &str, text: &str) -> bool {
    let mut hit = false;
    for (i, (p, frag)) in list.iter().enumerate() {
        if file.ends_with(p.as_str()) && text.contains(frag.as_str()) {
            used[i] = true;
            hit = true;
        }
    }
    hit
}

/// A vetted site that stayed on the hot path (the work list).
#[derive(Debug, Clone)]
pub struct VettedSite {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// `"alloc"` or `"panic"`.
    pub kind: &'static str,
    /// The matched pattern.
    pub what: String,
    /// Function containing the site (`Type::name` form).
    pub func: String,
    /// 1-based line where that function is defined.
    pub func_line: usize,
}

/// Everything one pass computed.
pub struct AnalyzeResult {
    /// Files read.
    pub files: usize,
    /// `fn` items recovered (non-test).
    pub functions: usize,
    /// Call-graph edges.
    pub edges: usize,
    /// Functions reachable from the entry points (cold barriers pruned).
    pub reachable: usize,
    /// Violations (empty on a clean tree).
    pub findings: Vec<Finding>,
    /// Vetted hot-path sites (allocs + panics) — the residual work list.
    pub vetted: Vec<VettedSite>,
    /// Cold barriers the BFS actually hit.
    pub cold_hits: Vec<String>,
}

/// Crates whose sources count as hot-path for the `no-panic` rule.
const HOT_PATH_CRATES: [&str; 4] = ["engine", "core", "cam", "hash"];

/// Runs every source rule over in-memory `(path, source)` pairs of
/// `crates/*/src`, extracting each file's model once: the per-file
/// rules (`ordering-doc`, `sync-facade` on the engine crate, `no-panic`
/// on the hot-path crates) and the reachability analyses. `panic_allow`
/// is the parsed `lint_allow.txt`, `allow` the parsed
/// `analyze_allow.txt`; an entry of either that vetted nothing is
/// `stale-allow`. Separated from file discovery so the
/// seeded-violation tests drive it directly.
pub fn analyze_sources(
    files: &[(String, String)],
    entries: &[Entry],
    allow: &AnalyzeAllow,
    panic_allow: &[(String, String)],
) -> AnalyzeResult {
    let models: Vec<FileModel> = files.iter().map(|(p, s)| extract(p, s)).collect();
    let mut findings: Vec<Finding> = Vec::new();
    for (n, msg) in &allow.errors {
        findings.push(finding(
            "xtask/analyze_allow.txt",
            *n,
            "allow-syntax",
            msg.clone(),
        ));
    }

    // Per-file rules, scoped by crate.
    let mut panic_used = vec![false; panic_allow.len()];
    for m in &models {
        let krate = m
            .path
            .strip_prefix("crates/")
            .and_then(|p| p.split('/').next());
        findings.extend(check_ordering_comments(m));
        if krate == Some("engine") {
            findings.extend(check_sync_facade(m));
        }
        if krate.is_some_and(|k| HOT_PATH_CRATES.contains(&k)) {
            findings.extend(check_no_panic(m, panic_allow, &mut panic_used));
        }
    }

    // Non-test items, each with its body scan and owning model.
    let mut items: Vec<FnItem> = Vec::new();
    let mut scans: Vec<BodyScan> = Vec::new();
    let mut owner: Vec<&FileModel> = Vec::new();
    for m in &models {
        for it in m.items.iter().filter(|it| !it.is_test) {
            scans.push(scan_body(&m.toks, it.body));
            items.push(it.clone());
            owner.push(m);
        }
    }

    // Name-resolution maps.
    let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_type: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    for (id, it) in items.iter().enumerate() {
        match (&it.impl_type, &it.trait_name) {
            (Some(t), _) => {
                by_type.entry((t, &it.name)).or_default().push(id);
                methods_by_name.entry(&it.name).or_default().push(id);
            }
            (None, Some(tr)) => {
                // Trait default method: a dyn-widened target, also
                // addressable UFCS-style as `Trait::name(…)`.
                by_type.entry((tr, &it.name)).or_default().push(id);
                methods_by_name.entry(&it.name).or_default().push(id);
            }
            (None, None) => free_by_name.entry(&it.name).or_default().push(id),
        }
    }

    // Edges.
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); items.len()];
    let mut edge_count = 0usize;
    for (id, scan) in scans.iter().enumerate() {
        let mut targets: Vec<usize> = Vec::new();
        for call in &scan.calls {
            match call {
                Call::Bare(n) => targets.extend(free_by_name.get(n.as_str()).into_iter().flatten()),
                Call::Qualified(q, n) => {
                    let q = if q == "Self" {
                        items[id].impl_type.clone().unwrap_or_default()
                    } else {
                        q.clone()
                    };
                    match by_type.get(&(q.as_str(), n.as_str())) {
                        Some(ids) => targets.extend(ids),
                        // `module::fn` — otherwise the qualifier is an
                        // external type and the call leaves the workspace.
                        None => targets.extend(free_by_name.get(n.as_str()).into_iter().flatten()),
                    }
                }
                Call::SelfMethod(n) => {
                    let ty = items[id].impl_type.clone().unwrap_or_default();
                    match by_type.get(&(ty.as_str(), n.as_str())) {
                        Some(ids) => targets.extend(ids),
                        None => {
                            targets.extend(methods_by_name.get(n.as_str()).into_iter().flatten())
                        }
                    }
                }
                Call::Method(n) => {
                    targets.extend(methods_by_name.get(n.as_str()).into_iter().flatten())
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        edge_count += targets.len();
        edges[id] = targets;
    }

    // Entry points (each must resolve, or renames silently kill the pass).
    let mut roots: Vec<usize> = Vec::new();
    for e in entries {
        let ids: Vec<usize> = match e {
            Entry::Type(t, n) => items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.impl_type.as_deref() == Some(*t) && it.name == *n)
                .map(|(i, _)| i)
                .collect(),
            Entry::Trait(t, n) => items
                .iter()
                .enumerate()
                .filter(|(_, it)| it.trait_name.as_deref() == Some(*t) && it.name == *n)
                .map(|(i, _)| i)
                .collect(),
        };
        if ids.is_empty() {
            findings.push(finding(
                "",
                0,
                "entry-missing",
                format!(
                    "entry point `{}` resolves to no function — update ENTRY_POINTS after the rename",
                    e.display()
                ),
            ));
        }
        roots.extend(ids);
    }
    roots.sort_unstable();
    roots.dedup();

    // Cold-barrier matching.
    let mut cold_used = vec![false; allow.cold.len()];
    let mut coldfile_used = vec![false; allow.coldfiles.len()];
    let is_cold = |it: &FnItem, cold_used: &mut Vec<bool>, coldfile_used: &mut Vec<bool>| -> bool {
        let mut hit = false;
        let disp = it.display();
        for (i, c) in allow.cold.iter().enumerate() {
            if *c == disp || (!c.contains("::") && *c == it.name && it.impl_type.is_none()) {
                cold_used[i] = true;
                hit = true;
            }
        }
        for (i, p) in allow.coldfiles.iter().enumerate() {
            if it.file.contains(p.as_str()) {
                coldfile_used[i] = true;
                hit = true;
            }
        }
        hit
    };
    // Definition-level liveness: a `cold` entry must name a function
    // that exists at all (reported separately from never-reached).
    let cold_defined: Vec<bool> = allow
        .cold
        .iter()
        .map(|c| {
            items
                .iter()
                .any(|it| *c == it.display() || (!c.contains("::") && *c == it.name))
        })
        .collect();

    // BFS with parent tracking for shortest chains.
    let mut parent: Vec<Option<usize>> = vec![None; items.len()];
    let mut seen = vec![false; items.len()];
    let mut queue = VecDeque::new();
    for &r in &roots {
        if is_cold(&items[r], &mut cold_used, &mut coldfile_used) {
            continue;
        }
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &edges[u] {
            if seen[v] {
                continue;
            }
            if is_cold(&items[v], &mut cold_used, &mut coldfile_used) {
                continue;
            }
            seen[v] = true;
            parent[v] = Some(u);
            queue.push_back(v);
        }
    }
    let chain_of = |mut id: usize| -> String {
        let mut names = vec![items[id].display()];
        while let Some(p) = parent[id] {
            names.push(items[p].display());
            id = p;
        }
        names.reverse();
        names.join(" → ")
    };

    // Findings: sites inside reachable functions, minus vetted entries.
    let mut vetted: Vec<VettedSite> = Vec::new();
    let mut site_used = vec![false; allow.sites.len()];
    for (id, it) in items.iter().enumerate() {
        if !seen[id] {
            continue;
        }
        for site in &scans[id].sites {
            let text = owner[id].line(site.line);
            let allowed = match site.kind {
                "alloc" => vet(&allow.sites, &mut site_used, &it.file, text),
                _ => vet(panic_allow, &mut panic_used, &it.file, text),
            };
            if allowed {
                vetted.push(VettedSite {
                    file: it.file.clone(),
                    line: site.line,
                    kind: site.kind,
                    what: site.what.clone(),
                    func: it.display(),
                    func_line: it.line,
                });
            } else {
                findings.push(Finding {
                    file: it.file.clone(),
                    line: site.line,
                    rule: if site.kind == "alloc" {
                        "hot-alloc"
                    } else {
                        "hot-panic"
                    },
                    chain: chain_of(id),
                    msg: format!(
                        "{} in `{}`, reachable from a steady-state entry point — {}",
                        site.what,
                        it.display(),
                        if site.kind == "alloc" {
                            "hoist to a scratch buffer, or vet it in xtask/analyze_allow.txt"
                        } else {
                            "return an error, or vet the invariant in xtask/lint_allow.txt"
                        }
                    ),
                });
            }
        }
    }

    // Stale allow entries are hard errors (the ratchet must not rot).
    let mut stale = |file: &str, msg: String| findings.push(finding(file, 0, "stale-allow", msg));
    for (i, c) in allow.cold.iter().enumerate() {
        if !cold_used[i] {
            stale(
                "xtask/analyze_allow.txt",
                if cold_defined[i] {
                    format!("`cold {c}` was never reached from an entry point — prune it")
                } else {
                    format!("`cold {c}` names no function in the workspace — prune it")
                },
            );
        }
    }
    for (i, p) in allow.coldfiles.iter().enumerate() {
        if !coldfile_used[i] {
            stale(
                "xtask/analyze_allow.txt",
                format!("`coldfile {p}` was never reached from an entry point — prune it"),
            );
        }
    }
    for (i, (p, frag)) in allow.sites.iter().enumerate() {
        if !site_used[i] {
            stale(
                "xtask/analyze_allow.txt",
                format!("`site {p} :: {frag}` matches no reachable allocation site — prune it"),
            );
        }
    }
    for (i, (p, frag)) in panic_allow.iter().enumerate() {
        if !panic_used[i] {
            stale(
                "xtask/lint_allow.txt",
                format!("`{p} :: {frag}` vetted no panic site in this pass — prune it"),
            );
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    vetted.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));

    let mut cold_hits: Vec<String> = allow
        .cold
        .iter()
        .enumerate()
        .filter(|(i, _)| cold_used[*i])
        .map(|(_, c)| c.clone())
        .chain(
            allow
                .coldfiles
                .iter()
                .enumerate()
                .filter(|(i, _)| coldfile_used[*i])
                .map(|(_, p)| format!("file:{p}")),
        )
        .collect();
    cold_hits.sort();

    AnalyzeResult {
        files: files.len(),
        functions: items.len(),
        edges: edge_count,
        reachable: seen.iter().filter(|&&s| s).count(),
        findings,
        vetted,
        cold_hits,
    }
}

/// Renders the `--json` report (hand-rolled: no serde in the image).
pub fn report_json(res: &AnalyzeResult) -> String {
    fn esc(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
    let mut out = String::new();
    out.push_str("{\n  \"schema\": \"flowlut_analyze_v1\",\n");
    out.push_str(&format!("  \"files\": {},\n", res.files));
    out.push_str(&format!("  \"functions\": {},\n", res.functions));
    out.push_str(&format!("  \"call_edges\": {},\n", res.edges));
    out.push_str(&format!("  \"reachable_functions\": {},\n", res.reachable));
    out.push_str("  \"entry_points\": [");
    let entries: Vec<String> = ENTRY_POINTS
        .iter()
        .map(|e| format!("\"{}\"", esc(&e.display())))
        .collect();
    out.push_str(&entries.join(", "));
    out.push_str("],\n  \"findings\": [\n");
    let rows: Vec<String> = res
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"chain\": \"{}\", \"msg\": \"{}\"}}",
                esc(&f.file),
                f.line,
                f.rule,
                esc(&f.chain),
                esc(&f.msg)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"vetted_hot_sites\": [\n");
    let rows: Vec<String> = res
        .vetted
        .iter()
        .map(|v| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"func\": \"{}\", \"func_line\": {}, \"what\": \"{}\"}}",
                esc(&v.file),
                v.line,
                v.kind,
                esc(&v.func),
                v.func_line,
                esc(&v.what)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"cold_barriers_hit\": [");
    let rows: Vec<String> = res
        .cold_hits
        .iter()
        .map(|c| format!("\"{}\"", esc(c)))
        .collect();
    out.push_str(&rows.join(", "));
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry_tick() -> Vec<Entry> {
        vec![Entry::Type("FlowLutSim", "tick")]
    }

    fn files(srcs: &[(&str, &str)]) -> Vec<(String, String)> {
        srcs.iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect()
    }

    #[test]
    fn extracts_impl_methods_and_free_fns() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { helper(); }\n}\nfn helper() {}\nimpl FlowPipeline for FlowLutSim {\n    fn push(&mut self) {}\n}\n";
        let m = extract("a.rs", src);
        assert_eq!(m.items.len(), 3);
        assert_eq!(m.items[0].display(), "FlowLutSim::tick");
        assert_eq!(m.items[1].display(), "helper");
        assert_eq!(m.items[2].trait_name.as_deref(), Some("FlowPipeline"));
        assert_eq!(m.items[2].impl_type.as_deref(), Some("FlowLutSim"));
    }

    #[test]
    fn generic_impl_headers_resolve_to_base_type() {
        let src = "impl<P: FlowPipeline> Session<P> {\n    fn offer(&mut self) {}\n}\nimpl<T> fmt::Display for Wrapper<T> where T: Copy {\n    fn fmt(&self) {}\n}\n";
        let m = extract("a.rs", src);
        assert_eq!(m.items[0].display(), "Session::offer");
        assert_eq!(m.items[1].impl_type.as_deref(), Some("Wrapper"));
        assert_eq!(m.items[1].trait_name.as_deref(), Some("Display"));
    }

    #[test]
    fn cfg_test_items_are_excluded() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { live(); }\n    #[test]\n    fn u() {}\n}\n#[test]\nfn also_test() {}\nfn live2() {}\n#[cfg(not(test))]\nfn live3() {}\n";
        let m = extract("a.rs", src);
        let live: Vec<&str> = m
            .items
            .iter()
            .filter(|i| !i.is_test)
            .map(|i| i.name.as_str())
            .collect();
        assert_eq!(live, vec!["live", "live2", "live3"]);
    }

    #[test]
    fn planted_hot_alloc_is_found_with_chain() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.step(); }\n    fn step(&mut self) { let v = vec![0u8; 4]; drop(v); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let alloc: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-alloc")
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", res.findings);
        assert_eq!(alloc[0].line, 3);
        assert_eq!(alloc[0].chain, "FlowLutSim::tick → FlowLutSim::step");
    }

    #[test]
    fn transitive_panic_is_found_across_files() {
        let a = "impl FlowLutSim {\n    pub fn tick(&mut self) { deep_helper(1); }\n}\n";
        let b = "pub fn deep_helper(x: u32) { inner(x); }\nfn inner(x: u32) { x.checked_add(1).unwrap(); }\n";
        let res = analyze_sources(
            &files(&[
                ("crates/core/src/sim/mod.rs", a),
                ("crates/core/src/util.rs", b),
            ]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let p: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-panic")
            .collect();
        assert_eq!(p.len(), 1, "{:?}", res.findings);
        assert_eq!(p[0].chain, "FlowLutSim::tick → deep_helper → inner");
    }

    #[test]
    fn cold_barrier_stops_traversal_and_unreached_code_is_free() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.cold_setup(); }\n    fn cold_setup(&mut self) { let v = vec![1]; drop(v); }\n    fn never_called(&mut self) { let v = vec![2]; drop(v); }\n}\n";
        let mut allow = AnalyzeAllow::default();
        allow.cold.push("FlowLutSim::cold_setup".to_string());
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &[],
        );
        assert!(
            res.findings.is_empty(),
            "cold + unreached allocs must not be findings: {:?}",
            res.findings
        );
        assert_eq!(res.cold_hits, vec!["FlowLutSim::cold_setup"]);
    }

    #[test]
    fn vetted_site_is_reported_as_worklist_not_finding() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { let b = chunk.to_vec(); push(b); }\n}\nfn push(_b: u8) {}\n";
        let mut allow = AnalyzeAllow::default();
        allow.sites.push((
            "crates/core/src/sim/mod.rs".to_string(),
            "chunk.to_vec()".to_string(),
        ));
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &[],
        );
        assert!(res.findings.is_empty(), "{:?}", res.findings);
        assert_eq!(res.vetted.len(), 1);
        assert_eq!(res.vetted[0].kind, "alloc");
        assert_eq!(res.vetted[0].func, "FlowLutSim::tick");
    }

    #[test]
    fn panic_allow_reuses_lint_allow_entries() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.q.pop().expect(\"queue invariant\"); }\n}\n";
        let panic_allow = vec![(
            "crates/core/src/sim/mod.rs".to_string(),
            ".expect(\"queue invariant\")".to_string(),
        )];
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &panic_allow,
        );
        assert!(res.findings.is_empty(), "{:?}", res.findings);
        assert_eq!(res.vetted.len(), 1);
        assert_eq!(res.vetted[0].kind, "panic");
    }

    #[test]
    fn stale_allow_entries_are_hard_errors() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) {}\n}\n";
        let mut allow = AnalyzeAllow::default();
        allow.cold.push("FlowLutSim::gone".to_string());
        allow
            .coldfiles
            .push("crates/baselines/src/dead.rs".to_string());
        allow.sites.push((
            "crates/core/src/sim/mod.rs".to_string(),
            "nothing here".to_string(),
        ));
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &allow,
            &[],
        );
        let stale: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "stale-allow")
            .collect();
        assert_eq!(stale.len(), 3, "{:?}", res.findings);
    }

    #[test]
    fn missing_entry_point_is_reported() {
        let res = analyze_sources(
            &files(&[("a.rs", "fn f() {}")]),
            &[Entry::Type("FlowLutSim", "tick")],
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(res.findings.iter().any(|f| f.rule == "entry-missing"));
    }

    #[test]
    fn dyn_widened_method_calls_reach_all_impls() {
        // `self.mem.tick()` must widen to every `tick` method — here the
        // DDR3 model's, whose vec![] then surfaces with a chain.
        let a = "impl FlowLutSim {\n    pub fn tick(&mut self) { self.mem.tick(); }\n}\n";
        let b = "impl Ddr3Model {\n    pub fn tick(&mut self) -> Vec<u8> { vec![0] }\n}\n";
        let res = analyze_sources(
            &files(&[
                ("crates/core/src/sim/mod.rs", a),
                ("crates/ddr3/src/model.rs", b),
            ]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let alloc: Vec<&Finding> = res
            .findings
            .iter()
            .filter(|f| f.rule == "hot-alloc")
            .collect();
        assert_eq!(alloc.len(), 1, "{:?}", res.findings);
        assert_eq!(alloc[0].chain, "FlowLutSim::tick → Ddr3Model::tick");
    }

    #[test]
    fn allocs_in_strings_and_comments_are_invisible() {
        let src = "impl FlowLutSim {\n    // vec![] in a comment\n    pub fn tick(&mut self) { let s = \"vec![0]; Box::new(1)\"; use_it(s); }\n}\nfn use_it(_s: &str) {}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        assert!(res.findings.is_empty(), "{:?}", res.findings);
    }

    #[test]
    fn heap_constructor_calls_are_alloc_sites() {
        let src = "impl FlowLutSim {\n    pub fn tick(&mut self) { let b = Box::new(1); let v: Vec<u8> = Vec::with_capacity(8); drop((b, v)); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        assert_eq!(
            res.findings
                .iter()
                .filter(|f| f.rule == "hot-alloc")
                .count(),
            2,
            "{:?}",
            res.findings
        );
    }

    #[test]
    fn allow_parser_flags_malformed_lines() {
        let a = parse_analyze_allow(
            "cold A::b\ncoldfile x.rs\nsite p.rs :: frag\nbogus line\nsite missing-sep\n",
        );
        assert_eq!(a.cold, vec!["A::b"]);
        assert_eq!(a.coldfiles, vec!["x.rs"]);
        assert_eq!(a.sites.len(), 1);
        assert_eq!(a.errors.len(), 2);
    }

    #[test]
    fn report_json_is_parseable_and_complete() {
        let src =
            "impl FlowLutSim {\n    pub fn tick(&mut self) { let v = vec![0]; drop(v); }\n}\n";
        let res = analyze_sources(
            &files(&[("crates/core/src/sim/mod.rs", src)]),
            &entry_tick(),
            &AnalyzeAllow::default(),
            &[],
        );
        let doc = crate::lint::parse_json(&report_json(&res)).expect("report must be valid JSON");
        assert!(doc.get("findings").is_some());
        assert!(doc.get("reachable_functions").is_some());
        assert!(matches!(
            doc.get("schema"),
            Some(crate::lint::Json::Str(s)) if s == "flowlut_analyze_v1"
        ));
    }
}
