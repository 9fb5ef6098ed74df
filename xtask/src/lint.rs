//! The per-file rules of `cargo xtask lint`.
//!
//! Each rule is a pure function over one file returning the findings it
//! made, so every rule is unit-tested both ways: clean input passes,
//! seeded violations are reported (the linter demonstrably *fails*
//! when it should). The source rules read the file's [`FileModel`], so
//! a pattern inside a string, raw string, char literal or comment is
//! never code, and test code is whatever the model's scope tracking
//! says it is.
//!
//! The vendored shims under `vendor/` (ports of external crates) are
//! exempt from `crate-attrs` — except `vendor/loomlite`, which is
//! first-party.

use std::collections::HashSet;

use crate::analyze::{finding, panic_site, vet, FileModel, Finding, PANIC_SITES};
use crate::lexer::TokKind;

/// Whether `path` (repo-relative, `/`-separated) is test code by
/// location: an integration-test tree or a path-based unit-test module
/// (`…/tests.rs`).
pub fn is_test_file(path: &str) -> bool {
    path.contains("/tests/") || path.ends_with("/tests.rs")
}

/// `crate-attrs`: a first-party crate root must forbid unsafe code and
/// deny missing docs.
pub fn check_crate_attrs(path: &str, src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for attr in ["#![forbid(unsafe_code)]", "#![deny(missing_docs)]"] {
        if !src.lines().any(|l| l.trim() == attr) {
            out.push(finding(
                path,
                0,
                "crate-attrs",
                format!("crate root is missing `{attr}`"),
            ));
        }
    }
    out
}

/// `sync-facade`: engine sources must reach every synchronization
/// primitive through `flowlut_core::sync`, never `std` directly —
/// otherwise the model suite silently stops covering that primitive.
pub fn check_sync_facade(m: &FileModel) -> Vec<Finding> {
    let toks = &m.toks;
    let mut out = Vec::new();
    for (i, w) in toks.windows(3).enumerate() {
        if w[0].is_ident("std")
            && w[1].is_punct("::")
            && w[2].kind == TokKind::Ident
            && ["sync", "thread", "hint"].contains(&w[2].text.as_str())
            && !m.test[i]
        {
            out.push(finding(
                &m.path,
                w[0].line,
                "sync-facade",
                format!(
                    "direct `std::{}` use — import it from `flowlut_core::sync` so the model checker sees it",
                    w[2].text
                ),
            ));
        }
    }
    out
}

/// `ordering-doc`: every atomic-ordering choice must carry a nearby
/// `// ordering:` justification (same line or the 4 lines above), so a
/// reviewer — and the next refactor — can tell load-bearing SeqCst from
/// incidental. `use` statements and `cmp::Ordering` are recognized
/// structurally.
pub fn check_ordering_comments(m: &FileModel) -> Vec<Finding> {
    const WINDOW: usize = 4;
    let justified: HashSet<usize> = m
        .comments
        .iter()
        .filter(|t| t.text.contains("ordering:"))
        .map(|t| t.line)
        .collect();
    let toks = &m.toks;
    let mut out = Vec::new();
    let mut stmt_start = true;
    let mut in_use = false;
    for (i, t) in toks.iter().enumerate() {
        if stmt_start && t.is_ident("use") {
            in_use = true;
        }
        if t.is_punct(";") {
            in_use = false;
        }
        stmt_start = t.is_punct(";") || t.is_punct("{") || t.is_punct("}");
        let is_site = t.is_ident("Ordering")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident);
        if !is_site || in_use || m.test[i] {
            continue;
        }
        // `cmp::Ordering` (and `std::cmp::Ordering`) is not an atomic site.
        if i >= 2 && toks[i - 1].is_punct("::") && toks[i - 2].is_ident("cmp") {
            continue;
        }
        let documented = (t.line.saturating_sub(WINDOW)..=t.line).any(|l| justified.contains(&l));
        if !documented {
            out.push(finding(
                &m.path,
                t.line,
                "ordering-doc",
                "atomic `Ordering::` site without an adjacent `// ordering:` justification"
                    .to_string(),
            ));
        }
    }
    out
}

/// `no-panic`: hot-path modules must not `.unwrap()`/`.expect(`/`panic!(`
/// except at sites vetted in the allowlist (`xtask/lint_allow.txt`,
/// entries of the form `path :: line-substring`, matched against the
/// raw source line). Marks the entries that vetted a site in `used`.
pub fn check_no_panic(
    m: &FileModel,
    allowlist: &[(String, String)],
    used: &mut [bool],
) -> Vec<Finding> {
    let mut out = Vec::new();
    for (i, t) in m.toks.iter().enumerate() {
        let Some(site) = panic_site(&m.toks, i) else {
            continue;
        };
        if m.test[i]
            || !PANIC_SITES[..3].contains(&site)
            || vet(allowlist, used, &m.path, m.line(t.line))
        {
            continue;
        }
        out.push(finding(
            &m.path,
            t.line,
            "no-panic",
            format!(
                "`{site}…)` in a hot-path module — return an error, or vet the invariant in xtask/lint_allow.txt"
            ),
        ));
    }
    out
}

/// Parses the allowlist format: one `path :: substring` entry per line;
/// blank lines and `#` comments ignored.
pub fn parse_allowlist(text: &str) -> Vec<(String, String)> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (p, frag) = l.split_once(" :: ")?;
            Some((p.trim().to_string(), frag.trim().to_string()))
        })
        .collect()
}

// ---------------------------------------------------------------------
// bench-schema: a minimal JSON reader + schema-key checks
// ---------------------------------------------------------------------

/// Minimal JSON value for schema validation (no number parsing beyond
/// syntax — the perf gates in CI do the numeric checks).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number, kept as its source text.
    Num(String),
    /// A string literal (unescaped content not interpreted).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parses `text` as a single JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && b[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_byte(b: &[u8], pos: &mut usize, want: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&want) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected `{}` at byte {} (found {:?})",
            want as char,
            *pos,
            b.get(*pos).map(|&c| c as char)
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_object(b, pos),
        Some(b'[') => parse_array(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_keyword(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        other => Err(format!(
            "unexpected {:?} at byte {}",
            other.map(|&c| c as char),
            *pos
        )),
    }
}

fn parse_keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("expected `{word}` at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && (b[*pos].is_ascii_digit() || b"+-.eE".contains(&b[*pos])) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.parse::<f64>().is_err() {
        return Err(format!("bad number `{text}` at byte {start}"));
    }
    Ok(Json::Num(text.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect_byte(b, pos, b'"')?;
    let start = *pos;
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                let s = std::str::from_utf8(&b[start..*pos])
                    .map_err(|e| e.to_string())?
                    .to_string();
                *pos += 1;
                return Ok(s);
            }
            b'\\' => *pos += 2,
            _ => *pos += 1,
        }
    }
    Err(format!("unterminated string starting at byte {start}"))
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => {
                return Err(format!(
                    "expected `,` or `]` at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect_byte(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect_byte(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => {
                return Err(format!(
                    "expected `,` or `}}` at byte {} (found {:?})",
                    *pos,
                    other.map(|&c| c as char)
                ))
            }
        }
    }
}

/// Schema keys every committed perf snapshot must keep, per bench name
/// (the CI perf gates and `scripts/` tooling read them by key).
fn required_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "engine" => &[
            "bench",
            "mode",
            "workload",
            "per_shard_input_rate_mhz",
            "single_channel_mdesc_per_s",
            "results",
            "acceptance_4_shards_ge_2x",
        ],
        "parallel" => &[
            "bench",
            "mode",
            "host_parallelism",
            "workload",
            "results",
            "acceptance_applicable",
            "acceptance_threaded_4_shards_ge_1p5x",
        ],
        "memory" => &[
            "bench",
            "mode",
            "workload",
            "line_rate_mpps",
            "results",
            "verdicts",
            "acceptance_sram_ge_ddr3",
        ],
        "service" => &[
            "bench",
            "mode",
            "workload",
            "results",
            "acceptance_expiry_sustained_ge_0p9x_off",
        ],
        "scenarios" => &[
            "bench",
            "mode",
            "packets_per_stage",
            "results",
            "acceptance_adversarial_cam_exercised",
            "acceptance_baseline_degrades",
        ],
        _ => &["bench", "mode", "results"],
    }
}

/// Keys every `results` row must keep, per bench name. All benches
/// identify shard count and completion total; the memory sweep also
/// names its model and line-rate verdict per row.
fn required_row_keys(bench: &str) -> &'static [&'static str] {
    match bench {
        "memory" => &[
            "model",
            "shards",
            "mdesc_per_s",
            "headroom_vs_400gbe",
            "holds_line_rate",
            "completed",
        ],
        "service" => &[
            "shards",
            "profile",
            "completed",
            "sustained_mdesc_per_s",
            "expired_ttl",
            "pressure_evicted",
        ],
        "scenarios" => &[
            "scenario",
            "backend",
            "sim_mdesc_per_s",
            "drop_rate",
            "overflow_rate",
            "cam_spills",
            "cam_high_water",
        ],
        _ => &["shards", "completed"],
    }
}

/// `bench-schema`: `path` must parse as JSON and keep the schema keys
/// for its `bench` kind; every `results` row must identify its shard
/// count and completion total.
pub fn check_bench_schema(path: &str, text: &str) -> Vec<Finding> {
    let doc = match parse_json(text) {
        Ok(doc) => doc,
        Err(e) => return vec![finding(path, 0, "bench-schema", format!("not JSON: {e}"))],
    };
    let mut out = Vec::new();
    let bench = match doc.get("bench") {
        Some(Json::Str(b)) => b.clone(),
        _ => {
            out.push(finding(
                path,
                0,
                "bench-schema",
                "missing string key `bench`".to_string(),
            ));
            String::new()
        }
    };
    for key in required_keys(&bench) {
        if doc.get(key).is_none() {
            out.push(finding(
                path,
                0,
                "bench-schema",
                format!("missing schema key `{key}`"),
            ));
        }
    }
    match doc.get("results") {
        Some(Json::Arr(rows)) if !rows.is_empty() => {
            for (i, row) in rows.iter().enumerate() {
                for key in required_row_keys(&bench) {
                    if row.get(key).is_none() {
                        out.push(finding(
                            path,
                            0,
                            "bench-schema",
                            format!("results[{i}] is missing key `{key}`"),
                        ));
                    }
                }
            }
        }
        Some(_) | None => out.push(finding(
            path,
            0,
            "bench-schema",
            "`results` must be a non-empty array".to_string(),
        )),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::{analyze_sources, extract, AnalyzeAllow, Entry};

    fn facade(path: &str, src: &str) -> Vec<Finding> {
        check_sync_facade(&extract(path, src))
    }

    fn ordering(path: &str, src: &str) -> Vec<Finding> {
        check_ordering_comments(&extract(path, src))
    }

    fn no_panic(path: &str, src: &str, allow: &[(String, String)]) -> Vec<Finding> {
        check_no_panic(&extract(path, src), allow, &mut vec![false; allow.len()])
    }

    /// The whole source pass over one file, with no entry points.
    fn pass(path: &str, src: &str, allow: &[(String, String)]) -> Vec<Finding> {
        let files = [(path.to_string(), src.to_string())];
        analyze_sources(&files, &[], &AnalyzeAllow::default(), allow).findings
    }

    /// A test module whose string and char literals hold an unmatched
    /// `{`: a line-based brace count never sees it close.
    const BRACE_LITERAL_TEST_MOD: &str =
        "#[cfg(test)]\nmod tests {\n    const OPEN: &str = \"{\";\n    const C: char = '{';\n}\n";

    // -- the linter must pass on clean input --

    #[test]
    fn clean_crate_root_passes() {
        let src = "//! Docs.\n#![forbid(unsafe_code)]\n#![deny(missing_docs)]\npub fn f() {}\n";
        assert_eq!(check_crate_attrs("crates/x/src/lib.rs", src), vec![]);
    }

    #[test]
    fn facade_imports_pass() {
        let src = "use flowlut_core::sync::{Arc, Mutex};\nfn f() {}\n";
        assert_eq!(facade("crates/engine/src/a.rs", src), vec![]);
    }

    #[test]
    fn documented_ordering_passes() {
        let src = "fn f(a: &A) {\n    // ordering: Dekker store half.\n    a.x.store(1, Ordering::SeqCst);\n    a.y.load(Ordering::Relaxed); // ordering: gated by x.\n}\n";
        assert_eq!(ordering("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn allowlisted_expect_passes() {
        let allow =
            parse_allowlist("# vetted\ncrates/core/src/a.rs :: .expect(\"checked above\")\n");
        let src = "fn f() {\n    x.expect(\"checked above\");\n}\n";
        assert_eq!(no_panic("crates/core/src/a.rs", src, &allow), vec![]);
    }

    #[test]
    fn committed_bench_files_pass() {
        // The real committed snapshots must satisfy their own schema.
        let root = env!("CARGO_MANIFEST_DIR");
        for name in [
            "BENCH_engine.json",
            "BENCH_parallel.json",
            "BENCH_memory.json",
            "BENCH_service.json",
            "BENCH_scenarios.json",
        ] {
            let text = std::fs::read_to_string(format!("{root}/../{name}")).unwrap();
            assert_eq!(check_bench_schema(name, &text), vec![], "{name}");
        }
    }

    // -- and must demonstrably fail on violations --

    #[test]
    fn missing_crate_attrs_flagged() {
        let v = check_crate_attrs("crates/x/src/lib.rs", "//! Docs.\npub fn f() {}\n");
        assert_eq!(v.len(), 2);
        assert!(v[0].msg.contains("forbid(unsafe_code)"));
        assert!(v[1].msg.contains("deny(missing_docs)"));
    }

    #[test]
    fn direct_std_sync_flagged() {
        let src = "use std::sync::Mutex;\nfn f() { std::thread::spawn(|| {}); }\n";
        let v = facade("crates/engine/src/a.rs", src);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].line, 1);
        assert!(v[1].msg.contains("std::thread"));
    }

    #[test]
    fn std_sync_in_test_module_is_exempt() {
        let src =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n    fn t() {}\n}\n";
        assert_eq!(facade("crates/engine/src/a.rs", src), vec![]);
    }

    #[test]
    fn undocumented_ordering_flagged() {
        let src = "fn f(a: &A) {\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        let v = ordering("crates/e/src/p.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn ordering_comment_outside_window_flagged() {
        let src = "// ordering: too far away.\n\n\n\n\n\nfn f(a: &A) {\n    a.x.store(1, Ordering::SeqCst);\n}\n";
        assert_eq!(ordering("crates/e/src/p.rs", src).len(), 1);
    }

    #[test]
    fn cmp_ordering_and_imports_are_exempt() {
        let src = "use std::sync::atomic::Ordering;\nfn f(a: u32, b: u32) -> std::cmp::Ordering {\n    a.cmp(&b)\n}\n";
        assert_eq!(ordering("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn unvetted_unwrap_flagged() {
        let src = "fn f() {\n    x.unwrap();\n    y.expect(\"oops\");\n    panic!(\"boom\");\n}\n";
        let v = no_panic("crates/core/src/a.rs", src, &[]);
        assert_eq!(v.len(), 3);
        assert_eq!(v[0].rule, "no-panic");
    }

    #[test]
    fn unwrap_in_test_block_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert_eq!(no_panic("crates/core/src/a.rs", src, &[]), vec![]);
    }

    #[test]
    fn allowlist_is_path_scoped() {
        let allow = parse_allowlist("crates/core/src/a.rs :: .unwrap()");
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(no_panic("crates/core/src/a.rs", src, &allow), vec![]);
        assert_eq!(no_panic("crates/core/src/b.rs", src, &allow).len(), 1);
    }

    #[test]
    fn broken_json_flagged() {
        let v = check_bench_schema("BENCH_x.json", "{\"bench\": ");
        assert_eq!(v.len(), 1);
        assert!(v[0].msg.contains("not JSON"));
    }

    #[test]
    fn dropped_schema_key_flagged() {
        let text =
            r#"{"bench": "engine", "mode": "quick", "results": [{"shards": 1, "completed": 5}]}"#;
        let v = check_bench_schema("BENCH_engine.json", text);
        let missing: Vec<&str> = v
            .iter()
            .filter_map(|x| x.msg.strip_prefix("missing schema key `"))
            .map(|m| m.trim_end_matches('`'))
            .collect();
        assert_eq!(
            missing,
            vec![
                "workload",
                "per_shard_input_rate_mhz",
                "single_channel_mdesc_per_s",
                "acceptance_4_shards_ge_2x"
            ]
        );
    }

    #[test]
    fn dropped_memory_schema_key_flagged() {
        // Seeded violation: a memory snapshot missing its acceptance
        // key and one per-row verdict key must fail on both counts.
        let text = r#"{"bench": "memory", "mode": "quick",
            "workload": {}, "line_rate_mpps": 595.0, "verdicts": {},
            "results": [{"model": "ddr3", "shards": 1,
                "mdesc_per_s": 76.1, "headroom_vs_400gbe": 0.13,
                "completed": 16000}]}"#;
        let v = check_bench_schema("BENCH_memory.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_sram_ge_ddr3`")));
        assert!(v.iter().any(|x| x
            .msg
            .contains("results[0] is missing key `holds_line_rate`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dropped_service_schema_key_flagged() {
        // Seeded violation: a service snapshot missing its acceptance
        // key and one per-row lifecycle counter must fail on both.
        let text = r#"{"bench": "service", "mode": "quick",
            "workload": {},
            "results": [{"shards": 1, "profile": "expiry",
                "completed": 12288, "sustained_mdesc_per_s": 30.7,
                "expired_ttl": 1152}]}"#;
        let v = check_bench_schema("BENCH_service.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_expiry_sustained_ge_0p9x_off`")));
        assert!(v.iter().any(|x| x
            .msg
            .contains("results[0] is missing key `pressure_evicted`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn dropped_scenarios_schema_key_flagged() {
        // Seeded violation: a scenarios snapshot missing one acceptance
        // key and one per-row rate key must fail on both counts.
        let text = r#"{"bench": "scenarios", "mode": "quick",
            "packets_per_stage": 3000,
            "acceptance_adversarial_cam_exercised": true,
            "results": [{"scenario": "adversarial-flood",
                "backend": "hashcam (this paper)", "sim_mdesc_per_s": null,
                "drop_rate": 0.0, "cam_spills": 16,
                "cam_high_water": 0}]}"#;
        let v = check_bench_schema("BENCH_scenarios.json", text);
        assert!(v.iter().any(|x| x
            .msg
            .contains("missing schema key `acceptance_baseline_degrades`")));
        assert!(v
            .iter()
            .any(|x| x.msg.contains("results[0] is missing key `overflow_rate`")));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn result_row_without_shards_flagged() {
        let text = r#"{"bench": "z", "mode": "quick", "results": [{"completed": 5}]}"#;
        let v = check_bench_schema("BENCH_z.json", text);
        assert!(v.iter().any(|x| x.msg.contains("results[0]")));
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let doc =
            parse_json(r#"{"a": [1, -2.5e3, "x\"y"], "b": {"c": null, "d": false}}"#).unwrap();
        assert!(matches!(doc.get("a"), Some(Json::Arr(items)) if items.len() == 3));
        assert_eq!(doc.get("b").and_then(|b| b.get("c")), Some(&Json::Null));
        assert!(parse_json("{\"a\": 1} trailing").is_err());
        assert!(parse_json("[1, ]").is_err());
    }

    // -- token accuracy: literals and comments are not code --

    #[test]
    fn facade_token_in_string_or_comment_passes() {
        let src =
            "// std::sync is mentioned here\nfn f() { let s = \"std::thread::spawn\"; g(s); }\n";
        assert_eq!(facade("crates/engine/src/a.rs", src), vec![]);
    }

    #[test]
    fn panic_token_in_string_passes_but_code_flagged() {
        let src = "fn f() {\n    log(\"never .unwrap() here\");\n    x.unwrap();\n}\n";
        let v = no_panic("crates/core/src/a.rs", src, &[]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn ordering_token_in_raw_string_passes() {
        let src = "fn f() -> &'static str { r#\"store(1, Ordering::SeqCst)\"# }\n";
        assert_eq!(ordering("crates/e/src/p.rs", src), vec![]);
    }

    #[test]
    fn multiline_use_of_ordering_is_exempt() {
        // The old line-grep rule needed `use ` on the same line; the
        // token rule tracks the statement.
        let src = "use std::sync::atomic::{\n    AtomicU64,\n    Ordering::{self, SeqCst},\n};\nfn f() {}\n";
        assert_eq!(ordering("crates/e/src/p.rs", src), vec![]);
    }

    // -- stale allow entries are hard errors --

    #[test]
    fn live_allow_entry_passes_liveness() {
        let src = "fn f() {\n    x.expect(\"checked above\");\n}\n";
        let allow = parse_allowlist("crates/core/src/a.rs :: .expect(\"checked above\")");
        assert_eq!(pass("crates/core/src/a.rs", src, &allow), vec![]);
    }

    #[test]
    fn stale_allow_entry_flagged() {
        // Entry's file exists but the fragment is gone; a second entry
        // only matches inside a test module. Both are stale.
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        let allow = parse_allowlist(
            "crates/core/src/a.rs :: .expect(\"vanished\")\ncrates/core/src/a.rs :: .unwrap()",
        );
        let v = pass("crates/core/src/a.rs", src, &allow);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].rule, "stale-allow");
    }

    #[test]
    fn path_module_test_decl_does_not_swallow_file() {
        let src = "#[cfg(test)]\nmod tests;\nfn f() { x.unwrap(); }\n";
        assert_eq!(no_panic("crates/core/src/a.rs", src, &[]).len(), 1);
        assert!(is_test_file("crates/core/src/sim/tests.rs"));
        assert!(!is_test_file("crates/core/src/sim/mod.rs"));
    }

    // -- a literal brace in a test module hides no later line --

    #[test]
    fn unwrap_after_brace_literal_test_module_flagged() {
        let src = format!("{BRACE_LITERAL_TEST_MOD}fn f() {{\n    x.unwrap();\n}}\n");
        let v = no_panic("crates/core/src/a.rs", &src, &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn ordering_after_brace_literal_test_module_flagged() {
        let src = format!(
            "{BRACE_LITERAL_TEST_MOD}fn f(a: &A) {{\n    a.x.store(1, Ordering::SeqCst);\n}}\n"
        );
        let v = ordering("crates/e/src/p.rs", &src);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 7);
    }

    #[test]
    fn allow_entry_after_brace_literal_test_module_vets_its_site() {
        // The entry's only match is a hot-path site after the module: the
        // site is reported as vetted work, and the entry is live.
        let src = format!(
            "{BRACE_LITERAL_TEST_MOD}impl FlowLutSim {{\n    pub fn tick(&mut self) {{ self.q.pop().expect(\"queue invariant\"); }}\n}}\n"
        );
        let files = [("crates/core/src/sim/mod.rs".to_string(), src)];
        let allow = parse_allowlist("crates/core/src/sim/mod.rs :: .expect(\"queue invariant\")");
        let res = analyze_sources(
            &files,
            &[Entry::Type("FlowLutSim", "tick")],
            &AnalyzeAllow::default(),
            &allow,
        );
        assert_eq!(res.findings, vec![]);
        assert_eq!(res.vetted.len(), 1);
        assert_eq!((res.vetted[0].kind, res.vetted[0].line), ("panic", 7));
    }
}
