//! `gmf-tidy`: the repo's in-tree determinism & soundness linter.
//!
//! Every guarantee this workspace makes — byte-identical reports across
//! thread counts, warm-vs-cold admission equality, conformance bounds that
//! dominate simulation — is a *determinism and numeric-exactness* property.
//! The dynamic test suite can only catch a violation it happens to execute;
//! this linter catches the well-known ways of smuggling nondeterminism or
//! silent numeric wrap into the tree *statically*, at `cargo test` time.
//!
//! The checks are deliberately lexical (line-oriented token scanning with
//! comment/string stripping), in the style of rustc's own `tidy`: no
//! dependencies, no type information, millisecond runtime, zero risk of the
//! gate itself breaking the build.  Each check is a named rule; see
//! [`RULES`] for the list and DESIGN.md §"Static invariants" for the full
//! rationale.
//!
//! ## Suppressing a finding
//!
//! Every exception must be a reviewed, grep-able decision:
//!
//! * per line — a comment on the flagged line, or alone on the line above:
//!   `tidy-allow: unwrap invariant: routes have at least two nodes`
//!   (several rules may be listed comma-separated before the reason);
//! * per file — a `tidy-allow-file: float <reason>` comment anywhere in the
//!   file (conventionally in the header) exempts the whole file from the
//!   named rules.
//!
//! A reason is mandatory; an annotation naming an unknown rule is itself a
//! violation, so stale allows cannot rot silently.
//!
//! ## Heuristics (and their limits)
//!
//! * Test code is exempt from most rules.  A file region is considered test
//!   code from the first line containing `#[cfg(test)]` onward — the
//!   workspace convention of a trailing `mod tests`.  Files under `tests/`
//!   are test code in full; `src/bin/`, `benches/` and `examples/` are
//!   binary/example code.
//! * String literals and comments are stripped before matching, so writing
//!   `"HashMap"` in a message cannot trip the linter.  Raw strings, nested
//!   block comments and char literals are handled; exotic macro tricks are
//!   not — this is a tripwire, not a proof.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Marker introducing a per-line suppression comment.  Built by
/// concatenation so the linter does not mistake its own source for an
/// annotation when run over this crate.
const ALLOW: &str = concat!("tidy-", "allow:");
/// Marker introducing a whole-file suppression comment.
const ALLOW_FILE: &str = concat!("tidy-", "allow-file:");
/// First line of the conventional trailing test module.
const TEST_MARKER: &str = concat!("#[cfg", "(test)]");

/// One finding: a rule fired on a line of a workspace source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Name of the rule that fired (see [`RULES`]).
    pub rule: &'static str,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A rule's name and one-line rationale, for `--list` output and docs.
pub struct RuleDef {
    /// Short kebab-case name used in `tidy-allow` annotations.
    pub name: &'static str,
    /// Why the rule exists.
    pub rationale: &'static str,
}

/// The rule set, in the order checks run.
pub const RULES: &[RuleDef] = &[
    RuleDef {
        name: "hash",
        rationale: "std HashMap/HashSet iteration order is randomized per process; one \
                    iteration in a report or analysis path breaks byte-identical output. \
                    Use BTreeMap/BTreeSet or dense indices.",
    },
    RuleDef {
        name: "float",
        rationale: "bound-computing modules must stay on the Time/Bits newtypes whose \
                    tolerances are centrally controlled; ad-hoc f32/f64 arithmetic \
                    reintroduces platform- and order-dependent rounding. Tag genuine \
                    telemetry/ratio code with an allow.",
    },
    RuleDef {
        name: "clock",
        rationale: "wall-clock reads and ambient randomness (Instant::now, SystemTime, \
                    thread_rng) make deterministic paths run-dependent; seeds and times \
                    must flow in through configuration.",
    },
    RuleDef {
        name: "cast",
        rationale: "bare `as` numeric casts truncate or saturate silently; in the \
                    analysis crate use the index helpers or checked conversions so \
                    every narrowing is witnessed.",
    },
    RuleDef {
        name: "time-arith",
        rationale: "busy-period and w(q) accumulations in the analysis hot paths must \
                    use the checked/saturating Time helpers (saturating_add, \
                    checked_mul) so overflow fails loudly instead of wrapping; bare \
                    `+=`/`-=` bypasses them.",
    },
    RuleDef {
        name: "unwrap",
        rationale: "library code must not panic on recoverable states; every unwrap()/ \
                    expect() kept for a structural invariant needs an allow stating \
                    that invariant.",
    },
    RuleDef {
        name: "alloc",
        rationale: "the per-frame kernel paths must stay allocation-free: storage \
                    comes from the per-worker KernelScratch arena, reset per flow. \
                    Vec::new/to_vec/collect there reintroduces per-frame heap \
                    traffic the refactor removed.",
    },
];

fn known_rule(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// What kind of source file a path is, for rule scoping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code (`src/` of a crate, excluding `src/bin` and `src/main.rs`).
    Lib,
    /// Binary / bench-harness code (`src/bin/`, `src/main.rs`, `benches/`).
    Bin,
    /// Integration-test code (`tests/`).
    Test,
    /// Example code (`examples/`).
    Example,
}

/// Per-file context a rule's scope predicate sees.
struct FileCtx<'a> {
    rel: &'a str,
    kind: FileKind,
    crate_name: &'a str,
    in_test_region: bool,
}

/// Classify a workspace-relative path (forward slashes).
fn classify(rel: &str) -> (FileKind, &str) {
    if let Some(rest) = rel.strip_prefix("crates/") {
        let (name, tail) = rest.split_once('/').unwrap_or((rest, ""));
        let kind = if tail.starts_with("tests/") {
            FileKind::Test
        } else if tail.starts_with("examples/") {
            FileKind::Example
        } else if tail.starts_with("benches/")
            || tail.starts_with("src/bin/")
            || tail == "src/main.rs"
        {
            FileKind::Bin
        } else {
            FileKind::Lib
        };
        (kind, name)
    } else if rel.starts_with("tests/") {
        (FileKind::Test, "gmfnet")
    } else if rel.starts_with("examples/") {
        (FileKind::Example, "gmfnet")
    } else if rel == "src/main.rs" || rel.starts_with("src/bin/") {
        (FileKind::Bin, "gmfnet")
    } else {
        (FileKind::Lib, "gmfnet")
    }
}

/// Crates whose library code forms the deterministic engine: analysis
/// results must be a pure function of inputs.  `gmf-bench` is deliberately
/// absent — measuring wall time is its job.
const ENGINE_CRATES: &[&str] = &[
    "gmf-model",
    "net",
    "par",
    "analysis",
    "switch-sim",
    "workloads",
    "gmfnet",
];

/// Modules that compute or carry schedulability bounds, where raw floats
/// are banned outside tagged telemetry/ratio code.
const BOUND_SCOPE: &[&str] = &[
    "crates/analysis/src/",
    "crates/net/src/",
    "crates/gmf-model/src/units.rs",
    "crates/gmf-model/src/demand.rs",
    "crates/gmf-model/src/encapsulation.rs",
    "crates/gmf-model/src/arrival.rs",
    "crates/switch-sim/src/stats.rs",
];

/// Index-heavy engine modules where bare `as` casts are banned (rule
/// `cast`): the analysis crate plus the shard scheduler's engine path —
/// the flow-component union-find the partition layer is built on and the
/// deterministic work-partitioning primitives admission lanes run
/// through.
const CAST_SCOPE: &[&str] = &[
    "crates/analysis/src/",
    "crates/net/src/components.rs",
    "crates/par/src/",
];

/// The per-frame / busy-period hot paths where unchecked accumulation is
/// banned entirely (rule `time-arith`).
const HOT_PATHS: &[&str] = &[
    "crates/analysis/src/busy_period.rs",
    "crates/analysis/src/first_hop.rs",
    "crates/analysis/src/ingress.rs",
    "crates/analysis/src/egress.rs",
    "crates/analysis/src/kernel.rs",
    "crates/gmf-model/src/table.rs",
];

/// The per-frame kernel modules where heap allocation is banned entirely
/// (rule `alloc`): every byte of scratch must come from the per-worker
/// `KernelScratch` arena so the steady-state analysis loop performs no
/// allocator calls at all.
const ALLOC_SCOPE: &[&str] = &["crates/analysis/src/kernel.rs"];

fn rule_applies(rule: &str, ctx: &FileCtx<'_>) -> bool {
    // Test code may use whatever is convenient; the properties it asserts
    // are what guard the engine.
    if ctx.kind == FileKind::Test || ctx.in_test_region {
        return false;
    }
    match rule {
        "hash" => true,
        "float" => ctx.kind == FileKind::Lib && BOUND_SCOPE.iter().any(|p| ctx.rel.starts_with(p)),
        "clock" => ENGINE_CRATES.contains(&ctx.crate_name),
        "cast" => ctx.kind == FileKind::Lib && CAST_SCOPE.iter().any(|p| ctx.rel.starts_with(p)),
        "time-arith" => HOT_PATHS.contains(&ctx.rel),
        "unwrap" => ctx.kind == FileKind::Lib,
        "alloc" => ALLOC_SCOPE.contains(&ctx.rel),
        _ => false,
    }
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// `true` if `code` contains `tok` delimited by non-identifier characters.
fn has_token(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(tok) {
        let i = from + pos;
        let j = i + tok.len();
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after_ok = j >= bytes.len() || !is_ident_byte(bytes[j]);
        if before_ok && after_ok {
            return true;
        }
        from = i + 1;
    }
    false
}

const NUMERIC_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64",
];

/// Find a bare `as <numeric type>` cast in stripped code; returns the
/// target type.
fn bare_numeric_cast(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find("as") {
        let i = from + pos;
        let j = i + 2;
        let word = (i == 0 || !is_ident_byte(bytes[i - 1]))
            && (j >= bytes.len() || !is_ident_byte(bytes[j]));
        if word {
            let rest = code[j..].trim_start();
            let end = rest
                .bytes()
                .position(|c| !is_ident_byte(c))
                .unwrap_or(rest.len());
            let target = &rest[..end];
            if let Some(t) = NUMERIC_TYPES.iter().find(|t| **t == target) {
                return Some(t);
            }
        }
        from = i + 2;
    }
    None
}

/// Run one rule's matcher over a stripped code line of a `kind` file.
fn rule_check(rule: &str, code: &str, kind: FileKind) -> Option<String> {
    match rule {
        "hash" => ["HashMap", "HashSet"]
            .iter()
            .find(|t| has_token(code, t))
            .map(|t| {
                format!(
                    "{t} has randomized iteration order; use BTreeMap/BTreeSet or dense indices"
                )
            }),
        "float" => ["f32", "f64"].iter().find(|t| has_token(code, t)).map(|t| {
            format!("raw {t} in a bound-computing module; use Time/Bits or tag as telemetry")
        }),
        "clock" => ["Instant", "SystemTime", "thread_rng", "from_entropy"]
            .iter()
            .find(|t| has_token(code, t))
            .map(|t| {
                format!(
                    "{t} makes a deterministic path run-dependent; inject times/seeds via config"
                )
            })
            .or_else(|| {
                // Binaries may read their environment; library code takes
                // every setting through its configuration types.
                (kind == FileKind::Lib && code.contains("env::var(")).then(|| {
                    "env::var( makes library behaviour depend on the process environment; \
                     take the setting through configuration"
                        .to_string()
                })
            }),
        "cast" => bare_numeric_cast(code)
            .map(|t| format!("bare `as {t}` cast; use the index helpers or a checked conversion")),
        "time-arith" => ["+=", "-="].iter().find(|t| code.contains(**t)).map(|t| {
            format!("`{t}` in an analysis hot path; use Time::saturating_add/checked_mul helpers")
        }),
        "alloc" => ["Vec::new", ".to_vec(", ".collect("]
            .iter()
            .find(|t| code.contains(**t))
            .map(|t| {
                format!(
                    "`{t}` allocates in a per-frame kernel path; take storage from the \
                     KernelScratch arena"
                )
            }),
        "unwrap" => [".unwrap()", ".expect("]
            .iter()
            .find(|t| code.contains(**t))
            .map(|t| {
                format!(
                    "{t}..) in library code; handle the error or state the invariant in an allow",
                )
            }),
        _ => None,
    }
}

/// Incremental comment/string stripper.  Feed raw lines in order; returns
/// the line with comments and literal contents blanked out.
#[derive(Default)]
struct Stripper {
    /// Nesting depth of `/* */` block comments.
    block_depth: usize,
    /// Inside a normal `"` string that continues past a line break.
    in_string: bool,
    /// Inside a raw string; the number of `#`s that close it.
    in_raw: Option<usize>,
}

impl Stripper {
    fn strip_line(&mut self, line: &str) -> String {
        let b = line.as_bytes();
        let mut out = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            if self.block_depth > 0 {
                if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                    self.block_depth += 1;
                    i += 2;
                } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    self.block_depth -= 1;
                    i += 2;
                } else {
                    i += 1;
                }
                continue;
            }
            if let Some(hashes) = self.in_raw {
                if b[i] == b'"' && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes {
                    self.in_raw = None;
                    i += 1 + hashes;
                } else {
                    i += 1;
                }
                continue;
            }
            if self.in_string {
                match b[i] {
                    b'\\' => i += 2,
                    b'"' => {
                        self.in_string = false;
                        i += 1;
                    }
                    _ => i += 1,
                }
                continue;
            }
            match b[i] {
                b'/' if i + 1 < b.len() && b[i + 1] == b'/' => break,
                b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                    self.block_depth = 1;
                    i += 2;
                }
                b'"' => {
                    // Look back for a raw/byte-string prefix (r", br", r#"…).
                    let mut k = i;
                    let mut hashes = 0;
                    while k > 0 && b[k - 1] == b'#' {
                        k -= 1;
                        hashes += 1;
                    }
                    let raw = k > 0
                        && (b[k - 1] == b'r')
                        && (k < 2 || !is_ident_byte(b[k - 2]) || b[k - 2] == b'b');
                    if raw {
                        self.in_raw = Some(hashes);
                    } else {
                        self.in_string = true;
                    }
                    out.push(' ');
                    i += 1;
                }
                b'\'' => {
                    // Char literal vs lifetime: a literal closes within a
                    // few characters; a lifetime never closes.
                    let rest = &b[i + 1..];
                    let close = if rest.first() == Some(&b'\\') {
                        rest.iter().skip(1).position(|&c| c == b'\'').map(|p| p + 1)
                    } else {
                        rest.iter().take(2).position(|&c| c == b'\'')
                    };
                    match close {
                        Some(p) => {
                            out.push(' ');
                            i += p + 2;
                        }
                        None => {
                            out.push('\'');
                            i += 1;
                        }
                    }
                }
                c => {
                    out.push(c as char);
                    i += 1;
                }
            }
        }
        out
    }
}

/// A parsed `tidy-allow` annotation.
struct Allow {
    rules: Vec<String>,
    whole_file: bool,
    /// `true` if the annotation is the only content on its line, so it also
    /// covers the following line.
    standalone: bool,
}

/// Parse the allow annotation on a raw line, if any.  Returns an error
/// message for malformed annotations (unknown rule, missing reason).
fn parse_allow(raw: &str, stripped: &str) -> Option<Result<Allow, String>> {
    let (marker, whole_file) = if raw.contains(ALLOW_FILE) {
        (ALLOW_FILE, true)
    } else if raw.contains(ALLOW) {
        (ALLOW, false)
    } else {
        return None;
    };
    let pos = raw.find(marker).unwrap_or(0);
    // Annotations live in `//` comments; the marker appearing anywhere else
    // (e.g. in a help-message string literal) is not an annotation.
    if !raw[..pos].contains("//") {
        return None;
    }
    let after = &raw[pos + marker.len()..];
    // tidy-allow: unwrap invariant text
    // tidy-allow: float, cast utilization ratio
    let mut rules = Vec::new();
    let mut rest = after.trim_start();
    loop {
        let end = rest
            .bytes()
            .position(|c| !(is_ident_byte(c) || c == b'-'))
            .unwrap_or(rest.len());
        let word = &rest[..end];
        if !known_rule(word) {
            if rules.is_empty() {
                return Some(Err(format!(
                    "allow annotation names unknown rule `{word}` (known: {})",
                    RULES.iter().map(|r| r.name).collect::<Vec<_>>().join(", ")
                )));
            }
            break;
        }
        rules.push(word.to_string());
        rest = rest[end..].trim_start();
        if let Some(stripped_comma) = rest.strip_prefix(',') {
            rest = stripped_comma.trim_start();
        } else {
            break;
        }
    }
    if rest.trim().is_empty() {
        return Some(Err(
            "allow annotation is missing a reason; write `tidy-allow: unwrap <why it is safe>`"
                .to_string(),
        ));
    }
    Some(Ok(Allow {
        rules,
        whole_file,
        standalone: stripped.trim().is_empty(),
    }))
}

/// Check one source file's contents.  `rel` is the workspace-relative path
/// with forward slashes; it drives rule scoping.
pub fn check_source(rel: &str, content: &str) -> Vec<Violation> {
    let (kind, crate_name) = classify(rel);
    let lines: Vec<&str> = content.lines().collect();

    // Pass 1: strip, find the test region, and collect allow annotations.
    let mut stripper = Stripper::default();
    let stripped: Vec<String> = lines.iter().map(|l| stripper.strip_line(l)).collect();
    let test_region_start = lines
        .iter()
        .position(|l| l.contains(TEST_MARKER))
        .unwrap_or(lines.len());

    let mut violations = Vec::new();
    let mut file_allows: Vec<String> = Vec::new();
    // line index -> rules allowed on that line
    let mut line_allows: Vec<Vec<String>> = vec![Vec::new(); lines.len()];
    for (idx, raw) in lines.iter().enumerate() {
        match parse_allow(raw, &stripped[idx]) {
            None => {}
            Some(Err(msg)) => violations.push(Violation {
                file: rel.to_string(),
                line: idx + 1,
                rule: "allow-syntax",
                message: msg,
            }),
            Some(Ok(allow)) => {
                if allow.whole_file {
                    file_allows.extend(allow.rules);
                } else {
                    if allow.standalone && idx + 1 < lines.len() {
                        let next = line_allows[idx + 1].clone();
                        line_allows[idx + 1] = [next, allow.rules.clone()].concat();
                    }
                    line_allows[idx].extend(allow.rules);
                }
            }
        }
    }

    // Pass 2: run every in-scope rule over the stripped code.
    for (idx, code) in stripped.iter().enumerate() {
        let ctx = FileCtx {
            rel,
            kind,
            crate_name,
            in_test_region: idx >= test_region_start,
        };
        for rule in RULES {
            if !rule_applies(rule.name, &ctx) {
                continue;
            }
            if file_allows.iter().any(|a| a == rule.name)
                || line_allows[idx].iter().any(|a| a == rule.name)
            {
                continue;
            }
            if let Some(message) = rule_check(rule.name, code, kind) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: rule.name,
                    message,
                });
            }
        }
    }
    violations
}

/// Collect every `.rs` file the linter covers, as sorted
/// `(workspace-relative, absolute)` pairs.  Vendored stand-in crates and
/// build outputs are out of scope.
fn workspace_sources(root: &Path) -> io::Result<Vec<(String, PathBuf)>> {
    let mut files = Vec::new();
    let mut roots: Vec<PathBuf> = ["src", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            for sub in ["src", "tests", "benches", "examples"] {
                roots.push(dir.join(sub));
            }
        }
    }
    for r in roots {
        collect_rs(&r, root, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut violations = Vec::new();
    for (rel, abs) in workspace_sources(root)? {
        let content = fs::read_to_string(&abs)?;
        violations.extend(check_source(&rel, &content));
    }
    Ok(violations)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: &str = "crates/analysis/src/pipeline.rs";

    fn check(rel: &str, src: &str) -> Vec<Violation> {
        check_source(rel, src)
    }

    fn rules_fired(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn hash_rule_fires_and_btree_passes() {
        let bad = "use std::collections::HashMap;\n";
        let good = "use std::collections::BTreeMap;\n";
        assert_eq!(rules_fired(&check(LIB, bad)), ["hash"]);
        assert!(check(LIB, good).is_empty());
    }

    #[test]
    fn hash_rule_skips_strings_comments_and_tests() {
        let in_string = "let msg = \"HashMap is banned\";\n";
        assert!(check(LIB, in_string).is_empty());
        let in_comment = "// a HashMap would be wrong here\n";
        assert!(check(LIB, in_comment).is_empty());
        let in_block = "/* HashMap\nHashSet */ let x = 1;\n";
        assert!(check(LIB, in_block).is_empty());
        let in_tests = format!(
            "fn ok() {{}}\n{}\nmod t {{ use std::collections::HashMap; }}\n",
            TEST_MARKER
        );
        assert!(check(LIB, &in_tests).is_empty());
    }

    #[test]
    fn float_rule_scoped_to_bound_modules() {
        let bad = "pub fn f(x: f64) -> f64 { x }\n";
        assert_eq!(rules_fired(&check(LIB, bad)), ["float"]);
        // In scope since the histogram rework: the simulator statistics
        // module computes bound-comparable percentiles, so raw floats must
        // carry a telemetry tag there too.
        assert_eq!(
            rules_fired(&check("crates/switch-sim/src/stats.rs", bad)),
            ["float"]
        );
        // Still out of scope: the rest of the simulator.
        assert!(check("crates/switch-sim/src/sim.rs", bad).is_empty());
        // Substrings of identifiers do not count.
        assert!(check(LIB, "let f64ish_name = time;\n").is_empty());
    }

    #[test]
    fn clock_rule_fires_in_engine_not_bench() {
        let bad = "let t0 = std::time::Instant::now();\n";
        assert_eq!(rules_fired(&check("crates/par/src/lib.rs", bad)), ["clock"]);
        assert_eq!(rules_fired(&check(LIB, bad)), ["clock"]);
        assert!(check("crates/bench/src/lib.rs", bad).is_empty());
        let rng = "let mut rng = thread_rng();\n";
        assert_eq!(
            rules_fired(&check("crates/workloads/src/fuzz.rs", rng)),
            ["clock"]
        );
    }

    #[test]
    fn clock_rule_flags_env_reads_in_engine_libraries_only() {
        // The retired simulator pattern: a library consulting the process
        // environment behind its configuration's back.
        let bad = "let keep = config.keep_samples\n    || std::env::var(\"GMF_SIM_KEEP_SAMPLES\")\n        .map(|v| !v.is_empty() && v != \"0\")\n        .unwrap_or(false);\n";
        let found = check("crates/switch-sim/src/sim.rs", bad);
        assert_eq!(rules_fired(&found), ["clock"]);
        assert_eq!(found[0].line, 2);
        assert_eq!(rules_fired(&check(LIB, bad)), ["clock"]);
        // An allow with a reason accepts the line.
        let allowed =
            format!("let v = std::env::var(\"X\"); // {ALLOW} clock documented override\n");
        assert!(check("crates/switch-sim/src/sim.rs", &allowed).is_empty());
        // Binaries, benches, tests and non-engine crates may read the
        // environment.
        let read = "let v = std::env::var(\"X\");\n";
        for path in [
            "crates/bench/src/bin/bench_export.rs",
            "crates/switch-sim/benches/sim.rs",
            "crates/switch-sim/tests/props.rs",
            "tests/admission_properties.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert!(check(path, read).is_empty(), "{path}");
        }
    }

    #[test]
    fn clock_rule_covers_the_resilience_surfaces() {
        // The failure-and-recovery subsystem is engine code on all three
        // layers: survivor analysis, scripted simulator faults and the
        // ring workload generator must stay pure functions of their seeds.
        let bad = "let t0 = std::time::Instant::now();\n";
        for path in [
            "crates/analysis/src/resilience.rs",
            "crates/switch-sim/src/faults.rs",
            "crates/workloads/src/resilience.rs",
        ] {
            assert_eq!(rules_fired(&check(path, bad)), ["clock"], "{path}");
        }
    }

    #[test]
    fn cast_rule_fires_on_bare_casts_only_in_analysis() {
        let bad = "let i = x as usize;\n";
        assert_eq!(rules_fired(&check(LIB, bad)), ["cast"]);
        // The shard scheduler is an engine path: the union-find behind the
        // partition layer and the parallel work-partitioning crate.
        assert_eq!(
            rules_fired(&check("crates/net/src/components.rs", bad)),
            ["cast"]
        );
        assert_eq!(rules_fired(&check("crates/par/src/lib.rs", bad)), ["cast"]);
        assert!(check("crates/net/src/route.rs", bad).is_empty());
        // `as` used for imports is not a cast.
        assert!(check(LIB, "use gmf_model::Time as T;\n").is_empty());
        // try_from is the sanctioned form.
        assert!(check(LIB, "let i = usize::try_from(x)?;\n").is_empty());
    }

    #[test]
    fn time_arith_rule_scoped_to_hot_paths() {
        let bad = "total += d.mx(t);\n";
        let hot = "crates/analysis/src/first_hop.rs";
        assert_eq!(rules_fired(&check(hot, bad)), ["time-arith"]);
        // The same accumulation elsewhere in the crate is not flagged.
        assert!(check(LIB, bad).is_empty());
        let good = "total = total.saturating_add(d.mx(t));\n";
        assert!(check(hot, good).is_empty());
        // The kernel modules added by the demand-table refactor are hot
        // paths too.
        assert_eq!(
            rules_fired(&check("crates/analysis/src/kernel.rs", bad)),
            ["time-arith"]
        );
        assert_eq!(
            rules_fired(&check("crates/gmf-model/src/table.rs", bad)),
            ["time-arith"]
        );
    }

    #[test]
    fn alloc_rule_scoped_to_kernel_paths() {
        let kernel = "crates/analysis/src/kernel.rs";
        for bad in [
            "let v: Vec<Time> = Vec::new();\n",
            "let copy = slice.to_vec();\n",
            "let all: Vec<Time> = items.iter().map(f).collect();\n",
        ] {
            assert_eq!(rules_fired(&check(kernel, bad)), ["alloc"], "{bad:?}");
            // The same allocation outside the kernel paths is fine.
            assert!(check(LIB, bad).is_empty(), "{bad:?}");
        }
        // Arena reuse is the sanctioned pattern.
        assert!(check(kernel, "scratch.terms.extend(specs.iter().map(f));\n").is_empty());
        // The escape hatch documents intentional one-time allocation.
        let allowed = "// tidy-allow: alloc arena construction, once per worker\nlet v: Vec<Time> = Vec::new();\n";
        assert!(check(kernel, allowed).is_empty());
    }

    #[test]
    fn unwrap_rule_exempts_bins_tests_examples() {
        let bad = "let v = m.get(&k).unwrap();\n";
        let bad2 = "let v = m.get(&k).expect(\"present\");\n";
        assert_eq!(rules_fired(&check(LIB, bad)), ["unwrap"]);
        assert_eq!(rules_fired(&check(LIB, bad2)), ["unwrap"]);
        assert!(check("crates/bench/src/bin/exp_topology.rs", bad).is_empty());
        assert!(check("tests/properties.rs", bad).is_empty());
        assert!(check("examples/quickstart.rs", bad).is_empty());
        // unwrap_or is fine.
        assert!(check(LIB, "let v = m.get(&k).copied().unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn allow_on_same_line_suppresses() {
        let src = format!("let v = m.get(&k).unwrap(); // {ALLOW} unwrap key inserted above\n");
        assert!(check(LIB, &src).is_empty());
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let src = format!("// {ALLOW} unwrap key inserted above\nlet v = m.get(&k).unwrap();\n");
        assert!(check(LIB, &src).is_empty());
        // ... but not two lines down.
        let far = format!(
            "// {ALLOW} unwrap key inserted above\nlet a = 1;\nlet v = m.get(&k).unwrap();\n"
        );
        assert_eq!(rules_fired(&check(LIB, &far)), ["unwrap"]);
    }

    #[test]
    fn allow_is_rule_specific() {
        let src = format!("let i = x as usize; // {ALLOW} unwrap not the right rule\n");
        assert_eq!(rules_fired(&check(LIB, &src)), ["cast"]);
    }

    #[test]
    fn comma_separated_allow_covers_multiple_rules() {
        let src =
            format!("let u = c as f64 / t as f64; // {ALLOW} float, cast utilization ratio\n");
        assert!(check(LIB, &src).is_empty());
    }

    #[test]
    fn file_level_allow_covers_whole_file() {
        let src = format!(
            "// {ALLOW_FILE} float Time's storage representation lives here\npub fn f(x: f64) -> f64 {{ x }}\n"
        );
        assert!(check(LIB, &src).is_empty());
    }

    #[test]
    fn malformed_allows_are_violations() {
        let unknown = format!("let x = 1; // {ALLOW} bogus-rule some reason\n");
        assert_eq!(rules_fired(&check(LIB, &unknown)), ["allow-syntax"]);
        let no_reason = format!("let v = m.get(&k).unwrap(); // {ALLOW} unwrap\n");
        let fired = rules_fired(&check(LIB, &no_reason));
        assert!(
            fired.contains(&"allow-syntax"),
            "missing reason must be flagged: {fired:?}"
        );
    }

    #[test]
    fn violation_display_is_file_line_rule() {
        let v = &check(LIB, "use std::collections::HashSet;\n")[0];
        let s = v.to_string();
        assert!(
            s.starts_with("crates/analysis/src/pipeline.rs:1: [hash]"),
            "{s}"
        );
    }

    #[test]
    fn raw_strings_and_char_literals_are_stripped() {
        let raw = "let p = r#\"contains HashMap and f64\"#;\n";
        assert!(check(LIB, raw).is_empty());
        let ch = "let c = 'a'; let t: &'static str = x;\n";
        assert!(check(LIB, ch).is_empty());
    }

    #[test]
    fn multiline_string_keeps_rule_quiet() {
        let src = "let s = \"first line HashMap\nsecond line f64\";\nlet ok = 1;\n";
        assert!(check(LIB, src).is_empty());
    }

    #[test]
    fn workspace_run_is_clean_smoke() {
        // The real gate lives in tests/tidy_clean.rs; this is a cheap sanity
        // check that the walker finds this very crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let files = workspace_sources(&root).expect("workspace walk");
        assert!(files.iter().any(|(rel, _)| rel == "crates/tidy/src/lib.rs"));
        assert!(files.iter().all(|(rel, _)| !rel.starts_with("vendor/")));
    }
}
