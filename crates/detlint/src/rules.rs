//! The two rules clippy and the types cannot state, read off one file's
//! token stream and the tables in `policy`:
//!
//! * **D1** — no `f32`/`f64` type and no float literal in a
//!   [`policy::D1_FILES`] file, outside `#[cfg(test)]` items and outside
//!   D1 boundaries. A boundary is the item under a reasoned
//!   `#[expect(clippy::float_arithmetic | clippy::cast_precision_loss, ..)]`:
//!   the one marker clippy checks (the escape must still fire) and detlint
//!   reads.
//! * **D6** — an `allow`, `expect` or `warn` of `clippy::disallowed_types`
//!   or `clippy::disallowed_methods` in a crate that carries the bans is
//!   legal only in a file [`policy::NONDET_AUDITED_FILES`] names.

use crate::lexer::{lex, Tok, TokKind};
use crate::policy;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// "D1" or "D6".
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A lint-level attribute group (`allow(..)`, `expect(..)`, `warn(..)`)
/// naming a [`policy::BAN_LINTS`] lint: an escape from a ban.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Escape {
    pub file: String,
    pub line: u32,
    /// `allow`, `expect` or `warn`.
    pub level: String,
    /// The banned lints it names, without the `clippy::` prefix.
    pub lints: Vec<String>,
    pub reason: Option<String>,
}

/// A D1 boundary: the item under a reasoned `#[expect]` of a
/// [`policy::BOUNDARY_LINTS`] lint, where `f32`/`f64` and float literals
/// are permitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Boundary {
    pub line: u32,
    /// Last line of the item the boundary covers.
    pub end_line: u32,
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    pub violations: Vec<Violation>,
    pub escapes: Vec<Escape>,
    pub boundaries: Vec<Boundary>,
}

/// Lint a single source text as if it lived at `rel_path` (workspace-relative,
/// forward slashes). This is the unit the fixture tests drive directly.
pub fn lint_source(rel_path: &str, src: &str) -> FileLint {
    let toks = lex(src);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();
    let d1 = policy::d1_applies(rel_path);

    let mut out = FileLint::default();
    for attr in attributes(&code) {
        for group in &attr.groups {
            let bans: Vec<String> = group
                .lints
                .iter()
                .filter(|l| policy::BAN_LINTS.contains(&l.as_str()))
                .cloned()
                .collect();
            if !bans.is_empty() {
                out.escapes.push(Escape {
                    file: rel_path.to_string(),
                    line: code[attr.start].line,
                    level: group.level.clone(),
                    lints: bans,
                    reason: group.reason.clone(),
                });
            }
            let marks_boundary = group.level == "expect"
                && !attr.inner
                && group
                    .lints
                    .iter()
                    .any(|l| policy::BOUNDARY_LINTS.contains(&l.as_str()));
            if let (true, true, Some(reason)) = (d1, marks_boundary, &group.reason) {
                let end_line = item_end_line(&code, attr.end + 1).unwrap_or(code[attr.end].line);
                out.boundaries.push(Boundary {
                    line: code[attr.start].line,
                    end_line,
                    reason: reason.clone(),
                });
            }
        }
    }

    if d1 {
        let test_regions = find_test_regions(&code);
        let exempt = |line: u32| {
            test_regions.iter().any(|&(a, b)| (a..=b).contains(&line))
                || out
                    .boundaries
                    .iter()
                    .any(|b| (b.line..=b.end_line).contains(&line))
        };
        let mut last_line = 0;
        for t in &code {
            let what = match t.kind {
                TokKind::Float => "float literal",
                TokKind::Ident if t.text == "f32" || t.text == "f64" => "floating-point type",
                _ => continue,
            };
            // One diagnostic per line: an expression can name many floats.
            if t.line == last_line || exempt(t.line) {
                continue;
            }
            last_line = t.line;
            out.violations.push(Violation {
                rule: "D1",
                file: rel_path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "{what} `{}` in a bit-exact module; express it in fixed point or \
                     put the item under a reasoned \
                     `#[expect(clippy::float_arithmetic, reason = \"..\")]` boundary",
                    t.text
                ),
            });
        }
    }

    if policy::bans_apply(rel_path) && !policy::NONDET_AUDITED_FILES.contains(&rel_path) {
        for e in &out.escapes {
            out.violations.push(Violation {
                rule: "D6",
                file: rel_path.to_string(),
                line: e.line,
                col: 1,
                message: format!(
                    "`{}(clippy::{})` outside the audited files: an escape from a \
                     wall-clock, hash-order, fan-out or byte-layout ban is legal only \
                     in a file `policy::NONDET_AUDITED_FILES` names; remove the \
                     source or add this file to that table",
                    e.level,
                    e.lints.join(", clippy::")
                ),
            });
        }
    }
    out.violations.sort_by_key(|v| (v.line, v.col, v.rule));
    out
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

/// One `#[..]` or `#![..]` attribute and the lint-level groups inside it,
/// `cfg_attr(..)`-wrapped ones included.
struct Attr {
    /// Token index of the `#`.
    start: usize,
    /// Token index of the closing `]`.
    end: usize,
    inner: bool,
    groups: Vec<LevelGroup>,
}

/// `allow(..)`, `expect(..)` or `warn(..)`: the `clippy::` lints it names
/// and its `reason = ".."`, if any.
struct LevelGroup {
    level: String,
    lints: Vec<String>,
    reason: Option<String>,
}

fn attributes(code: &[&Tok]) -> Vec<Attr> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let inner = is_punct(code, i + 1, "!");
        let open = if inner { i + 2 } else { i + 1 };
        if !is_punct(code, i, "#") || !is_punct(code, open, "[") {
            i += 1;
            continue;
        }
        let Some(end) = match_group(code, open, "[", "]") else {
            break;
        };
        let mut groups = Vec::new();
        let mut j = open + 1;
        while j < end {
            let level = code[j].text.as_str();
            if code[j].kind == TokKind::Ident
                && matches!(level, "allow" | "expect" | "warn")
                && is_punct(code, j + 1, "(")
            {
                let close = match_group(code, j + 1, "(", ")").unwrap_or(end);
                groups.push(level_group(level, &code[j + 2..close]));
                j = close;
            }
            j += 1;
        }
        out.push(Attr {
            start: i,
            end,
            inner,
            groups,
        });
        i = end + 1;
    }
    out
}

fn level_group(level: &str, args: &[&Tok]) -> LevelGroup {
    let mut lints = Vec::new();
    let mut reason = None;
    for k in 0..args.len() {
        if is_ident(args, k, "clippy") && is_punct(args, k + 1, ":") && is_punct(args, k + 2, ":") {
            if let Some(name) = args.get(k + 3).filter(|t| t.kind == TokKind::Ident) {
                lints.push(name.text.clone());
            }
        }
        if is_ident(args, k, "reason") && is_punct(args, k + 1, "=") {
            reason = args
                .get(k + 2)
                .filter(|t| t.kind == TokKind::Str)
                .map(|t| str_content(&t.text))
                .filter(|r| !r.trim().is_empty());
        }
    }
    LevelGroup {
        level: level.to_string(),
        lints,
        reason,
    }
}

/// The text of a string literal token: `"x"`, `r"x"` or `r#"x"#` → `x`.
fn str_content(lit: &str) -> String {
    let s = lit.strip_prefix('r').unwrap_or(lit).trim_matches('#');
    let s = s.strip_prefix('"').unwrap_or(s);
    s.strip_suffix('"').unwrap_or(s).to_string()
}

// ---------------------------------------------------------------------------
// Item extents and test regions
// ---------------------------------------------------------------------------

/// Line of the token ending the item starting at `from` (skipping any
/// further attributes): the `}` closing its body, or a `;` at depth 0
/// (depth counts all delimiters, so the `;` in `[f64; 3]` does not end it).
fn item_end_line(code: &[&Tok], mut from: usize) -> Option<u32> {
    while is_punct(code, from, "#") {
        let open = if is_punct(code, from + 1, "!") {
            from + 2
        } else {
            from + 1
        };
        from = match_group(code, open, "[", "]")? + 1;
    }
    let mut depth = 0i32;
    let mut opened_brace = false;
    for t in &code[from.min(code.len())..] {
        if t.kind != TokKind::Punct {
            continue;
        }
        match t.text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" => {
                depth += 1;
                opened_brace = true;
            }
            "}" => {
                depth -= 1;
                if depth == 0 && opened_brace {
                    return Some(t.line);
                }
            }
            ";" if depth == 0 => return Some(t.line),
            _ => {}
        }
    }
    code.last().map(|t| t.line)
}

/// Line spans of items annotated `#[cfg(test)]` (typically `mod tests`),
/// where D1 does not apply.
fn find_test_regions(code: &[&Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    for attr in attributes_named(code, "cfg") {
        let mentions_test = code[attr.0..=attr.1]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "test");
        if let (true, Some(end)) = (mentions_test, item_end_line(code, attr.1 + 1)) {
            regions.push((code[attr.0].line, end));
        }
    }
    regions
}

/// `(start, end)` token indices of every outer `#[name(..)]` attribute.
fn attributes_named(code: &[&Tok], name: &str) -> Vec<(usize, usize)> {
    (0..code.len())
        .filter(|&i| {
            is_punct(code, i, "#")
                && is_punct(code, i + 1, "[")
                && is_ident(code, i + 2, name)
                && is_punct(code, i + 3, "(")
        })
        .filter_map(|i| Some((i, match_group(code, i + 1, "[", "]")?)))
        .collect()
}

fn is_punct(code: &[&Tok], i: usize, p: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
}

fn is_ident(code: &[&Tok], i: usize, name: &str) -> bool {
    code.get(i)
        .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
}

/// Index of the token closing the group opened at `open_at`.
fn match_group(code: &[&Tok], open_at: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in code.iter().enumerate().skip(open_at) {
        if t.kind == TokKind::Punct {
            if t.text == open {
                depth += 1;
            } else if t.text == close {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
    }
    None
}
