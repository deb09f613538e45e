//! The rule engine: directive parsing, region computation, and the
//! per-file determinism rules D1–D8 (plus META for malformed directives).
//! Every rule reads one file's token stream and the tables in `policy`.

use crate::lexer::{lex, Tok, TokKind};
use crate::policy;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule id: "D1".."D8" or "META".
    pub rule: &'static str,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// A parsed `// detlint::allow(<rule>, reason = "...")` directive.
#[derive(Clone, Debug)]
pub struct Allow {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub reason: String,
}

/// A parsed `// detlint::boundary(reason = "...")` directive: declares the
/// next item a quantization boundary where D1/D3 are permitted.
#[derive(Clone, Debug)]
pub struct Boundary {
    pub file: String,
    pub line: u32,
    /// Last line of the item the boundary covers.
    pub end_line: u32,
    pub reason: String,
}

/// Result of linting one file.
#[derive(Debug, Default)]
pub struct FileLint {
    pub violations: Vec<Violation>,
    pub allows: Vec<Allow>,
    pub boundaries: Vec<Boundary>,
}

/// Lint a single source text as if it lived at `rel_path` (workspace-relative,
/// forward slashes). This is the unit the fixture tests drive directly.
pub fn lint_source(rel_path: &str, src: &str) -> FileLint {
    let toks = lex(src);
    let code: Vec<&Tok> = toks.iter().filter(|t| t.kind != TokKind::Comment).collect();

    let mut out = FileLint::default();
    parse_directives(rel_path, &toks, &code, &mut out);
    let test_regions = find_test_regions(&code);

    // An allow covers its own line and the next code line.
    let mut allowed_lines: Vec<(&'static str, u32)> = Vec::new();
    for a in &out.allows {
        allowed_lines.push((a.rule, a.line));
        if let Some(next) = code.iter().map(|t| t.line).find(|&l| l > a.line) {
            allowed_lines.push((a.rule, next));
        }
    }

    let in_tests = |line: u32| test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));
    let in_boundary = |line: u32| {
        out.boundaries
            .iter()
            .any(|b| (b.line..=b.end_line).contains(&line))
    };
    let allowed =
        |rule: &str, line: u32| allowed_lines.iter().any(|&(r, l)| r == rule && l == line);

    let mut raw: Vec<Violation> = Vec::new();
    if policy::d1_applies(rel_path) {
        rule_d1(rel_path, &code, &mut raw);
    }
    if policy::d2_applies(rel_path) {
        rule_d2(rel_path, &code, &mut raw);
    }
    if policy::d3_applies(rel_path) {
        rule_d3(rel_path, &code, &mut raw);
    }
    if policy::d4_applies(rel_path) {
        rule_d4(rel_path, &code, &mut raw);
    }
    if policy::d5_applies(rel_path) {
        rule_d5(rel_path, &code, &mut raw);
    }
    rule_d6(rel_path, &out.allows, &mut raw);
    if policy::d7_applies(rel_path) {
        rule_d7(rel_path, &code, &mut raw);
    }
    if policy::d8_applies(rel_path) {
        rule_d8(rel_path, &code, &mut raw);
    }

    let mut seen_lines: Vec<(&'static str, u32)> = Vec::new();
    for v in raw {
        if in_tests(v.line) {
            continue;
        }
        if matches!(v.rule, "D1" | "D3") && in_boundary(v.line) {
            continue;
        }
        if allowed(v.rule, v.line) {
            continue;
        }
        // One diagnostic per (rule, line): a single expression can trip the
        // same rule many times and the extra reports are noise.
        if seen_lines.contains(&(v.rule, v.line)) {
            continue;
        }
        seen_lines.push((v.rule, v.line));
        out.violations.push(v);
    }
    out.violations
        .sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

/// Rule ids an allow may name. D6 is absent on purpose: it polices the
/// allows themselves, so it cannot be waived from inside the file — the
/// waiver is an entry in `policy::NONDET_AUDITED_FILES`.
const ALLOWABLE_RULES: &[&str] = &["D1", "D2", "D3", "D4", "D5", "D7", "D8"];

fn intern_rule(name: &str) -> Option<&'static str> {
    ALLOWABLE_RULES.iter().find(|&&r| r == name).copied()
}

fn parse_directives(rel_path: &str, toks: &[Tok], code: &[&Tok], out: &mut FileLint) {
    for t in toks.iter().filter(|t| t.kind == TokKind::Comment) {
        // A directive is a plain `//` line comment whose text starts with
        // `detlint::`. Doc comments and prose that merely *mention* the
        // syntax are not directives.
        let Some(body) = t.text.strip_prefix("//") else {
            continue;
        };
        if body.starts_with('/') || body.starts_with('!') {
            continue;
        }
        let Some(rest) = body.trim_start().strip_prefix("detlint::") else {
            continue;
        };
        let meta = |msg: String| Violation {
            rule: "META",
            file: rel_path.to_string(),
            line: t.line,
            col: t.col,
            message: msg,
        };
        let (kind, rest) = if let Some(r) = rest.strip_prefix("allow") {
            ("allow", r)
        } else if let Some(r) = rest.strip_prefix("boundary") {
            ("boundary", r)
        } else {
            out.violations.push(meta(format!(
                "unknown detlint directive; expected `detlint::allow(...)` or \
                 `detlint::boundary(...)`, found `detlint::{}`",
                rest.split(|c: char| !c.is_alphanumeric() && c != '_')
                    .next()
                    .unwrap_or("")
            )));
            continue;
        };
        let Some(args) = paren_args(rest) else {
            out.violations.push(meta(format!(
                "malformed `detlint::{kind}` directive: expected `({})`",
                if kind == "allow" {
                    "<rule>, reason = \"...\""
                } else {
                    "reason = \"...\""
                }
            )));
            continue;
        };
        let reason = args.iter().find_map(|a| kv_reason(a));
        match kind {
            "allow" => {
                let rule = args.first().and_then(|a| intern_rule(a.trim()));
                match (rule, reason) {
                    (Some(rule), Some(reason)) => {
                        out.allows.push(Allow {
                            rule,
                            file: rel_path.to_string(),
                            line: t.line,
                            col: t.col,
                            reason,
                        });
                    }
                    (None, _) => out.violations.push(meta(format!(
                        "`detlint::allow` needs a waivable rule id (D1..D5, D7, D8) as \
                         its first argument, found `{}`; D6 is waived only by an \
                         entry in `policy::NONDET_AUDITED_FILES`",
                        args.first().map(|s| s.trim()).unwrap_or("")
                    ))),
                    (_, None) => out.violations.push(meta(
                        "`detlint::allow` requires `reason = \"...\"`: every \
                         suppression must say why it is sound"
                            .to_string(),
                    )),
                }
            }
            _ => match reason {
                Some(_) if !(policy::d1_applies(rel_path) || policy::d3_applies(rel_path)) => {
                    out.violations.push(meta(
                        "`detlint::boundary` in a file where neither D1 nor D3 applies: \
                         a boundary only permits D1/D3 inside the next item; write an \
                         ordinary comment instead"
                            .to_string(),
                    ))
                }
                Some(reason) => {
                    let end_line = boundary_end(code, t.line).unwrap_or(t.line);
                    out.boundaries.push(Boundary {
                        file: rel_path.to_string(),
                        line: t.line,
                        end_line,
                        reason,
                    });
                }
                None => out.violations.push(meta(
                    "`detlint::boundary` requires `reason = \"...\"`: every \
                     quantization boundary must be justified"
                        .to_string(),
                )),
            },
        }
    }
}

/// Split `(a, b, c)` at the head of `s` into top-level comma-separated args,
/// honoring string quotes. Returns None if the parens are missing/unclosed.
fn paren_args(s: &str) -> Option<Vec<String>> {
    let s = s.trim_start();
    let mut chars = s.chars();
    if chars.next() != Some('(') {
        return None;
    }
    let mut args = vec![String::new()];
    let mut depth = 1u32;
    let mut in_str = false;
    let mut escaped = false;
    for c in chars {
        if in_str {
            args.last_mut().unwrap().push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_str = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_str = true;
                args.last_mut().unwrap().push(c);
            }
            '(' => {
                depth += 1;
                args.last_mut().unwrap().push(c);
            }
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(args);
                }
                args.last_mut().unwrap().push(c);
            }
            ',' if depth == 1 => args.push(String::new()),
            _ => args.last_mut().unwrap().push(c),
        }
    }
    None
}

/// Parse `reason = "..."` returning the quoted text.
fn kv_reason(arg: &str) -> Option<String> {
    let rest = arg.trim().strip_prefix("reason")?.trim_start();
    let rest = rest.strip_prefix('=')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    let reason = &rest[..end];
    if reason.trim().is_empty() {
        return None;
    }
    Some(reason.to_string())
}

/// End line of the item following a boundary directive on `line`: the
/// matching `}` of the item's body, or the first `;` at depth 0 (depth
/// counts all delimiters, so the `;` in `[f64; 3]` does not terminate).
fn boundary_end(code: &[&Tok], line: u32) -> Option<u32> {
    let start = code.iter().position(|t| t.line > line)?;
    scan_item(&code[start..]).or_else(|| code.last().map(|t| t.line))
}

/// Shared item-extent scan: returns the line of the `}` closing the first
/// brace group, or of a `;` at delimiter depth 0, whichever comes first.
fn scan_item(code: &[&Tok]) -> Option<u32> {
    let mut depth = 0i32;
    let mut opened_brace = false;
    for t in code {
        if t.kind == TokKind::Punct {
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
    }
    None
}

// ---------------------------------------------------------------------------
// Test regions
// ---------------------------------------------------------------------------

/// Line spans of items annotated `#[cfg(test)]` (typically `mod tests`),
/// where the determinism rules do not apply.
fn find_test_regions(code: &[&Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < code.len() {
        if is_punct(code, i, "#")
            && is_punct(code, i + 1, "[")
            && is_ident(code, i + 2, "cfg")
            && is_punct(code, i + 3, "(")
        {
            if let Some(close_paren) = match_group(code, i + 3, "(", ")") {
                let mentions_test = code[i + 3..=close_paren]
                    .iter()
                    .any(|t| t.kind == TokKind::Ident && t.text == "test");
                if mentions_test {
                    if let Some(close_bracket) = match_group(code, i + 1, "[", "]") {
                        if let Some(end_line) = item_end_line(code, close_bracket + 1) {
                            regions.push((code[i].line, end_line));
                            let next = code
                                .iter()
                                .position(|t| t.line > end_line)
                                .unwrap_or(code.len());
                            i = next.max(i + 1);
                            continue;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    regions
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

/// Line of the token ending the item starting at `from` (skipping any
/// further attributes): the `}` closing its body, or a `;` at depth 0.
fn item_end_line(code: &[&Tok], mut from: usize) -> Option<u32> {
    while is_punct(code, from, "#") && is_punct(code, from + 1, "[") {
        from = match_group(code, from + 1, "[", "]")? + 1;
    }
    scan_item(&code[from..])
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn push(raw: &mut Vec<Violation>, rule: &'static str, file: &str, t: &Tok, message: String) {
    raw.push(Violation {
        rule,
        file: file.to_string(),
        line: t.line,
        col: t.col,
        message,
    });
}

/// D1: no floats in the fixed-point core / bit-exact state.
fn rule_d1(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for t in code {
        match t.kind {
            TokKind::Float => push(
                raw,
                "D1",
                file,
                t,
                format!(
                    "float literal `{}` in a bit-exact module; move it behind a \
                     `detlint::boundary` quantization boundary or express it in \
                     fixed point",
                    t.text
                ),
            ),
            TokKind::Ident if t.text == "f32" || t.text == "f64" => push(
                raw,
                "D1",
                file,
                t,
                format!(
                    "floating-point type `{}` in a bit-exact module; only \
                     annotated quantization boundaries may convert to/from floats",
                    t.text
                ),
            ),
            _ => {}
        }
    }
}

/// D2: no unordered containers in deterministic crates.
fn rule_d2(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for t in code {
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "HashMap" | "HashSet") {
            push(
                raw,
                "D2",
                file,
                t,
                format!(
                    "`{}` in a deterministic crate: iteration order varies run to \
                     run; use BTreeMap/BTreeSet or a sorted Vec (or allow with a \
                     proof the use never iterates)",
                    t.text
                ),
            );
        }
    }
}

/// D3: no lossy integer `as` casts in fixpoint outside `rounding.rs`.
fn rule_d3(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for i in 0..code.len() {
        if code[i].kind == TokKind::Ident && code[i].text == "as" {
            if let Some(next) = code.get(i + 1) {
                if next.kind == TokKind::Ident
                    && policy::NARROW_INT_TARGETS.contains(&next.text.as_str())
                {
                    push(
                        raw,
                        "D3",
                        file,
                        code[i],
                        format!(
                            "lossy `as {}` cast outside the audited rounding \
                             module; use the `rounding` helpers (rne_shr_*) or a \
                             checked conversion",
                            next.text
                        ),
                    );
                }
            }
        }
    }
}

/// D4: no wall-clock / thread-topology reads on the simulation path.
fn rule_d4(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for t in code {
        if t.kind == TokKind::Ident && policy::D4_IDENTS.contains(&t.text.as_str()) {
            push(
                raw,
                "D4",
                file,
                t,
                format!(
                    "`{}` on the simulation path: wall-clock and thread-topology \
                     reads make behavior depend on the host, not the state",
                    t.text
                ),
            );
        }
    }
}

/// D5: no order-sensitive reductions downstream of a parallel fan-out —
/// rayon parallel iterators, or `std::thread` spawn/scope/channel drains.
fn rule_d5(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let rayon = policy::D5_PAR_IDENTS.contains(&t.text.as_str());
        let threaded = policy::D5_THREAD_IDENTS.contains(&t.text.as_str());
        if !rayon && !threaded {
            continue;
        }
        // Scan the rest of the statement (to `;` at relative depth 0) for an
        // order-sensitive combinator. Reducers inside nested closures sit at
        // depth ≥ 1 and do not fire: a spawned closure may reduce its *own*
        // private buffer freely.
        let mut depth = 0i32;
        for u in code.iter().skip(i + 1) {
            if u.kind == TokKind::Punct {
                match u.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth < 0 {
                            break;
                        }
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            if u.kind == TokKind::Ident
                && depth == 0
                && policy::D5_REDUCERS.contains(&u.text.as_str())
            {
                let message = if rayon {
                    format!(
                        "parallel `{}` feeds `{}`: reduction order depends on \
                         work stealing, which is non-associative over floats; \
                         reduce in fixed point or impose a deterministic split",
                        t.text, u.text
                    )
                } else {
                    format!(
                        "cross-thread `{}` feeds `{}`: accumulation order \
                         depends on thread scheduling; fill a private per-rank \
                         buffer on each thread and merge serially in fixed \
                         rank order (DESIGN.md §8)",
                        t.text, u.text
                    )
                };
                push(raw, "D5", file, t, message);
                break;
            }
        }
    }
}

/// D6: an allow of a nondeterminism-class rule (D2, D4, D5) is legal only
/// in the files `policy::NONDET_AUDITED_FILES` names. Where the allowed
/// rule does not apply the directive is inert and D6 says nothing.
fn rule_d6(file: &str, allows: &[Allow], raw: &mut Vec<Violation>) {
    if policy::NONDET_AUDITED_FILES.contains(&file) {
        return;
    }
    for a in allows {
        let policed = match a.rule {
            "D2" => policy::d2_applies(file),
            "D4" => policy::d4_applies(file),
            "D5" => policy::d5_applies(file),
            _ => false,
        };
        if policed {
            raw.push(Violation {
                rule: "D6",
                file: file.to_string(),
                line: a.line,
                col: a.col,
                message: format!(
                    "`detlint::allow({})` outside the audited files: an escape from a \
                     hash-order, wall-clock or reduction-order rule is legal only in a \
                     file `policy::NONDET_AUDITED_FILES` names; remove the source or \
                     add this file to that table",
                    a.rule
                ),
            });
        }
    }
}

/// D7: unchecked `+ - * <<` arithmetic on raw fixed-point values outside
/// the fixpoint wrapper modules. The lexical signature is an arithmetic
/// operator adjacent to a `.raw()` read: outside `crates/fixpoint`, the
/// sanctioned operations are the wrapping/rounding wrappers, so any bare
/// operator on the two's-complement representation panics in debug builds
/// and silently wraps in release — breaking bit-exactness symptoms-first.
fn rule_d7(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokKind::Ident
            || !policy::D7_RAW_ACCESSORS.contains(&t.text.as_str())
            || i == 0
            || !is_punct(code, i - 1, ".")
            || !is_punct(code, i + 1, "(")
            || !is_punct(code, i + 2, ")")
        {
            continue;
        }
        let after = op_at(code, i + 3);
        // A `.raw()` at token 1 has no receiver expression before the dot
        // (degenerate input); only walk backward when one can exist.
        let before = if i < 2 {
            None
        } else {
            receiver_start(code, i - 2).and_then(|s| {
                if s == 0 {
                    None
                } else {
                    op_ending_at(code, s - 1)
                }
            })
        };
        if let Some(op) = after.or(before) {
            push(
                raw,
                "D7",
                file,
                t,
                format!(
                    "raw fixed-point value from `.{}()` feeds unchecked `{op}`: debug \
                     builds panic on overflow and release builds wrap outside the \
                     sanctioned two's-complement wrappers; use the fixpoint wrapping/\
                     rounding operations (wrapping_add, mul, rne_shr_*) instead",
                    t.text
                ),
            );
        }
    }
}

/// Is the token at `i` (looking forward) a D7-relevant binary operator?
fn op_at(code: &[&Tok], i: usize) -> Option<&'static str> {
    if !code.get(i).is_some_and(|t| t.kind == TokKind::Punct) {
        return None;
    }
    match code[i].text.as_str() {
        "+" => Some("+"),
        "-" => Some("-"),
        "*" => Some("*"),
        "<" if is_punct(code, i + 1, "<") => Some("<<"),
        _ => None,
    }
}

/// Is the token at `i` (looking backward) a D7-relevant operator? `<<`
/// lexes as two `<` puncts, so check the pair ending at `i`.
fn op_ending_at(code: &[&Tok], i: usize) -> Option<&'static str> {
    if !code.get(i).is_some_and(|t| t.kind == TokKind::Punct) {
        return None;
    }
    match code[i].text.as_str() {
        "+" => Some("+"),
        "*" => Some("*"),
        "<" if i > 0 && is_punct(code, i - 1, "<") => Some("<<"),
        // A lone leading `-` may be unary negation — which is *also*
        // unchecked on the raw representation, so it is flagged too.
        "-" => Some("-"),
        _ => None,
    }
}

/// Walk backward over the receiver expression of a method call whose `.`
/// sits at `dot + 1`: path segments, field accesses, index and call
/// suffixes. Returns the index of the receiver's first token.
fn receiver_start(code: &[&Tok], mut j: usize) -> Option<usize> {
    loop {
        let t = code.get(j)?;
        match (t.kind, t.text.as_str()) {
            (TokKind::Punct, ")") | (TokKind::Punct, "]") => {
                let open = if t.text == ")" { "(" } else { "[" };
                let mut depth = 0i32;
                loop {
                    let u = code.get(j)?;
                    if u.kind == TokKind::Punct {
                        if u.text == t.text {
                            depth += 1;
                        } else if u.text == open {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                    }
                    j = j.checked_sub(1)?;
                }
                if j == 0 {
                    return Some(0);
                }
                j -= 1;
            }
            (TokKind::Ident, _) | (TokKind::Int, _) => {
                if j >= 2 && is_punct(code, j - 1, ".") {
                    j -= 2;
                } else if j >= 3 && is_punct(code, j - 1, ":") && is_punct(code, j - 2, ":") {
                    j -= 3;
                } else {
                    return Some(j);
                }
            }
            _ => return Some(j + 1),
        }
    }
}

/// D8: non-endian-explicit byte serialization in checkpoint/trace payload
/// paths. On-disk formats must be byte-identical across hosts; native-
/// endian encodes, `transmute`, and untyped byte views make the payload
/// depend on the writer's architecture.
fn rule_d8(file: &str, code: &[&Tok], raw: &mut Vec<Violation>) {
    for t in code {
        if t.kind == TokKind::Ident && policy::D8_IDENTS.contains(&t.text.as_str()) {
            push(
                raw,
                "D8",
                file,
                t,
                format!(
                    "`{}` in a host-portable payload path: byte layout must not \
                     depend on the writer's architecture; use to_le_bytes/\
                     from_le_bytes (or allow with a proof the bytes are \
                     endian-free, e.g. UTF-8)",
                    t.text
                ),
            );
        }
    }
}
