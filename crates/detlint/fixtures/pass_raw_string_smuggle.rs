// Fixture: linted as crates/core/src/state.rs — rule-triggering identifiers
// inside raw strings, ordinary strings, and nested block comments are
// *text*, not code: none of these may fire, and the lexer must come out of
// every literal in sync so the real code after them still lints correctly.

pub fn doc_table() -> &'static str {
    r#"HashMap 1.0 f64 Instant::now() par_iter().sum() to_ne_bytes"#
}

pub fn tricky_terminators() -> String {
    let a = r##"ends with "# then more "## .to_string();
    let b = "escaped \" quote with Instant inside";
    let c = r"raw with backslash \ then HashMap";
    format!("{a}{b}{c}")
}

/* outer /* nested: Instant::now(), HashMap<f64, f64> */ still comment */
pub fn after_comments(x: u64) -> u64 {
    x.wrapping_mul(3)
}

pub fn byte_strings() -> (&'static [u8], u8) {
    (br#"SystemTime inside bytes"#, b'"')
}

pub fn escapes_as_text() -> &'static str {
    "#[expect(clippy::disallowed_types, reason = \"text, not an attribute\")] 2.5f64"
}
