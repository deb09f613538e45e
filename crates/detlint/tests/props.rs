//! Property tests: the linter is a tier-1 CI gate, so it must never panic
//! on any input — including half-open string literals, unbalanced comment
//! markers, and mangled directives — and its output must be a pure,
//! order-independent function of the file set.

use proptest::prelude::*;

/// Fragments chosen to hit every lexer mode transition (raw strings with
/// varying hash depth, byte strings, char-vs-lifetime, nested comments),
/// every directive parse path, and every rule's trigger tokens. Sampled
/// indices concatenate them in random order so modes open without closing,
/// close without opening, and interleave.
const FRAGMENTS: &[&str] = &[
    "r#\"",
    "\"#",
    "r\"",
    "r##\"",
    "\"##",
    "\"",
    "b\"",
    "br#\"",
    "'",
    "b'",
    "'a",
    "\\",
    "\\\"",
    "/*",
    "*/",
    "//",
    "// detlint::allow(D4, reason = \"x\")",
    "// detlint::allow(D99, reason = \"x\")",
    "// detlint::allow(D4)",
    "// detlint::boundary(reason = \"y\")",
    "// detlint::boundary(",
    "detlint::allow",
    "HashMap",
    "Instant",
    "SystemTime",
    "f64",
    "1.5",
    "1e9",
    "0x1f",
    "par_iter",
    ".sum()",
    "to_ne_bytes",
    "transmute",
    ".raw()",
    "+",
    "<<",
    "*",
    "as usize",
    "fn f() {",
    "pub fn g(x: u64) -> u64 {",
    "}",
    "impl Foo {",
    "impl<T> Bar for Foo {",
    "struct S {",
    "use a::b;",
    "use anton_trace::clock;",
    "#[cfg(test)]",
    "mod tests {",
    "Self::helper()",
    "x.method()",
    "ident",
    ";",
    " ",
    "\n",
];

/// Virtual paths spanning every rule's applicability domain.
const PATHS: &[&str] = &[
    "crates/fixpoint/src/fx32.rs",
    "crates/fixpoint/src/rounding.rs",
    "crates/core/src/engine.rs",
    "crates/core/src/bad.rs",
    "crates/trace/src/clock.rs",
    "crates/ckpt/src/store.rs",
    "crates/nt/src/helper.rs",
    "crates/ewald/src/spme.rs",
    "crates/systems/src/water.rs",
    "crates/refmd/src/anything.rs",
    "crates/core/tests/exempt.rs",
];

fn soup(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|&i| FRAGMENTS[i % FRAGMENTS.len()])
        .collect()
}

proptest! {
    /// The lexer consumes any fragment soup without panicking and every
    /// token it produces carries a sane position.
    #[test]
    fn lexer_never_panics(idx in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..96)) {
        let src = soup(&idx);
        let toks = detlint::lexer::lex(&src);
        for t in &toks {
            prop_assert!(t.line >= 1);
            prop_assert!(t.col >= 1);
            prop_assert!(!t.text.is_empty());
        }
    }

    /// The full per-file rule engine (directive parser included) never
    /// panics, whatever the path and source.
    #[test]
    fn lint_source_never_panics(
        p in 0usize..PATHS.len(),
        idx in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..96),
    ) {
        let _ = detlint::lint_source(PATHS[p], &soup(&idx));
    }

    /// Linting is a pure function: the same input yields byte-identical
    /// findings every run (no hidden iteration-order or global state).
    #[test]
    fn lint_source_is_deterministic(
        p in 0usize..PATHS.len(),
        idx in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..96),
    ) {
        let src = soup(&idx);
        let a = detlint::lint_source(PATHS[p], &src);
        let b = detlint::lint_source(PATHS[p], &src);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// The workspace pass is independent of the order files are presented
    /// in: any permutation of the file list produces an identical JSON
    /// report.
    #[test]
    fn lint_sources_is_order_invariant(
        lens in proptest::collection::vec(0usize..64, 1..5),
        idx in proptest::collection::vec(0usize..FRAGMENTS.len(), 0..256),
        seed in 0u64..1024,
    ) {
        // Simulation-path files on purpose, so every rule runs over the
        // soup; slice one source per path out of the shared index pool.
        let paths = [
            "crates/core/src/engine.rs",
            "crates/nt/src/helper.rs",
            "crates/trace/src/stamp.rs",
            "crates/ckpt/src/store.rs",
        ];
        let mut files: Vec<(String, String)> = Vec::new();
        let mut cursor = 0usize;
        for (i, len) in lens.iter().enumerate() {
            let end = (cursor + len).min(idx.len());
            files.push((paths[i % paths.len()].to_string(), soup(&idx[cursor..end])));
            cursor = end;
        }

        // A deterministic permutation derived from `seed` (proptest owns
        // the randomness; Fisher–Yates over a tiny LCG).
        let mut shuffled = files.clone();
        let mut state = seed.wrapping_add(1);
        for i in (1..shuffled.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = usize::try_from(state % (i as u64 + 1)).expect("< len");
            shuffled.swap(i, j);
        }

        let a = detlint::lint_sources(&files);
        let b = detlint::lint_sources(&shuffled);
        prop_assert_eq!(detlint::report::to_json(&a), detlint::report::to_json(&b));
    }
}
