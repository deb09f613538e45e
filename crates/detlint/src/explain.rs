//! `detlint explain <rule>`: self-documenting rules for CI logs.
//!
//! Each rule carries a rationale (why the determinism claim needs it) and
//! a minimal pass/fail example pair embedded at compile time from the same
//! fixture files the rule tests run against — so the examples can never
//! drift from what the engine actually flags.

use crate::policy;

pub struct RuleDoc {
    pub rationale: &'static str,
    /// (fixture name, contents) that the rule flags.
    pub fail: (&'static str, &'static str),
    /// (fixture name, contents) showing the sanctioned shape.
    pub pass: (&'static str, &'static str),
}

macro_rules! fixture {
    ($name:literal) => {
        ($name, include_str!(concat!("../fixtures/", $name)))
    };
}

pub fn rule_doc(rule: &str) -> Option<RuleDoc> {
    let doc = match rule {
        "D1" => RuleDoc {
            rationale: "The bit-exact core accumulates in two's-complement fixed point so \
                        results are independent of summation order, thread count and host. One \
                        f64 on that path reintroduces rounding that depends on evaluation \
                        order. Floats may only appear inside `detlint::boundary` items — the \
                        audited quantization edges where values enter or leave fixed point.",
            fail: fixture!("fail_d1_float.rs"),
            pass: fixture!("pass_boundary.rs"),
        },
        "D2" => RuleDoc {
            rationale: "HashMap/HashSet iteration order is randomized per process. Any loop \
                        over one feeds state in a host-dependent order; use BTreeMap/BTreeSet \
                        or a sorted Vec so every traversal is reproducible.",
            fail: fixture!("fail_d2_hashmap.rs"),
            pass: fixture!("pass_clean.rs"),
        },
        "D3" => RuleDoc {
            rationale: "Lossy `as` casts truncate silently; in the fixed-point crate every \
                        narrowing must round via the audited rne_shr_* primitives in \
                        rounding.rs (the one module D3 exempts) so the round-to-nearest/even \
                        contract of the ASIC is preserved everywhere.",
            fail: fixture!("fail_d3_cast.rs"),
            pass: fixture!("pass_clean.rs"),
        },
        "D4" => RuleDoc {
            rationale: "Wall-clock and thread-topology reads (Instant, SystemTime, \
                        available_parallelism, ...) make control flow depend on the host, not \
                        the simulation state. The sanctioned escape is an `allow(D4)` whose \
                        reason proves the value never reaches simulation state — and the D6 \
                        taint pass then checks that proof holds across calls.",
            fail: fixture!("fail_d4_instant.rs"),
            pass: fixture!("pass_allowed.rs"),
        },
        "D5" => RuleDoc {
            rationale: "Parallel reductions (par_iter().sum(), channel drains into fold) \
                        combine in work-stealing or scheduling order — non-associative over \
                        floats. The sanctioned pattern is per-rank private buffers merged \
                        serially in fixed rank order.",
            fail: fixture!("fail_d5_rayon.rs"),
            pass: fixture!("pass_d5_ranks.rs"),
        },
        "D6" => RuleDoc {
            rationale: "Per-file rules cannot see a sanctioned allow(D4) leaking through an \
                        ordinary function call. D6 builds the workspace call graph, seeds \
                        taint at every D1/D4-class source and nondeterminism-class allow \
                        site, and propagates callee-to-caller: a chain from a simulation \
                        root (core::engine cycle entry points) to a tainted item that does \
                        not pass through an audited `detlint::boundary` is a violation, \
                        reported with the full call chain. Fix by marking the audited \
                        absorbing item `detlint::boundary(reason = ...)` or cutting a \
                        specific edge with `allow(D6)`. The fail example below is the \
                        three-file chain engine -> helper -> source; the pass example is \
                        the same source declared as a boundary.",
            fail: fixture!("d6_source.rs"),
            pass: fixture!("d6_source_boundary.rs"),
        },
        "D7" => RuleDoc {
            rationale: "Unchecked + - * << on raw fixed-point values panics in debug builds \
                        and silently wraps in release — off the sanctioned two's-complement \
                        path, so a wrap that the wrapping wrappers would make a documented \
                        periodic identity becomes a silent bit-exactness break instead. \
                        Outside fixpoint's wrapper modules, use wrapping_add/sub/neg, mul, \
                        rne_shr_* — or allow(D7) with the overflow-headroom argument.",
            fail: fixture!("fail_d7_raw_arith.rs"),
            pass: fixture!("pass_d7_wrapping.rs"),
        },
        "D8" => RuleDoc {
            rationale: "Checkpoint and trace payloads are on-disk formats read back on \
                        arbitrary hosts: to_ne_bytes/from_ne_bytes/transmute bake the \
                        writer's endianness into the bytes, so a checkpoint migrated across \
                        architectures fails its checksum or silently decodes garbage. Every \
                        integer crosses into bytes via to_le_bytes/from_le_bytes; endian-free \
                        byte views (UTF-8) carry an audited allow(D8).",
            fail: fixture!("fail_d8_ne_bytes.rs"),
            pass: fixture!("pass_d8_le_bytes.rs"),
        },
        "META" => RuleDoc {
            rationale: "A typo in a detlint directive must never silently disable a rule: \
                        unknown rule ids, missing reasons, and malformed argument lists are \
                        violations themselves.",
            fail: fixture!("fail_meta_directives.rs"),
            pass: fixture!("pass_allowed.rs"),
        },
        _ => return None,
    };
    Some(doc)
}

/// Render one rule's documentation as the text printed by
/// `detlint explain <rule>`.
pub fn render(rule: &str) -> Option<String> {
    let doc = rule_doc(rule)?;
    let ((fail, flagged), (pass, sanctioned)) = (doc.fail, doc.pass);
    Some(format!(
        "{rule} — {}\n\n{}\n\
         \n--- flagged example (fixtures/{fail}) ---\n{flagged}\
         \n--- sanctioned example (fixtures/{pass}) ---\n{sanctioned}",
        policy::rule_description(rule),
        doc.rationale
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_has_a_doc_with_examples() {
        for rule in policy::ALL_RULES {
            let doc = rule_doc(rule).unwrap_or_else(|| panic!("no doc for {rule}"));
            assert!(!doc.rationale.is_empty());
            assert!(!doc.fail.1.is_empty(), "{rule} needs a flagged example");
            assert!(!doc.pass.1.is_empty(), "{rule} needs a sanctioned example");
        }
        assert!(rule_doc("D99").is_none());
    }

    #[test]
    fn render_includes_description_and_both_examples() {
        let text = render("D7").unwrap();
        assert!(text.contains("unchecked"));
        assert!(text.contains("flagged example"));
        assert!(text.contains("sanctioned example"));
    }
}
