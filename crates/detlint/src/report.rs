//! Deterministic machine-readable report.
//!
//! The JSON is byte-stable across runs and hosts: entries are fully sorted,
//! paths are workspace-relative with forward slashes, and there are no
//! timestamps or absolute paths. `detlint check` compares it with the
//! checked-in baseline ([`first_difference`]).

use crate::lint::WorkspaceLint;
use crate::policy;
use std::fmt::Write as _;

pub const SCHEMA: &str = "detlint-report/v1";

fn esc(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

pub fn to_json(ws: &WorkspaceLint) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": ");
    esc(SCHEMA, &mut s);
    s.push_str(",\n");
    let _ = writeln!(s, "  \"files_scanned\": {},", ws.files.len());

    s.push_str("  \"rules\": {\n");
    for (i, rule) in policy::ALL_RULES.iter().enumerate() {
        let _ = write!(s, "    \"{rule}\": ");
        esc(policy::rule_description(rule), &mut s);
        s.push_str(if i + 1 < policy::ALL_RULES.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("  },\n");

    s.push_str("  \"summary\": {\n");
    let _ = writeln!(s, "    \"total_violations\": {},", ws.violations.len());
    s.push_str("    \"by_rule\": {");
    for (i, rule) in policy::ALL_RULES.iter().enumerate() {
        let n = ws.violations.iter().filter(|v| v.rule == *rule).count();
        let _ = write!(s, "\"{rule}\": {n}");
        if i + 1 < policy::ALL_RULES.len() {
            s.push_str(", ");
        }
    }
    s.push_str("},\n");
    let _ = writeln!(s, "    \"allows\": {},", ws.allows.len());
    let _ = writeln!(s, "    \"boundaries\": {}", ws.boundaries.len());
    s.push_str("  },\n");

    s.push_str("  \"violations\": [");
    for (i, v) in ws.violations.iter().enumerate() {
        s.push_str("\n    {\"rule\": ");
        esc(v.rule, &mut s);
        s.push_str(", \"file\": ");
        esc(&v.file, &mut s);
        let _ = write!(
            s,
            ", \"line\": {}, \"col\": {}, \"message\": ",
            v.line, v.col
        );
        esc(&v.message, &mut s);
        s.push('}');
        if i + 1 < ws.violations.len() {
            s.push(',');
        }
    }
    s.push_str(if ws.violations.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"allows\": [");
    for (i, a) in ws.allows.iter().enumerate() {
        s.push_str("\n    {\"rule\": ");
        esc(a.rule, &mut s);
        s.push_str(", \"file\": ");
        esc(&a.file, &mut s);
        let _ = write!(s, ", \"line\": {}, \"reason\": ", a.line);
        esc(&a.reason, &mut s);
        s.push('}');
        if i + 1 < ws.allows.len() {
            s.push(',');
        }
    }
    s.push_str(if ws.allows.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });

    s.push_str("  \"boundaries\": [");
    for (i, b) in ws.boundaries.iter().enumerate() {
        s.push_str("\n    {\"file\": ");
        esc(&b.file, &mut s);
        let _ = write!(
            s,
            ", \"line\": {}, \"end_line\": {}, \"reason\": ",
            b.line, b.end_line
        );
        esc(&b.reason, &mut s);
        s.push('}');
        if i + 1 < ws.boundaries.len() {
            s.push(',');
        }
    }
    s.push_str(if ws.boundaries.is_empty() {
        "]\n"
    } else {
        "\n  ]\n"
    });

    s.push_str("}\n");
    s
}

/// 1-based number of the first line at which `report` and `baseline`
/// differ (one past the shorter text when it is a prefix of the other);
/// `None` when they are equal.
pub fn first_difference(report: &str, baseline: &str) -> Option<usize> {
    if report == baseline {
        return None;
    }
    let same = report.lines().zip(baseline.lines());
    Some(same.take_while(|(a, b)| a == b).count() + 1)
}

#[cfg(test)]
mod tests {
    use super::first_difference;

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference("a\nb\n", "a\nb\n"), None);
        assert_eq!(first_difference("a\nx\nc\n", "a\nb\nc\n"), Some(2));
        assert_eq!(first_difference("a\n", "a\nb\n"), Some(2));
    }
}
