//! Pass/fail report shared by the crash drills: named legs printed as they
//! are recorded and rendered to one JSON document for upload. Also the
//! binaries' scratch directories ([`fresh_dir`]).

use std::fmt::Write as _;
use std::path::PathBuf;

/// One drill leg's outcome.
struct Leg {
    name: String,
    detail: String,
    passed: bool,
}

pub struct Report {
    schema: &'static str,
    legs: Vec<Leg>,
}

impl Report {
    pub fn new(schema: &'static str) -> Report {
        Report {
            schema,
            legs: Vec::new(),
        }
    }

    pub fn record(&mut self, name: &str, passed: bool, detail: String) {
        println!(
            "  [{}] {name}: {detail}",
            if passed { "ok" } else { "FAIL" }
        );
        self.legs.push(Leg {
            name: name.to_string(),
            detail,
            passed,
        });
    }

    pub fn passed(&self) -> bool {
        self.legs.iter().all(|l| l.passed)
    }

    /// The report as JSON; `counters` are emitted between the schema and
    /// the legs. Details carry `io::Error` texts and paths, so every string
    /// is escaped.
    pub fn render(&self, counters: &[(&str, u64)]) -> String {
        let mut s = String::from("{\n  \"schema\": ");
        json_string(self.schema, &mut s);
        s.push_str(",\n");
        for (key, value) in counters {
            s.push_str("  ");
            json_string(key, &mut s);
            let _ = writeln!(s, ": {value},");
        }
        s.push_str("  \"legs\": [\n");
        for (i, l) in self.legs.iter().enumerate() {
            s.push_str("    {\"name\": ");
            json_string(&l.name, &mut s);
            let _ = write!(s, ", \"passed\": {}, \"detail\": ", l.passed);
            json_string(&l.detail, &mut s);
            s.push_str(if i + 1 < self.legs.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        let _ = write!(s, "  ],\n  \"passed\": {}\n}}\n", self.passed());
        s
    }
}

/// Append `text` as a JSON string literal: `"`, `\` and control characters
/// are escaped, everything else is verbatim.
fn json_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The per-process scratch root of one binary, `<temp>/anton-<bin>-<pid>`:
/// outside the checkout whatever the invocation directory, and private to
/// this run, so concurrent runs of one binary cannot empty each other's
/// directories. The binary removes it once it has succeeded.
pub fn scratch_root(bin: &str) -> PathBuf {
    std::env::temp_dir().join(format!("anton-{bin}-{}", std::process::id()))
}

/// An existing, emptied scratch directory `<scratch_root(bin)>/<name>`.
pub fn fresh_dir(bin: &str, name: &str) -> std::io::Result<PathBuf> {
    let dir = scratch_root(bin).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn details_with_quotes_backslashes_and_control_characters_stay_valid_json() {
        let mut report = Report::new("drill/v1");
        report.record(
            "leg",
            false,
            "open \"C:\\tmp\\x\":\nno\tsuch\u{1}file".into(),
        );
        assert_eq!(
            report.render(&[("injections", 3)]),
            "{\n  \"schema\": \"drill/v1\",\n  \"injections\": 3,\n  \"legs\": [\n    \
             {\"name\": \"leg\", \"passed\": false, \"detail\": \
             \"open \\\"C:\\\\tmp\\\\x\\\":\\nno\\tsuch\\u0001file\"}\n  ],\n  \
             \"passed\": false\n}\n"
        );
    }

    #[test]
    fn fresh_dir_is_an_emptied_private_directory_under_the_temp_dir() {
        let a = fresh_dir("report-test", "a").unwrap();
        assert!(a.starts_with(std::env::temp_dir()));
        assert!(a.starts_with(scratch_root("report-test")));
        std::fs::write(a.join("stale"), b"x").unwrap();

        let again = fresh_dir("report-test", "a").unwrap();
        assert_eq!(again, a);
        assert_eq!(std::fs::read_dir(&a).unwrap().count(), 0);

        let b = fresh_dir("report-test", "b").unwrap();
        assert_ne!(a, b);
        std::fs::write(b.join("kept"), b"x").unwrap();
        fresh_dir("report-test", "a").unwrap();
        assert!(
            b.join("kept").exists(),
            "names under one bin must not alias"
        );
        std::fs::remove_dir_all(scratch_root("report-test")).unwrap();
    }

    #[test]
    fn legs_are_comma_separated_and_the_verdict_is_their_conjunction() {
        let mut report = Report::new("drill/v1");
        assert!(report.passed());
        report.record("a", true, "fine".into());
        report.record("b", true, "fine".into());
        assert!(report.passed());
        let json = report.render(&[]);
        assert!(json.contains("\"detail\": \"fine\"},\n    {\"name\": \"b\""));
        assert!(json.ends_with("  ],\n  \"passed\": true\n}\n"));
    }
}
