//! Running clippy and reading its diagnostics. The tests check the
//! clippy-owned rules (D1's arithmetic, D2–D5, D7's types, D8, META) with
//! the same `clippy.toml` and lint levels the real crates use, on the
//! fixtures and on the real workspace.

use std::io;
use std::path::Path;
use std::process::Command;

/// One compiler or clippy diagnostic, at its primary span.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path relative to the workspace clippy ran in.
    pub file: String,
    pub line: u32,
    /// Lint or error code: `clippy::disallowed_types`, `E0308`, ...
    pub code: String,
    pub message: String,
}

/// `cargo clippy --workspace --all-targets` over the workspace at `root`,
/// with build output under `target_dir` and `clippy.toml` read from
/// `conf_dir`; `-D warnings` as CI runs it when `deny_warnings` (a crate
/// that fails stops its dependents being checked, so a whole-tree audit
/// runs without it). Returns every diagnostic that carries a code, sorted
/// and deduplicated (a lib and its test target report shared lines twice).
/// A run that fails without one is an error.
pub fn run(
    root: &Path,
    target_dir: &Path,
    conf_dir: &Path,
    deny_warnings: bool,
) -> io::Result<Vec<Diagnostic>> {
    let deny: &[&str] = if deny_warnings {
        &["-D", "warnings"]
    } else {
        &[]
    };
    let out = Command::new(env!("CARGO"))
        .args([
            "clippy",
            "--offline",
            "--quiet",
            "--workspace",
            "--all-targets",
        ])
        .args(["--keep-going", "--message-format=json", "--"])
        .args(deny)
        .current_dir(root)
        .env("CARGO_TARGET_DIR", target_dir)
        .env("CLIPPY_CONF_DIR", conf_dir)
        .output()?;
    let mut diags: Vec<Diagnostic> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(diagnostic)
        .collect();
    diags.sort();
    diags.dedup();
    if diags.is_empty() && !out.status.success() {
        return Err(io::Error::other(format!(
            "cargo clippy failed in {}:\n{}",
            root.display(),
            String::from_utf8_lossy(&out.stderr)
        )));
    }
    Ok(diags)
}

/// One line of cargo's JSON message stream → a coded diagnostic, if it is one.
fn diagnostic(line: &str) -> Option<Diagnostic> {
    let msg = Json::parse(line)?;
    if msg.get("reason")?.as_str()? != "compiler-message" {
        return None;
    }
    let m = msg.get("message")?;
    let code = m.get("code")?.get("code")?.as_str()?;
    let Json::Arr(spans) = m.get("spans")? else {
        return None;
    };
    let span = spans
        .iter()
        .find(|s| s.get("is_primary") == Some(&Json::Bool(true)))?;
    Some(Diagnostic {
        file: span.get("file_name")?.as_str()?.to_string(),
        line: span.get("line_start")?.as_num()?.parse().ok()?,
        code: code.to_string(),
        message: m.get("message")?.as_str()?.to_string(),
    })
}

/// Just enough JSON for cargo's message stream. Numbers keep their text.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<&str> {
        match self {
            Json::Num(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.i) == Some(&b);
        self.i += usize::from(hit);
        hit
    }

    fn word(&mut self, w: &str, v: Json) -> Option<Json> {
        self.s[self.i..].starts_with(w.as_bytes()).then(|| {
            self.i += w.len();
            v
        })
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.eat(b'}') {
                    return Some(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    if !self.eat(b':') {
                        return None;
                    }
                    fields.push((key, self.value()?));
                    if !self.eat(b',') {
                        return self.eat(b'}').then_some(Json::Obj(fields));
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.eat(b']') {
                    return Some(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    if !self.eat(b',') {
                        return self.eat(b']').then_some(Json::Arr(items));
                    }
                }
            }
            b'"' => self.string().map(Json::Str),
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                let num = std::str::from_utf8(&self.s[start..self.i]).ok()?;
                (!num.is_empty()).then(|| Json::Num(num.to_string()))
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        if self.s.get(self.i) != Some(&b'"') {
            return None;
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => self.unicode_escape()?,
                        other => char::from(other),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                _ => out.push(c),
            }
        }
    }

    /// The `XXXX` of a `\uXXXX` escape, joining a surrogate pair.
    fn unicode_escape(&mut self) -> Option<char> {
        let hex = |p: &mut Self| {
            let h = std::str::from_utf8(p.s.get(p.i..p.i + 4)?).ok()?;
            p.i += 4;
            u32::from_str_radix(h, 16).ok()
        };
        let hi = hex(self)?;
        if !(0xd800..0xdc00).contains(&hi) {
            return char::from_u32(hi);
        }
        if !self.s[self.i..].starts_with(b"\\u") {
            return None;
        }
        self.i += 2;
        let lo = hex(self)?;
        char::from_u32(0x10000 + ((hi - 0xd800) << 10) + (lo.checked_sub(0xdc00)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_a_cargo_compiler_message() {
        let line = r#"{"reason":"compiler-message","package_id":"x","message":{"message":"use of a disallowed type `std::time::Instant`","code":{"code":"clippy::disallowed_types","explanation":null},"level":"error","spans":[{"file_name":"c1/src/fixture.rs","line_start":7,"is_primary":false},{"file_name":"c1/src/fixture.rs","line_start":4,"is_primary":true,"label":"a \"quoted\" \u00e9 \ud83d\ude00"}],"children":[],"rendered":"e\n"}}"#;
        let d = diagnostic(line).expect("a diagnostic");
        assert_eq!(d.code, "clippy::disallowed_types");
        assert_eq!((d.file.as_str(), d.line), ("c1/src/fixture.rs", 4));
        assert_eq!(
            diagnostic(r#"{"reason":"build-finished","success":false}"#),
            None
        );
        assert_eq!(Json::parse(r#"{"a": [1, -2.5e3, true, null]} x"#), None);
    }
}
