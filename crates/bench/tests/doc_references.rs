//! Doc rot: what the documents tell a reader to run or read must exist.
//! README.md, DESIGN.md, EXPERIMENTS.md and the verify skill are read for
//! `paper -- <name>`, `--bin <b>` and `--example <e>`; those four and every
//! text file under `crates/`, `tests/` and `.github/` for `DESIGN.md §N`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
];
const SOURCE_DIRS: [&str; 3] = ["crates", "tests", ".github"];

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `paper` harness's subcommands: the `SECTIONS` names of its
/// `main.rs`, and `tables`.
fn paper_names(root: &Path) -> BTreeSet<String> {
    let main = read(&root.join("crates/bench/src/bin/paper/main.rs"));
    let sections = main
        .split("const SECTIONS")
        .nth(1)
        .and_then(|s| s.split("];").next())
        .expect("paper/main.rs declares SECTIONS");
    let mut names: BTreeSet<String> = sections
        .split("(\"")
        .skip(1)
        .filter_map(|s| s.split('"').next())
        .map(String::from)
        .collect();
    names.insert("tables".into());
    names
}

/// One package's name and its bin and example targets, as Cargo finds
/// them: declared in the manifest or discovered under `src/` and
/// `examples/`.
struct Package {
    name: String,
    bins: BTreeSet<String>,
    examples: BTreeSet<String>,
}

fn stems(dir: &Path) -> impl Iterator<Item = String> {
    fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|path| {
            path.extension().is_some_and(|x| x == "rs") || path.join("main.rs").is_file()
        })
        .filter_map(|path| Some(path.file_stem()?.to_str()?.to_string()))
}

fn package(dir: &Path) -> Option<Package> {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).ok()?;
    let mut pkg = Package {
        name: String::new(),
        bins: stems(&dir.join("src/bin")).collect(),
        examples: stems(&dir.join("examples")).collect(),
    };
    let mut section = "";
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        } else if let Some(value) = line.strip_prefix("name = \"") {
            let value = value.trim_end_matches('"').to_string();
            match section {
                "[package]" => pkg.name = value,
                "[[bin]]" => {
                    pkg.bins.insert(value);
                }
                "[[example]]" => {
                    pkg.examples.insert(value);
                }
                _ => {}
            }
        }
    }
    if dir.join("src/main.rs").is_file() {
        pkg.bins.insert(pkg.name.clone());
    }
    Some(pkg)
}

fn packages(root: &Path) -> Vec<Package> {
    let crates = fs::read_dir(root.join("crates")).expect("crates/ is listable");
    crates
        .flatten()
        .map(|e| e.path())
        .chain([root.join("benchmark")])
        .filter_map(|dir| package(&dir))
        .collect()
}

/// A command-line word with the prose around it (backticks, brackets,
/// punctuation) cut off.
fn word(token: &str) -> &str {
    let keep = |c: char| c.is_ascii_alphanumeric() || "_-<>".contains(c);
    token.trim_matches(|c: char| !keep(c))
}

/// `paper -- <name>`, `--bin <b>` and `--example <e>` on every logical
/// line of a document (backslash continuations joined).
fn command_findings(
    doc: &str,
    text: &str,
    paper: &BTreeSet<String>,
    pkgs: &[Package],
) -> Vec<String> {
    let mut findings = Vec::new();
    let joined = text.replace("\\\n", " ");
    for (n, line) in joined.lines().enumerate() {
        let words: Vec<&str> = line.split_whitespace().map(word).collect();
        let package = words
            .windows(2)
            .find(|w| w[0] == "-p")
            .map(|w| w[1].to_string());
        let scope: Vec<&Package> = pkgs
            .iter()
            .filter(|p| package.as_ref().is_none_or(|name| p.name == *name))
            .collect();
        if scope.is_empty() {
            findings.push(format!("{doc}:{}: no package `{package:?}`", n + 1));
        }
        for (i, w) in words.windows(2).enumerate() {
            let (flag, arg) = (w[0], w[1]);
            let missing = !arg.starts_with('<')
                && match flag {
                    "--bin" => !scope.iter().any(|p| p.bins.contains(arg)),
                    "--example" => !scope.iter().any(|p| p.examples.contains(arg)),
                    "--" => i > 0 && words[i - 1] == "paper" && !paper.contains(arg),
                    _ => false,
                };
            if missing {
                let shown = words[i.saturating_sub(1)..i + 2].join(" ");
                findings.push(format!("{doc}:{}: `{shown}` names nothing", n + 1));
            }
        }
    }
    findings
}

/// The section numbers of every `DESIGN.md §N` (and `§N–§M`) in `text`,
/// with comment markers and line breaks allowed between the two.
fn design_refs(text: &str) -> Vec<(usize, u32)> {
    let mut refs = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let line = text[..at].matches('\n').count() + 1;
        let mut rest = text[at + "DESIGN.md".len()..]
            .trim_start_matches(|c: char| c.is_whitespace() || "/!#*".contains(c));
        while let Some(after) = rest.strip_prefix('§') {
            let digits: String = after.chars().take_while(char::is_ascii_digit).collect();
            let Ok(section) = digits.parse() else { break };
            refs.push((line, section));
            rest = after[digits.len()..].trim_start_matches(['–', '-']);
        }
    }
    refs
}

/// The `## N.` headings of DESIGN.md.
fn design_sections(design: &str) -> Vec<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## ")?.split_once('.')?.0.parse().ok())
        .collect()
}

fn text_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                text_files(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

#[test]
fn docs_name_only_what_exists() {
    let root = root();
    let paper = paper_names(&root);
    let pkgs = packages(&root);
    let design = read(&root.join("DESIGN.md"));
    let sections = design_sections(&design);
    assert!(
        paper.contains("fig6") && sections.contains(&1),
        "parsers found nothing"
    );

    let mut findings = Vec::new();
    let expected: Vec<u32> = (1..=sections.len() as u32).collect();
    if sections != expected {
        findings.push(format!("DESIGN.md sections are numbered {sections:?}"));
    }
    let mut sources: Vec<PathBuf> = DOCS.iter().map(|d| root.join(d)).collect();
    for dir in SOURCE_DIRS {
        text_files(&root.join(dir), &mut sources);
    }
    for path in &sources {
        // Binary fixtures are not prose.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        let name = path
            .strip_prefix(&root)
            .unwrap_or(path)
            .display()
            .to_string();
        if DOCS.contains(&name.as_str()) {
            findings.extend(command_findings(&name, &text, &paper, &pkgs));
        }
        for (line, section) in design_refs(&text) {
            if !sections.contains(&section) {
                findings.push(format!("{name}:{line}: DESIGN.md §{section} is no section"));
            }
        }
    }
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}
