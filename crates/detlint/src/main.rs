//! CLI: `detlint check [--root <dir>] [--json <file>] [--github]`
//!
//! `check` renders the report and compares it, in memory, with the tracked
//! `<root>/results/detlint_baseline.json`; `--json <file>` also writes it
//! (the CI artifact — or, pointed at the baseline, its regeneration).
//!
//! Exit codes: 0 clean and equal to the baseline, 1 violations found or the
//! report differs from the baseline, 2 usage/IO error.
//! `--github` additionally emits each violation as a GitHub Actions
//! `::error file=...,line=...` workflow command so findings annotate the
//! PR diff inline instead of only landing in the job log.

use std::path::PathBuf;
use std::process::ExitCode;

/// The tracked report, relative to the workspace root.
const BASELINE: &str = "results/detlint_baseline.json";

fn default_root() -> PathBuf {
    // When run via cargo, locate the workspace checkout relative to this
    // crate; otherwise fall back to the current directory.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(dir) => PathBuf::from(dir)
            .join("../..")
            .canonicalize()
            .unwrap_or_else(|_| ".".into()),
        Err(_) => ".".into(),
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root = default_root();
    let mut json: Option<PathBuf> = None;
    let mut github = false;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `check` is the default subcommand; it may also be omitted.
            "check" => {}
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--json" => match args.next() {
                Some(v) => json = Some(PathBuf::from(v)),
                None => return usage("--json needs a value"),
            },
            "--github" => github = true,
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let ws = match detlint::lint_workspace(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("detlint: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for v in &ws.violations {
        println!(
            "error[{}]: {}:{}:{}: {}",
            v.rule, v.file, v.line, v.col, v.message
        );
        if github {
            // GitHub workflow commands strip at newlines; messages are
            // single-line by construction, but escape the command's
            // reserved characters anyway.
            let esc = |s: &str| {
                s.replace('%', "%25")
                    .replace('\r', "%0D")
                    .replace('\n', "%0A")
            };
            println!(
                "::error file={},line={},col={},title=detlint {}::{}",
                esc(&v.file),
                v.line,
                v.col,
                v.rule,
                esc(&v.message)
            );
        }
    }
    println!(
        "detlint: {} files scanned, {} violation(s), {} allow(s), {} boundary item(s)",
        ws.files.len(),
        ws.violations.len(),
        ws.allows.len(),
        ws.boundaries.len()
    );
    let report = detlint::report::to_json(&ws);
    if let Some(path) = json {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("detlint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("detlint: report written to {}", path.display());
    }

    let baseline_path = root.join(BASELINE);
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("detlint: cannot read {}: {e}", baseline_path.display());
            return ExitCode::from(2);
        }
    };
    let drift = detlint::report::first_difference(&report, &baseline);
    if let Some(line) = drift {
        let at = |text: &str| text.lines().nth(line - 1).unwrap_or("").to_string();
        println!(
            "detlint: report differs from {BASELINE} at line {line}:\n  report:   {}\n  baseline: {}\n\
             detlint: if the change is intended, regenerate with `detlint check --json {BASELINE}`",
            at(&report),
            at(&baseline)
        );
    }

    if ws.violations.is_empty() && drift.is_none() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg}");
    print_usage();
    ExitCode::from(2)
}

fn print_usage() {
    eprintln!("usage: detlint [check] [--root <dir>] [--json <file>] [--github]");
}
