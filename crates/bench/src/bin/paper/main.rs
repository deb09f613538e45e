//! The paper's tables and figures, one subcommand each (DESIGN.md §5 has
//! the index):
//!
//! `cargo run --release -p anton-bench --bin paper -- <name> [--full]`
//!
//! `<name>` is one of `table1 table2 table3 fig3 fig4 fig5_table4 fig6 fig7
//! section5_1 bpti ablations`, each printing a paper-vs-measured
//! comparison, or `tables`, which builds and rewrites the six
//! `results/TABLE_*.csv` (see `anton_bench::artifacts`) plus the gitignored
//! `results/TRACE_chrome.json` of the traced 8-node run, and prints each
//! traced run's phase summary with its measured wall-clock.

mod ablations;
mod bpti;
mod fig3;
mod fig4;
mod fig5_table4;
mod fig6;
mod fig7;
mod section5_1;
mod table1;
mod table2;
mod table3;

use anton_bench::artifacts::build_tables;
use anton_bench::write_artifact;
use anton_trace::summary_table;

const SECTIONS: [(&str, fn()); 11] = [
    ("table1", table1::run),
    ("table2", table2::run),
    ("table3", table3::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5_table4", fig5_table4::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("section5_1", section5_1::run),
    ("bpti", bpti::run),
    ("ablations", ablations::run),
];

fn tables() -> Result<(), String> {
    let built = build_tables()?;
    for row in &built.traced {
        println!(
            "--- traced: {} nodes, {} threads ---",
            row.nodes, row.threads
        );
        print!("{}", summary_table(&row.phases));
    }
    for t in &built.tables {
        write_artifact(&format!("{}.csv", t.name), &t.render_csv())?;
    }
    write_artifact("TRACE_chrome.json", &built.chrome_trace)
}

fn main() {
    let name = std::env::args().skip(1).find(|a| !a.starts_with("--"));
    let name = name.as_deref().unwrap_or_default();
    if name == "tables" {
        if let Err(e) = tables() {
            eprintln!("paper tables: {e}");
            std::process::exit(1);
        }
        return;
    }
    match SECTIONS.iter().find(|(section, _)| *section == name) {
        Some((_, run)) => run(),
        None => {
            let names: Vec<&str> = SECTIONS.iter().map(|(section, _)| *section).collect();
            eprintln!("usage: paper <{}|tables> [--full]", names.join("|"));
            std::process::exit(2);
        }
    }
}
