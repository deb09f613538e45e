//! Deterministic paper-artifact tables.
//!
//! A [`Table`] is a schema-versioned grid of typed cells rendered to CSV
//! with *integer-only* formatting: fixed-point values are carried as
//! micro-unit `i128` words and printed with exactly six decimals by
//! integer division, so the byte stream never depends on libc locale,
//! float formatting, or platform rounding. CI regenerates the checked-in
//! `results/TABLE_*.csv` files from fresh benchmark runs and fails on any
//! byte of drift.

use std::fmt::Write as _;

/// Schema tag stamped into every rendered CSV header. Bump when column
/// meaning changes; adding a new table does not require a bump.
pub const TABLE_SCHEMA: &str = "anton-tables/v1";

/// One typed cell. All variants render through integer formatting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cell {
    /// Plain integer.
    Int(i128),
    /// Fixed-point micro-units: rendered as `whole.micro6` with exactly
    /// six decimal digits (e.g. `1500000` → `1.500000`).
    Fixed6(i128),
    /// Hex word (checksums), rendered `0x0123456789abcdef`.
    Hex(u64),
    /// Verbatim text; must not contain CSV structure characters.
    Text(String),
}

impl Cell {
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    fn render(&self, out: &mut String) {
        match self {
            Cell::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Cell::Fixed6(micro) => {
                let sign = if *micro < 0 { "-" } else { "" };
                let mag = micro.unsigned_abs();
                let _ = write!(out, "{sign}{}.{:06}", mag / 1_000_000, mag % 1_000_000);
            }
            Cell::Hex(v) => {
                let _ = write!(out, "0x{v:016x}");
            }
            Cell::Text(s) => {
                assert!(
                    !s.contains([',', '"', '\n', '\r']),
                    "Text cell contains CSV structure characters: {s:?}"
                );
                out.push_str(s);
            }
        }
    }
}

/// Convert a finite f64 into micro-unit words for [`Cell::Fixed6`]. The
/// *caller* is responsible for only passing values that are themselves
/// deterministic (model outputs, exact counters) — never wall-clock
/// measurements.
pub fn micro_from_f64(v: f64) -> i128 {
    assert!(v.is_finite(), "artifact cell must be finite, got {v}");
    (v * 1e6).round() as i128
}

/// A schema-versioned table with a fixed column order.
#[derive(Clone, Debug)]
pub struct Table {
    /// Artifact name, e.g. `TABLE_2` (becomes `results/TABLE_2.csv`).
    pub name: &'static str,
    /// Human title rendered as a header comment.
    pub title: &'static str,
    pub columns: Vec<&'static str>,
    pub rows: Vec<Vec<Cell>>,
}

impl Table {
    pub fn new(name: &'static str, title: &'static str, columns: &[&'static str]) -> Table {
        Table {
            name,
            title,
            columns: columns.to_vec(),
            rows: Vec::new(),
        }
    }

    /// Append a row; arity is checked against the header.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "{}: row arity {} != {} columns",
            self.name,
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Render to CSV bytes: `#`-prefixed schema/title comments, a header
    /// row, then data rows. `\n` line endings, no trailing spaces, no
    /// locale-dependent formatting anywhere.
    pub fn render_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} {}", TABLE_SCHEMA, self.name);
        let _ = writeln!(out, "# {}", self.title);
        out.push_str(&self.columns.join(","));
        out.push('\n');
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                cell.render(&mut out);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed6_renders_exact_six_decimals() {
        let mut s = String::new();
        Cell::Fixed6(1_500_000).render(&mut s);
        assert_eq!(s, "1.500000");
        s.clear();
        Cell::Fixed6(-42).render(&mut s);
        assert_eq!(s, "-0.000042");
        s.clear();
        Cell::Fixed6(0).render(&mut s);
        assert_eq!(s, "0.000000");
    }

    #[test]
    fn micro_conversion_rounds_half_away_from_zero() {
        assert_eq!(micro_from_f64(39.2), 39_200_000);
        assert_eq!(micro_from_f64(-0.0000015), -2);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_cells_are_rejected() {
        micro_from_f64(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_mismatch_is_rejected() {
        let mut t = Table::new("TABLE_X", "x", &["a", "b"]);
        t.push_row(vec![Cell::Int(1)]);
    }

    #[test]
    fn render_is_stable_and_newline_terminated() {
        let mut t = Table::new("TABLE_X", "demo", &["name", "n", "us", "sum"]);
        t.push_row(vec![
            Cell::text("water"),
            Cell::Int(1020),
            Cell::Fixed6(39_200_000),
            Cell::Hex(0xdeadbeef),
        ]);
        let csv = t.render_csv();
        assert_eq!(
            csv,
            "# anton-tables/v1 TABLE_X\n# demo\nname,n,us,sum\nwater,1020,39.200000,0x00000000deadbeef\n"
        );
        assert_eq!(t.render_csv(), csv);
    }

    #[test]
    #[should_panic(expected = "CSV structure")]
    fn text_cells_reject_structure_characters() {
        let mut s = String::new();
        Cell::text("a,b").render(&mut s);
    }
}
