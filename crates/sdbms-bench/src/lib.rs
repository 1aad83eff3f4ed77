//! Shared infrastructure for the experiment harness: deterministic
//! workload builders and plain-text table rendering (every experiment
//! prints the table EXPERIMENTS.md records).

#![forbid(unsafe_code)]

use sdbms_core::{StatDbms, ViewDefinition};
use sdbms_data::census::{microdata_census, CensusConfig};
use sdbms_data::DataSet;

/// Render an aligned text table.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    for (i, h) in headers.iter().enumerate() {
        out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
    }
    out.push('\n');
    for (i, _) in headers.iter().enumerate() {
        out.push_str(&format!("{:-<w$}  ", "", w = widths[i]));
    }
    out.push('\n');
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", cell, w = widths[i]));
        }
        out.push('\n');
    }
    out
}

/// Deterministic clean census microdata (no planted errors).
#[must_use]
pub fn clean_micro(rows: usize, seed: u64) -> DataSet {
    microdata_census(&CensusConfig {
        rows,
        seed,
        invalid_fraction: 0.0,
        outlier_fraction: 0.0,
        ..Default::default()
    })
    .expect("census generation is infallible for valid configs")
}

/// A DBMS with `rows` of microdata loaded and materialized as view
/// `"v"` (transposed layout, incremental policy).
#[must_use]
pub fn dbms_with_view(rows: usize, pool_pages: usize) -> StatDbms {
    let mut dbms = StatDbms::new(pool_pages);
    dbms.load_raw(&clean_micro(rows, 1982)).expect("load raw");
    dbms.materialize(ViewDefinition::scan("v", "census_microdata"), "bench")
        .expect("materialize");
    dbms
}

/// Format a microsecond count human-readably.
#[must_use]
pub fn us(micros: u128) -> String {
    if micros >= 100_000 {
        format!("{:.1} ms", micros as f64 / 1000.0)
    } else {
        format!("{micros} µs")
    }
}

/// Format a ratio as `N.N×`.
#[must_use]
pub fn ratio(num: f64, den: f64) -> String {
    if den == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.1}×", num / den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["alpha".into(), "1".into()],
                vec!["b".into(), "12345".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].starts_with("-----"));
    }

    #[test]
    fn workload_builders() {
        let ds = clean_micro(100, 7);
        assert_eq!(ds.len(), 100);
        let dbms = dbms_with_view(50, 128);
        assert_eq!(dbms.view_names(), vec!["v"]);
    }

    #[test]
    fn formatting() {
        assert_eq!(us(500), "500 µs");
        assert_eq!(us(250_000), "250.0 ms");
        assert_eq!(ratio(10.0, 2.0), "5.0×");
        assert_eq!(ratio(1.0, 0.0), "∞");
    }
}
