//! Percentage tables for the paper report, behind a finiteness guard: a
//! NaN or infinite percentage is never printed, only reported as a
//! [`NonFinitePercent`] that names its table, row and column.

use std::fmt;

/// Structured error raised when a non-finite percentage (NaN/inf — e.g.
/// an unguarded ratio against a degenerate baseline) reaches the report
/// layer. Formatting such a value would silently print `NaN` into a
/// figure table; validation names the exact cell instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NonFinitePercent {
    /// Title of the table the value belongs to.
    pub table: String,
    /// Row label (benchmark, policy or claim) of the offending cell.
    pub label: String,
    /// Column header of the offending cell.
    pub column: String,
    /// The offending value.
    pub value: f64,
}

impl fmt::Display for NonFinitePercent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "non-finite percentage {} in {:?}, row {:?}, column {:?}",
            self.value, self.table, self.label, self.column
        )
    }
}

impl std::error::Error for NonFinitePercent {}

/// Returns `value` if it is finite, otherwise the error locating it.
pub fn finite(table: &str, label: &str, column: &str, value: f64) -> Result<f64, NonFinitePercent> {
    if value.is_finite() {
        Ok(value)
    } else {
        Err(NonFinitePercent {
            table: table.into(),
            label: label.into(),
            column: column.into(),
            value,
        })
    }
}

/// One row of a percentage table: a label and one value per column, in
/// percent.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentRow {
    /// Benchmark (or "average") label.
    pub label: String,
    /// One percentage per column.
    pub values: Vec<f64>,
}

impl PercentRow {
    /// A row labelled `label`.
    pub fn new(label: &str, values: Vec<f64>) -> Self {
        let label = label.to_string();
        PercentRow { label, values }
    }
}

/// Column-wise mean of a set of rows (the paper's "average" bar).
pub fn average(rows: &[PercentRow]) -> PercentRow {
    let columns = rows.first().map_or(0, |r| r.values.len());
    let n = rows.len().max(1) as f64;
    PercentRow {
        label: "average".into(),
        values: (0..columns)
            .map(|c| rows.iter().map(|r| r.values[c]).sum::<f64>() / n)
            .collect(),
    }
}

/// Renders rows as an aligned text table with two decimals per
/// percentage, refusing to render NaN/inf. `columns[0]` heads the label
/// column, the rest head one value column each.
pub fn format_percent_table(
    title: &str,
    columns: &[&str],
    rows: &[PercentRow],
) -> Result<String, NonFinitePercent> {
    let labels = rows.iter().map(|r| r.label.len());
    let first = labels.chain([columns[0].len()]).max().unwrap_or(0);
    let widths: Vec<usize> = columns[1..].iter().map(|c| c.len().max(8) + 2).collect();
    let mut out = format!("{title}\n{:<first$}", columns[0]);
    for (c, w) in columns[1..].iter().zip(&widths) {
        out.push_str(&format!("{c:>w$}"));
    }
    for row in rows {
        out.push_str(&format!("\n{:<first$}", row.label));
        for ((c, w), v) in columns[1..].iter().zip(&widths).zip(&row.values) {
            let v = finite(title, &row.label, c, *v)?;
            out.push_str(&format!("{:>w$}", format!("{v:.2}%")));
        }
    }
    out.push('\n');
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, values: &[f64]) -> PercentRow {
        PercentRow::new(label, values.to_vec())
    }

    #[test]
    fn average_is_columnwise_mean() {
        let avg = average(&[
            row("a", &[1.0, 2.0, 3.0, 4.0]),
            row("b", &[3.0, 2.0, 1.0, 0.0]),
        ]);
        assert_eq!(avg.values, [2.0, 2.0, 2.0, 2.0]);
        assert_eq!(avg.label, "average");
        assert!(average(&[]).values.is_empty());
    }

    #[test]
    fn table_contains_all_rows_and_headers() {
        let rows = [row("gcc", &[3.5])];
        let t = format_percent_table("Figure 5", &["benchmark", "dynamic-5%"], &rows);
        assert_eq!(
            t.expect("finite"),
            "Figure 5\nbenchmark  dynamic-5%\ngcc             3.50%\n"
        );
    }

    #[test]
    fn non_finite_cells_are_surfaced_as_structured_errors() {
        let rows = [row("gcc", &[1.0, 2.0]), row("art", &[1.0, f64::NAN])];
        let err = format_percent_table("Figure 7", &["", "baseline MCD", "dynamic-1%"], &rows)
            .unwrap_err();
        assert_eq!(
            (err.table.as_str(), err.label.as_str()),
            ("Figure 7", "art")
        );
        assert_eq!(err.column, "dynamic-1%");
        assert!(err.value.is_nan());
        assert!(err.to_string().contains("dynamic-1%"));
        assert!(finite("t", "r", "c", f64::INFINITY).is_err());
    }
}
