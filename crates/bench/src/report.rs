//! Text-table and CSV rendering for the `repro` binary, and the one
//! writer of its `BENCH_*.json` artifacts.

use serde::Serialize;

/// Write `report` as pretty-printed JSON (plus a trailing newline) to
/// `dir/name`: the format of every committed `BENCH_*.json` artifact.
pub fn write_report<T: Serialize>(
    dir: &std::path::Path,
    name: &str,
    report: &T,
) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(report).expect("report serializes");
    std::fs::write(dir.join(name), json + "\n")
}

/// Render rows as an aligned text table.
pub fn text_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, cell) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:<w$}"))
            .collect::<Vec<_>>()
            .join("  ")
            .trim_end()
            .to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    out.push_str(
        &widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  "),
    );
    out.push('\n');
    for r in rows {
        out.push_str(&fmt_row(r, &widths));
        out.push('\n');
    }
    out
}

/// Render rows as CSV (naive quoting: cells containing commas are
/// wrapped, embedded quotes doubled).
pub fn csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    fn cell(s: &str) -> String {
        if s.contains(',') || s.contains('"') || s.contains('\n') {
            format!("\"{}\"", s.replace('"', "\"\""))
        } else {
            s.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in rows {
        out.push_str(&r.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Format a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Format a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = text_table(
            &["mode", "value"],
            &[
                vec!["mps".into(), "1.5".into()],
                vec!["time-sharing".into(), "42".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("mode"));
        assert!(lines[2].starts_with("mps"));
        assert!(lines[3].starts_with("time-sharing"));
    }

    #[test]
    fn csv_quoting() {
        let c = csv(&["a", "b"], &[vec!["x,y".into(), "q\"q".into()]]);
        assert!(c.contains("\"x,y\""));
        assert!(c.contains("\"q\"\"q\""));
    }

    #[test]
    fn float_formats() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(0.4567), "45.7%");
    }
}
