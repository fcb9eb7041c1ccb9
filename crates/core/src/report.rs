//! Report rendering: markdown tables, CSV export, and a terminal-friendly
//! log-scale plot for sweep curves. The figure binaries in `wmm-bench` use
//! these to print paper-vs-measured artefacts.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use crate::json::ToJson;
use crate::sensitivity::SweepResult;

/// A simple text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: vec![],
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// Render as GitHub-flavoured markdown.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(&widths) {
                let _ = write!(line, " {c:w$} |");
            }
            line
        };
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            let _ = write!(sep, "{:-<1$}|", "", w + 2);
        }
        out.push_str(&sep);
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r));
            out.push('\n');
        }
        out
    }

    /// Render as CSV.
    pub(crate) fn csv(&self) -> String {
        let mut out = String::new();
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Write the CSV form to a file.
    pub fn write_csv(&self, path: impl AsRef<Path>) -> io::Result<()> {
        fs::write(path, self.csv())
    }
}

/// Serialise any [`ToJson`] value as pretty JSON to a file (experiment
/// records).
pub fn write_json<T: ToJson + ?Sized>(path: impl AsRef<Path>, value: &T) -> io::Result<()> {
    let mut s = value.to_json().to_string_pretty();
    s.push('\n');
    fs::write(path, s)
}

/// An ASCII rendering of a sweep curve: relative performance vs log2 cost
/// size — a terminal stand-in for the panels of Figs. 5/6/9.
pub fn ascii_sweep(result: &SweepResult, width: usize) -> String {
    let mut out = String::new();
    let fit_str = result
        .fit
        .as_ref()
        .map_or("(no fit)".to_string(), |f| f.display());
    let _ = writeln!(
        out,
        "{} [{}] {} — {}",
        result.benchmark, result.arch, result.code_path, fit_str
    );
    for p in &result.points {
        let bars = ((p.rel_perf.clamp(0.0, 1.2)) * width as f64).round() as usize;
        let _ = writeln!(
            out,
            "  a={:8.1}ns |{:bar_w$}| p={:.4}",
            p.actual_ns,
            "#".repeat(bars),
            p.rel_perf,
            bar_w = (width as f64 * 1.2) as usize
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SensitivityFit;
    use crate::sensitivity::SweepPoint;

    #[test]
    fn markdown_table_renders() {
        let mut t = Table::new(&["bench", "k"]);
        t.row(vec!["spark".into(), "0.00885".into()]);
        t.row(vec!["xalan".into(), "0.00606".into()]);
        let md = t.markdown();
        assert!(md.contains("| bench |"));
        assert!(md.contains("| spark |"));
        assert!(md.lines().count() == 4);
    }

    #[test]
    fn csv_escapes_commas() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x,y".into(), "plain".into()]);
        let csv = t.csv();
        assert!(csv.contains("\"x,y\",plain"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn ascii_sweep_contains_points() {
        let r = SweepResult {
            benchmark: "spark".into(),
            arch: "arm".into(),
            code_path: "all barriers".into(),
            points: vec![SweepPoint {
                target_ns: 1.0,
                actual_ns: 1.2,
                iters: 1,
                rel_perf: 0.99,
                rel_min: 0.97,
                rel_max: 1.0,
            }],
            fit: Some(SensitivityFit {
                k: 0.0087,
                k_std_err: 0.0087 * 0.06,
                r_squared: 0.99,
            }),
        };
        let s = ascii_sweep(&r, 40);
        assert!(s.contains("spark"));
        assert!(s.contains("p=0.9900"));
        assert!(s.contains("k=0.00870"));
    }
}
