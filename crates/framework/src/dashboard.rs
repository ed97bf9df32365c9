//! The Dashboard's text renderers: series sparklines, per-flow rows and
//! aligned tables, as the scenario scorecards and the examples print
//! them.

/// Renders a numeric series as a Unicode sparkline (`▁▂▃▄▅▆▇█`).
/// Empty input renders as an empty string.
pub fn sparkline(values: &[f64]) -> String {
    const TICKS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    if values.is_empty() {
        return String::new();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in values {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    let range = (hi - lo).max(1e-12);
    values
        .iter()
        .map(|v| {
            let idx = (((v - lo) / range) * 7.0).round() as usize;
            TICKS[idx.min(7)]
        })
        .collect()
}

/// One dashboard row for a flow: label, current rate, history sparkline.
pub fn flow_row(label: &str, rate_mbps: f64, history: &[f64]) -> String {
    format!("{label:<10} {rate_mbps:6.2} Mbps {}", sparkline(history))
}

/// Renders an aligned ASCII table: header row, separator, one row per
/// entry. Columns auto-size to their widest cell; the first column is
/// left-aligned (labels), the rest right-aligned (numbers). Rows
/// shorter than the header are padded with empty cells.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    if cols == 0 {
        return format!("=== {title} ===\n");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (c, cell) in row.iter().take(cols).enumerate() {
            widths[c] = widths[c].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    out.push_str(&format!("=== {title} ===\n"));
    let empty = String::new();
    let fmt_row = |cells: &dyn Fn(usize) -> String| -> String {
        let mut line = String::new();
        for (c, width) in widths.iter().enumerate() {
            if c > 0 {
                line.push_str("  ");
            }
            let cell = cells(c);
            let pad = width.saturating_sub(cell.chars().count());
            if c == 0 {
                line.push_str(&cell);
                line.push_str(&" ".repeat(pad));
            } else {
                line.push_str(&" ".repeat(pad));
                line.push_str(&cell);
            }
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(&|c| headers[c].to_string()));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(&|c| row.get(c).unwrap_or(&empty).clone()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shape() {
        let s = sparkline(&[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.chars().count(), 4);
        let first = s.chars().next().unwrap();
        let last = s.chars().last().unwrap();
        assert!(first < last, "rising series rises: {s}");
    }

    #[test]
    fn sparkline_constant_and_empty() {
        assert_eq!(sparkline(&[]), "");
        let flat = sparkline(&[5.0, 5.0, 5.0]);
        let chars: Vec<char> = flat.chars().collect();
        assert!(chars.iter().all(|c| *c == chars[0]));
    }

    #[test]
    fn empty_table_renders_title_only() {
        assert_eq!(render_table("x", &[], &[vec!["a".into()]]), "=== x ===\n");
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            "scorecard",
            &["policy", "goodput", "p99"],
            &[
                vec!["hecate".into(), "28.4".into(), "3.1".into()],
                vec!["static-shortest".into(), "9.0".into(), "0.0".into()],
            ],
        );
        assert!(t.contains("=== scorecard ==="));
        let lines: Vec<&str> = t.lines().collect();
        // header + separator + 2 rows
        assert_eq!(lines.len(), 5);
        // all data lines share the same column positions: "goodput" and
        // its values end at the same character.
        let end_of = |line: &str, needle: &str| line.find(needle).map(|i| i + needle.len());
        assert_eq!(end_of(lines[1], "goodput"), end_of(lines[3], "28.4"));
        assert_eq!(end_of(lines[1], "goodput"), end_of(lines[4], "9.0"));
        // long labels widen the first column
        assert!(lines[4].starts_with("static-shortest"));
    }
}
