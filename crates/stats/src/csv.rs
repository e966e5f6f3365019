//! Minimal CSV writing (RFC 4180 quoting) for persisting harness results
//! next to the rendered tables — no external dependency needed.

use std::io::{self, Write};

/// Quotes a field when it contains commas, quotes or newlines.
fn quote(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Writes one CSV row.
pub fn write_row<W: Write>(w: &mut W, fields: &[String]) -> io::Result<()> {
    let line: Vec<String> = fields.iter().map(|f| quote(f)).collect();
    writeln!(w, "{}", line.join(","))
}

/// Writes a header + rows table.
pub fn write_table<W: Write>(w: &mut W, header: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
    let h: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    write_row(w, &h)?;
    for row in rows {
        assert_eq!(row.len(), header.len(), "CSV row width mismatch");
        write_row(w, row)?;
    }
    Ok(())
}

/// Parses a simple CSV string back into rows (supports quoted fields; used
/// by tests and by tooling that reloads saved results).
pub fn parse(text: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            match (c, in_quotes) {
                ('"', false) => in_quotes = true,
                ('"', true) => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                (',', false) => {
                    fields.push(std::mem::take(&mut field));
                }
                (c, _) => field.push(c),
            }
        }
        fields.push(field);
        rows.push(fields);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_round_trip() {
        let mut buf = Vec::new();
        write_table(
            &mut buf,
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        let text = String::from_utf8(buf).unwrap();
        let rows = parse(&text);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec!["a", "b"]);
        assert_eq!(rows[2], vec!["3", "4"]);
    }

    #[test]
    fn quoting_round_trip() {
        let tricky =
            vec!["has,comma".to_string(), "has \"quotes\"".to_string(), "plain".to_string()];
        let mut buf = Vec::new();
        write_row(&mut buf, &tricky).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"has,comma\""));
        let rows = parse(&text);
        assert_eq!(rows[0], tricky);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_width_panics() {
        let mut buf = Vec::new();
        write_table(&mut buf, &["a", "b"], &[vec!["only".into()]]).unwrap();
    }
}
