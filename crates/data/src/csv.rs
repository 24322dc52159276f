//! Dependency-free CSV reading and writing (RFC 4180 with the usual
//! extensions: configurable delimiter, `\r\n`/`\n` line endings, quoted
//! fields with doubled-quote escapes).
//!
//! VEXUS receives "input user data either as a dataset (in the form of a CSV
//! file) or as a data stream" — this module is the CSV half of that intake.

use crate::error::DataError;

/// CSV dialect options.
#[derive(Debug, Clone, Copy)]
pub struct CsvOptions {
    /// Field delimiter (default `,`; BookCrossing dumps use `;`).
    pub delimiter: u8,
    /// Quote character (default `"`).
    pub quote: u8,
    /// Whether the first record is a header row.
    pub has_header: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            delimiter: b',',
            quote: b'"',
            has_header: true,
        }
    }
}

/// A parsed CSV document: optional header plus data records.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CsvTable {
    /// Header fields (empty if `has_header` was false).
    pub header: Vec<String>,
    /// Data records.
    pub records: Vec<Vec<String>>,
}

impl CsvTable {
    /// Index of a named column.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.header.iter().position(|h| h == name)
    }
}

/// Streaming CSV parser over a byte slice.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    opts: CsvOptions,
}

impl<'a> Parser<'a> {
    fn new(bytes: &'a [u8], opts: CsvOptions) -> Self {
        Self {
            bytes,
            pos: 0,
            line: 1,
            opts,
        }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Parse one record. Returns `None` at end of input.
    fn record(&mut self) -> Result<Option<Vec<String>>, DataError> {
        if self.at_end() {
            return Ok(None);
        }
        let mut fields = Vec::new();
        loop {
            let field = self.field()?;
            fields.push(field);
            match self.bytes.get(self.pos) {
                Some(&b) if b == self.opts.delimiter => {
                    self.pos += 1;
                }
                Some(b'\r') => {
                    self.pos += 1;
                    if self.bytes.get(self.pos) == Some(&b'\n') {
                        self.pos += 1;
                    }
                    self.line += 1;
                    break;
                }
                Some(b'\n') => {
                    self.pos += 1;
                    self.line += 1;
                    break;
                }
                None => break,
                Some(&other) => {
                    return Err(DataError::Csv {
                        line: self.line,
                        message: format!("unexpected byte {:?} after quoted field", other as char),
                    });
                }
            }
        }
        Ok(Some(fields))
    }

    fn field(&mut self) -> Result<String, DataError> {
        if self.bytes.get(self.pos) == Some(&self.opts.quote) {
            self.quoted_field()
        } else {
            Ok(self.bare_field())
        }
    }

    fn bare_field(&mut self) -> String {
        let start = self.pos;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == self.opts.delimiter || b == b'\n' || b == b'\r' {
                break;
            }
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    fn quoted_field(&mut self) -> Result<String, DataError> {
        let open_line = self.line;
        self.pos += 1; // consume opening quote
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.pos) {
                None => {
                    return Err(DataError::Csv {
                        line: open_line,
                        message: "unterminated quoted field".into(),
                    })
                }
                Some(&b) if b == self.opts.quote => {
                    if self.bytes.get(self.pos + 1) == Some(&self.opts.quote) {
                        out.push(self.opts.quote);
                        self.pos += 2;
                    } else {
                        self.pos += 1; // closing quote
                        break;
                    }
                }
                Some(&b'\n') => {
                    out.push(b'\n');
                    self.pos += 1;
                    self.line += 1;
                }
                Some(&b) => {
                    out.push(b);
                    self.pos += 1;
                }
            }
        }
        Ok(String::from_utf8_lossy(&out).into_owned())
    }
}

/// Parse a full CSV document from a string.
///
/// Records are *not* required to all have the same width; ETL validation
/// handles ragged rows so that a single bad row doesn't abort ingestion.
pub fn parse(input: &str, opts: CsvOptions) -> Result<CsvTable, DataError> {
    let mut p = Parser::new(input.as_bytes(), opts);
    let mut table = CsvTable::default();
    if opts.has_header {
        if let Some(h) = p.record()? {
            table.header = h;
        }
    }
    loop {
        let start = p.pos;
        let Some(rec) = p.record()? else { break };
        // Skip a genuinely empty trailing line (a bare terminator). A
        // quoted empty field (`""`) is a real one-column record.
        let line_was_blank = matches!(p.bytes.get(start), Some(b'\n') | Some(b'\r'));
        if rec.len() == 1 && rec[0].is_empty() && line_was_blank && p.at_end() {
            break;
        }
        table.records.push(rec);
    }
    Ok(table)
}

/// Serialize records to CSV, quoting only when necessary.
pub fn write(header: &[String], records: &[Vec<String>], opts: CsvOptions) -> String {
    let mut out = String::new();
    let write_row = |row: &[String], out: &mut String| {
        for (i, field) in row.iter().enumerate() {
            if i > 0 {
                out.push(opts.delimiter as char);
            }
            // A lone empty field must be quoted: an unquoted empty line is
            // indistinguishable from a row terminator when re-parsing.
            let needs_quote = (row.len() == 1 && field.is_empty())
                || field
                    .bytes()
                    .any(|b| b == opts.delimiter || b == opts.quote || b == b'\n' || b == b'\r');
            if needs_quote {
                out.push(opts.quote as char);
                for ch in field.chars() {
                    if ch as u32 == opts.quote as u32 {
                        out.push(opts.quote as char);
                    }
                    out.push(ch);
                }
                out.push(opts.quote as char);
            } else {
                out.push_str(field);
            }
        }
        out.push('\n');
    };
    if !header.is_empty() {
        write_row(header, &mut out);
    }
    for rec in records {
        write_row(rec, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_simple_header_and_rows() {
        let t = parse(
            "user,item,value\nmary,book,4\nbob,book,2\n",
            CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.header, strs(&["user", "item", "value"]));
        assert_eq!(t.records.len(), 2);
        assert_eq!(t.records[0], strs(&["mary", "book", "4"]));
        assert_eq!(t.column("value"), Some(2));
        assert_eq!(t.column("nope"), None);
    }

    #[test]
    fn handles_quotes_and_embedded_delimiters() {
        let t = parse(
            "a,b\n\"hello, world\",\"he said \"\"hi\"\"\"\n",
            CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(t.records[0][0], "hello, world");
        assert_eq!(t.records[0][1], "he said \"hi\"");
    }

    #[test]
    fn handles_embedded_newline_in_quotes() {
        let t = parse("a\n\"line1\nline2\"\n", CsvOptions::default()).unwrap();
        assert_eq!(t.records[0][0], "line1\nline2");
    }

    #[test]
    fn crlf_line_endings() {
        let t = parse("a,b\r\n1,2\r\n3,4\r\n", CsvOptions::default()).unwrap();
        assert_eq!(t.records, vec![strs(&["1", "2"]), strs(&["3", "4"])]);
    }

    #[test]
    fn semicolon_dialect_like_bookcrossing() {
        let opts = CsvOptions {
            delimiter: b';',
            ..Default::default()
        };
        let t = parse(
            "\"User-ID\";\"ISBN\";\"Rating\"\n\"276725\";\"034545104X\";\"0\"\n",
            opts,
        )
        .unwrap();
        assert_eq!(t.header, strs(&["User-ID", "ISBN", "Rating"]));
        assert_eq!(t.records[0], strs(&["276725", "034545104X", "0"]));
    }

    #[test]
    fn no_header_mode() {
        let opts = CsvOptions {
            has_header: false,
            ..Default::default()
        };
        let t = parse("1,2\n3,4\n", opts).unwrap();
        assert!(t.header.is_empty());
        assert_eq!(t.records.len(), 2);
    }

    #[test]
    fn unterminated_quote_is_error_with_line() {
        let err = parse("a\n\"oops\n", CsvOptions::default()).unwrap_err();
        match err {
            DataError::Csv { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("unterminated"));
            }
            other => panic!("expected Csv error, got {other:?}"),
        }
    }

    #[test]
    fn garbage_after_quoted_field_is_error() {
        let err = parse("a,b\n\"x\"y,2\n", CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Csv { .. }));
    }

    #[test]
    fn missing_final_newline_ok() {
        let t = parse("a\n1", CsvOptions::default()).unwrap();
        assert_eq!(t.records, vec![strs(&["1"])]);
    }

    #[test]
    fn empty_input() {
        let t = parse("", CsvOptions::default()).unwrap();
        assert!(t.header.is_empty());
        assert!(t.records.is_empty());
    }

    #[test]
    fn empty_fields_preserved() {
        let t = parse("a,b,c\n1,,3\n", CsvOptions::default()).unwrap();
        assert_eq!(t.records[0], strs(&["1", "", "3"]));
    }

    #[test]
    fn ragged_rows_are_preserved_for_etl() {
        let t = parse("a,b\n1\n1,2,3\n", CsvOptions::default()).unwrap();
        assert_eq!(t.records[0].len(), 1);
        assert_eq!(t.records[1].len(), 3);
    }

    #[test]
    fn write_round_trips_with_quoting() {
        let header = strs(&["name", "note"]);
        let records = vec![
            strs(&["mary", "likes \"fiction\", mostly"]),
            strs(&["bob", "line1\nline2"]),
        ];
        let text = write(&header, &records, CsvOptions::default());
        let t = parse(&text, CsvOptions::default()).unwrap();
        assert_eq!(t.header, header);
        assert_eq!(t.records, records);
    }
}
