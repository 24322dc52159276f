//! ETL pipeline: the cleaning stage that, per Fig. 1 of the paper,
//! "precedes the data import to prepare data for analysis".
//!
//! The pipeline is a sequence of declarative [`CleanOp`]s applied to a
//! [`crate::csv::CsvTable`], followed by typed import into a
//! [`crate::dataset::UserData`] via column bindings. Every op records what
//! it changed in an [`EtlReport`] so that data-quality issues are visible
//! rather than silently swallowed.

use crate::csv::CsvTable;
use crate::dataset::UserDataBuilder;
use crate::error::DataError;
use std::collections::HashSet;

/// One cleaning operation over the raw string table.
#[derive(Debug, Clone)]
pub enum CleanOp {
    /// Trim ASCII whitespace from every field.
    TrimWhitespace,
    /// Lowercase a named column (for case-insensitive categorical values).
    Lowercase(String),
    /// Replace any of the given null-ish tokens (case-insensitive) with the
    /// empty string (= missing).
    NormalizeNulls(Vec<String>),
    /// Drop records whose width differs from the header width.
    DropRagged,
    /// Drop exact duplicate records.
    DropDuplicates,
    /// Drop records where the named column is empty.
    RequireNonEmpty(String),
    /// Clamp a numeric column into `[min, max]`; non-numeric values are
    /// blanked to missing.
    ClampNumeric {
        /// Column to clamp.
        column: String,
        /// Inclusive lower bound.
        min: f64,
        /// Inclusive upper bound.
        max: f64,
    },
}

/// Counters describing what the pipeline changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EtlReport {
    /// Records seen in the raw input.
    pub records_in: usize,
    /// Records surviving cleaning.
    pub records_out: usize,
    /// Records dropped for raggedness.
    pub dropped_ragged: usize,
    /// Records dropped as duplicates.
    pub dropped_duplicates: usize,
    /// Records dropped by `RequireNonEmpty`.
    pub dropped_missing_required: usize,
    /// Fields rewritten to missing by `NormalizeNulls`.
    pub nulls_normalized: usize,
    /// Fields clamped by `ClampNumeric`.
    pub values_clamped: usize,
    /// Non-numeric fields blanked by `ClampNumeric`.
    pub values_unparseable: usize,
}

/// Apply `ops` in order, mutating `table` and accumulating a report.
pub fn clean(table: &mut CsvTable, ops: &[CleanOp]) -> EtlReport {
    let mut report = EtlReport {
        records_in: table.records.len(),
        ..Default::default()
    };
    for op in ops {
        apply(table, op, &mut report);
    }
    report.records_out = table.records.len();
    report
}

fn apply(table: &mut CsvTable, op: &CleanOp, report: &mut EtlReport) {
    match op {
        CleanOp::TrimWhitespace => {
            for rec in &mut table.records {
                for f in rec.iter_mut() {
                    let trimmed = f.trim();
                    if trimmed.len() != f.len() {
                        *f = trimmed.to_string();
                    }
                }
            }
        }
        CleanOp::Lowercase(col) => {
            if let Some(c) = table.column(col) {
                for rec in &mut table.records {
                    if let Some(f) = rec.get_mut(c) {
                        if f.chars().any(|ch| ch.is_ascii_uppercase()) {
                            *f = f.to_ascii_lowercase();
                        }
                    }
                }
            }
        }
        CleanOp::NormalizeNulls(tokens) => {
            let lowered: Vec<String> = tokens.iter().map(|t| t.to_ascii_lowercase()).collect();
            for rec in &mut table.records {
                for f in rec.iter_mut() {
                    if !f.is_empty() && lowered.iter().any(|t| f.eq_ignore_ascii_case(t)) {
                        f.clear();
                        report.nulls_normalized += 1;
                    }
                }
            }
        }
        CleanOp::DropRagged => {
            let width = table.header.len();
            if width == 0 {
                return;
            }
            let before = table.records.len();
            table.records.retain(|r| r.len() == width);
            report.dropped_ragged += before - table.records.len();
        }
        CleanOp::DropDuplicates => {
            let mut seen: HashSet<u64> = HashSet::with_capacity(table.records.len());
            let before = table.records.len();
            table.records.retain(|r| {
                use std::hash::{Hash, Hasher};
                let mut h = std::collections::hash_map::DefaultHasher::new();
                r.hash(&mut h);
                seen.insert(h.finish())
            });
            report.dropped_duplicates += before - table.records.len();
        }
        CleanOp::RequireNonEmpty(col) => {
            if let Some(c) = table.column(col) {
                let before = table.records.len();
                table
                    .records
                    .retain(|r| r.get(c).is_some_and(|f| !f.is_empty()));
                report.dropped_missing_required += before - table.records.len();
            }
        }
        CleanOp::ClampNumeric { column, min, max } => {
            if let Some(c) = table.column(column) {
                for rec in &mut table.records {
                    if let Some(f) = rec.get_mut(c) {
                        if f.is_empty() {
                            continue;
                        }
                        match f.parse::<f64>() {
                            Ok(x) if x < *min => {
                                *f = fmt_num(*min);
                                report.values_clamped += 1;
                            }
                            Ok(x) if x > *max => {
                                *f = fmt_num(*max);
                                report.values_clamped += 1;
                            }
                            Ok(_) => {}
                            Err(_) => {
                                f.clear();
                                report.values_unparseable += 1;
                            }
                        }
                    }
                }
            }
        }
    }
}

fn fmt_num(x: f64) -> String {
    if x.fract() == 0.0 && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x}")
    }
}

/// Binding from CSV columns to the `[user, item, value]` action schema plus
/// demographic columns.
#[derive(Debug, Clone, Default)]
pub struct ImportSpec {
    /// Column naming the acting user (required).
    pub user_column: String,
    /// Column naming the item, if this table carries actions.
    pub item_column: Option<String>,
    /// Column carrying the action value; absent means value `1.0`
    /// (presence-only actions like "bought").
    pub value_column: Option<String>,
    /// Column carrying the item category, if any.
    pub item_category_column: Option<String>,
    /// `(csv column, schema attribute)` demographic bindings.
    pub demographics: Vec<(String, String)>,
}

/// Import a cleaned table into `builder` per `spec`.
///
/// Unknown schema attributes error; unparseable demographic values are
/// counted and left missing (a single bad cell must not abort a million-row
/// import).
pub fn import(
    table: &CsvTable,
    spec: &ImportSpec,
    builder: &mut UserDataBuilder,
) -> Result<ImportStats, DataError> {
    let user_col = table
        .column(&spec.user_column)
        .ok_or_else(|| DataError::UnknownAttribute(spec.user_column.clone()))?;
    let item_col = match &spec.item_column {
        Some(c) => Some(
            table
                .column(c)
                .ok_or_else(|| DataError::UnknownAttribute(c.clone()))?,
        ),
        None => None,
    };
    let value_col = match &spec.value_column {
        Some(c) => Some(
            table
                .column(c)
                .ok_or_else(|| DataError::UnknownAttribute(c.clone()))?,
        ),
        None => None,
    };
    let cat_col = match &spec.item_category_column {
        Some(c) => Some(
            table
                .column(c)
                .ok_or_else(|| DataError::UnknownAttribute(c.clone()))?,
        ),
        None => None,
    };
    let mut demo_cols = Vec::with_capacity(spec.demographics.len());
    for (csv_col, attr_name) in &spec.demographics {
        let c = table
            .column(csv_col)
            .ok_or_else(|| DataError::UnknownAttribute(csv_col.clone()))?;
        let a = builder.schema().require_attr(attr_name)?;
        demo_cols.push((c, a));
    }

    let mut stats = ImportStats::default();
    for rec in &table.records {
        // A short (ragged) row missing the key cell counts like an empty
        // one.
        let user_name = rec.get(user_col).map_or("", String::as_str);
        if user_name.is_empty() {
            stats.skipped_rows += 1;
            continue;
        }
        let user = builder.user(user_name);
        for &(c, a) in &demo_cols {
            let raw = rec.get(c).map(String::as_str).unwrap_or("");
            match builder.set_demo(user, a, raw) {
                Ok(()) => {}
                Err(DataError::BadValue { .. }) => stats.bad_demographics += 1,
                Err(e) => return Err(e),
            }
        }
        if let Some(ic) = item_col {
            let item_name = rec.get(ic).map_or("", String::as_str);
            if item_name.is_empty() {
                stats.skipped_rows += 1;
                continue;
            }
            let category = cat_col
                .and_then(|cc| rec.get(cc))
                .filter(|s| !s.is_empty())
                .map(String::as_str);
            let item = builder.item(item_name, category);
            let value = match value_col {
                None => 1.0,
                Some(vc) => match rec.get(vc).map(String::as_str).unwrap_or("") {
                    "" => {
                        stats.default_values += 1;
                        1.0
                    }
                    raw => match raw.parse::<f32>() {
                        Ok(x) => x,
                        Err(_) => {
                            stats.bad_values += 1;
                            continue;
                        }
                    },
                },
            };
            builder.action(user, item, value);
            stats.actions_imported += 1;
        }
    }
    Ok(stats)
}

/// Counters from [`import`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Actions successfully imported.
    pub actions_imported: usize,
    /// Rows skipped (missing user or item key).
    pub skipped_rows: usize,
    /// Demographic cells that failed to parse (left missing).
    pub bad_demographics: usize,
    /// Action values that failed to parse (action dropped).
    pub bad_values: usize,
    /// Action values defaulted to 1.0 because the cell was empty.
    pub default_values: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::{parse, CsvOptions};
    use crate::schema::Schema;

    fn ratings_csv() -> &'static str {
        "user,age,gender,book,genre,rating\n\
         mary, 25 ,F,Mr Miracle,fiction,4\n\
         bob,45,M,Dune,scifi,5\n\
         mary,25,F,Dune,scifi,3\n\
         mary,25,F,Dune,scifi,3\n\
         carol,NULL,F,Emma,fiction,5\n\
         dave,200,M,Dune,scifi,oops\n"
    }

    fn spec() -> ImportSpec {
        ImportSpec {
            user_column: "user".into(),
            item_column: Some("book".into()),
            value_column: Some("rating".into()),
            item_category_column: Some("genre".into()),
            demographics: vec![
                ("age".into(), "age".into()),
                ("gender".into(), "gender".into()),
            ],
        }
    }

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.add_numeric_labeled("age", &[30.0, 60.0], &["young", "middle", "senior"]);
        s.add_categorical("gender");
        s
    }

    #[test]
    fn full_pipeline_cleans_and_imports() {
        let mut table = parse(ratings_csv(), CsvOptions::default()).unwrap();
        let report = clean(
            &mut table,
            &[
                CleanOp::TrimWhitespace,
                CleanOp::NormalizeNulls(vec!["null".into()]),
                CleanOp::DropDuplicates,
                CleanOp::ClampNumeric {
                    column: "age".into(),
                    min: 0.0,
                    max: 120.0,
                },
            ],
        );
        assert_eq!(report.records_in, 6);
        assert_eq!(report.dropped_duplicates, 1);
        assert_eq!(report.nulls_normalized, 1);
        assert_eq!(report.values_clamped, 1); // dave's 200 -> 120
        assert_eq!(report.records_out, 5);

        let mut b = UserDataBuilder::new(schema());
        let stats = import(&table, &spec(), &mut b).unwrap();
        // dave's rating "oops" is dropped.
        assert_eq!(stats.actions_imported, 4);
        assert_eq!(stats.bad_values, 1);
        let d = b.build();
        assert_eq!(d.n_users(), 4);
        let age = d.schema().attr("age").unwrap();
        let mary = crate::ids::UserId::new(0);
        assert_eq!(d.schema().value_label(age, d.value(mary, age)), "young");
        // carol's age was normalized to missing.
        let carol = (0..d.n_users() as u32)
            .map(crate::ids::UserId::new)
            .find(|&u| d.user_name(u) == "carol")
            .unwrap();
        assert!(d.value(carol, age).is_missing());
    }

    #[test]
    fn trim_whitespace() {
        let mut t = parse("a\n  x  \n", CsvOptions::default()).unwrap();
        clean(&mut t, &[CleanOp::TrimWhitespace]);
        assert_eq!(t.records[0][0], "x");
    }

    #[test]
    fn lowercase_targets_one_column() {
        let mut t = parse("a,b\nFoo,Bar\n", CsvOptions::default()).unwrap();
        clean(&mut t, &[CleanOp::Lowercase("a".into())]);
        assert_eq!(t.records[0], vec!["foo".to_string(), "Bar".to_string()]);
    }

    #[test]
    fn drop_ragged_uses_header_width() {
        let mut t = parse("a,b\n1,2\n1\n1,2,3\n", CsvOptions::default()).unwrap();
        let r = clean(&mut t, &[CleanOp::DropRagged]);
        assert_eq!(r.dropped_ragged, 2);
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn require_non_empty() {
        let mut t = parse("user,x\nmary,1\n,2\n", CsvOptions::default()).unwrap();
        let r = clean(&mut t, &[CleanOp::RequireNonEmpty("user".into())]);
        assert_eq!(r.dropped_missing_required, 1);
        assert_eq!(t.records.len(), 1);
    }

    #[test]
    fn clamp_numeric_blank_on_unparseable() {
        let mut t = parse("x\n5\nhello\n-3\n", CsvOptions::default()).unwrap();
        let r = clean(
            &mut t,
            &[CleanOp::ClampNumeric {
                column: "x".into(),
                min: 0.0,
                max: 4.0,
            }],
        );
        assert_eq!(r.values_clamped, 2);
        assert_eq!(r.values_unparseable, 1);
        assert_eq!(t.records[0][0], "4");
        assert_eq!(t.records[1][0], "");
        assert_eq!(t.records[2][0], "0");
    }

    #[test]
    fn import_errors_on_unknown_columns() {
        let table = parse("u\nx\n", CsvOptions::default()).unwrap();
        let mut b = UserDataBuilder::new(Schema::new());
        let spec = ImportSpec {
            user_column: "nope".into(),
            ..Default::default()
        };
        assert!(matches!(
            import(&table, &spec, &mut b),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn short_rows_count_as_skipped() {
        // Row 2 has no user cell at all, row 3 an empty item cell: both
        // are rows missing a key, and both are counted.
        let table = parse(
            "item,user,rating\nb1,alice,5\nb2\n,bob,3\n",
            CsvOptions::default(),
        )
        .unwrap();
        assert_eq!(table.records.len(), 3);
        let mut b = UserDataBuilder::new(Schema::new());
        let spec = ImportSpec {
            user_column: "user".into(),
            item_column: Some("item".into()),
            value_column: Some("rating".into()),
            ..Default::default()
        };
        let stats = import(&table, &spec, &mut b).unwrap();
        assert_eq!(stats.actions_imported, 1);
        assert_eq!(stats.skipped_rows, 2);
    }

    #[test]
    fn presence_only_actions_default_to_one() {
        let table = parse("user,item\nmary,bread\n", CsvOptions::default()).unwrap();
        let mut b = UserDataBuilder::new(Schema::new());
        let spec = ImportSpec {
            user_column: "user".into(),
            item_column: Some("item".into()),
            ..Default::default()
        };
        let stats = import(&table, &spec, &mut b).unwrap();
        assert_eq!(stats.actions_imported, 1);
        let d = b.build();
        assert_eq!(d.actions()[0].value, 1.0);
    }

    #[test]
    fn empty_table_imports_to_empty_dataset() {
        let table = parse("user,item,rating\n", CsvOptions::default()).unwrap();
        let mut b = UserDataBuilder::new(Schema::new());
        let spec = ImportSpec {
            user_column: "user".into(),
            item_column: Some("item".into()),
            value_column: Some("rating".into()),
            ..Default::default()
        };
        let stats = import(&table, &spec, &mut b).unwrap();
        let d = b.build();
        assert!(table.records.is_empty());
        assert_eq!(stats.actions_imported, 0);
        assert_eq!(d.n_users(), 0);
    }
}
