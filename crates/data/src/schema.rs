//! Attribute schema for user demographics and derived action attributes.
//!
//! VEXUS groups are described by conjunctions of `attribute = value` pairs
//! ("young professionals in Paris"). The schema fixes the attribute universe
//! and, per attribute, a dictionary of categorical values. Numeric
//! attributes (age, publication count, …) are discretized into labeled bins
//! at schema-definition time, matching how the paper's group descriptions
//! use qualitative levels ("very senior", "extremely active").

use crate::error::DataError;
use crate::ids::{AttrId, ValueId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// How raw values of an attribute map into the categorical dictionary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttributeKind {
    /// Free categorical values; the dictionary grows as values are observed
    /// (up to an optional cap, after which values map to `"<other>"`).
    Categorical {
        /// Maximum dictionary size; `None` = unbounded.
        max_values: Option<usize>,
    },
    /// Numeric values discretized into `edges.len() + 1` bins. Bin `i`
    /// covers `[edges[i-1], edges[i])`; the first bin is `(-inf, edges[0])`
    /// and the last `[edges.last(), +inf)`.
    Numeric {
        /// Ascending bin edges.
        edges: Vec<f64>,
        /// Human-readable labels, one per bin (`edges.len() + 1` entries).
        labels: Vec<String>,
    },
}

/// Definition of a single attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeDef {
    /// Attribute name, unique within the schema (e.g. `"gender"`, `"age"`).
    pub name: String,
    /// Parsing/bucketing behaviour.
    pub kind: AttributeKind,
}

/// The attribute universe plus per-attribute value dictionaries.
///
/// Dictionaries are mutable while data is ingested (`intern_value`) and
/// frozen implicitly afterwards; lookups never mutate.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Schema {
    attrs: Vec<AttributeDef>,
    attr_by_name: HashMap<String, AttrId>,
    /// Per attribute: value label -> ValueId.
    value_ids: Vec<HashMap<String, ValueId>>,
    /// Per attribute: ValueId -> value label.
    value_labels: Vec<Vec<String>>,
}

impl Schema {
    /// An empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a categorical attribute with unbounded dictionary.
    pub fn add_categorical(&mut self, name: impl Into<String>) -> AttrId {
        self.add_attribute(AttributeDef {
            name: name.into(),
            kind: AttributeKind::Categorical { max_values: None },
        })
    }

    /// Add a numeric attribute with caller-provided bin labels.
    pub fn add_numeric_labeled(
        &mut self,
        name: impl Into<String>,
        edges: &[f64],
        labels: &[&str],
    ) -> AttrId {
        assert_eq!(labels.len(), edges.len() + 1, "need edges.len()+1 labels");
        self.add_attribute(AttributeDef {
            name: name.into(),
            kind: AttributeKind::Numeric {
                edges: edges.to_vec(),
                labels: labels.iter().map(|s| s.to_string()).collect(),
            },
        })
    }

    /// Add a fully specified attribute definition; returns its id.
    ///
    /// # Panics
    /// Panics if the name is already taken — schemas are built by code, not
    /// untrusted input.
    pub fn add_attribute(&mut self, def: AttributeDef) -> AttrId {
        assert!(
            !self.attr_by_name.contains_key(&def.name),
            "duplicate attribute name {:?}",
            def.name
        );
        let id = AttrId::new(self.attrs.len() as u16);
        self.attr_by_name.insert(def.name.clone(), id);
        // Numeric attributes get a pre-populated, fixed dictionary: one
        // value per bin label.
        match &def.kind {
            AttributeKind::Numeric { labels, .. } => {
                let mut ids = HashMap::with_capacity(labels.len());
                for (i, l) in labels.iter().enumerate() {
                    ids.insert(l.clone(), ValueId::new(i as u32));
                }
                self.value_ids.push(ids);
                self.value_labels.push(labels.clone());
            }
            AttributeKind::Categorical { .. } => {
                self.value_ids.push(HashMap::new());
                self.value_labels.push(Vec::new());
            }
        }
        self.attrs.push(def);
        id
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterate over `(AttrId, &AttributeDef)`.
    pub fn iter(&self) -> impl Iterator<Item = (AttrId, &AttributeDef)> {
        self.attrs
            .iter()
            .enumerate()
            .map(|(i, d)| (AttrId::new(i as u16), d))
    }

    /// Look up an attribute by name.
    pub fn attr(&self, name: &str) -> Option<AttrId> {
        self.attr_by_name.get(name).copied()
    }

    /// Like [`Schema::attr`] but returns a [`DataError`] for `?`-chaining.
    pub fn require_attr(&self, name: &str) -> Result<AttrId, DataError> {
        self.attr(name)
            .ok_or_else(|| DataError::UnknownAttribute(name.to_string()))
    }

    /// Attribute name.
    pub fn attr_name(&self, attr: AttrId) -> &str {
        &self.attrs[attr.index()].name
    }

    /// Number of distinct values currently interned for `attr`.
    pub fn cardinality(&self, attr: AttrId) -> usize {
        self.value_labels[attr.index()].len()
    }

    /// The label of a value of `attr`.
    ///
    /// Returns `"<missing>"` for the missing sentinel.
    pub fn value_label(&self, attr: AttrId, value: ValueId) -> &str {
        if value.is_missing() {
            return "<missing>";
        }
        &self.value_labels[attr.index()][value.index()]
    }

    /// Look up a value id by label without interning.
    pub fn value(&self, attr: AttrId, label: &str) -> Option<ValueId> {
        self.value_ids[attr.index()].get(label).copied()
    }

    /// Intern a raw string value of `attr`, returning its [`ValueId`].
    ///
    /// * Categorical attributes grow their dictionary (respecting
    ///   `max_values`, overflow maps to `"<other>"`).
    /// * Numeric attributes parse the string as `f64` and return the bin;
    ///   unparseable input yields [`DataError::BadValue`].
    /// * Empty strings yield [`ValueId::MISSING`].
    pub fn intern_value(&mut self, attr: AttrId, raw: &str) -> Result<ValueId, DataError> {
        if raw.is_empty() {
            return Ok(ValueId::MISSING);
        }
        match &self.attrs[attr.index()].kind {
            AttributeKind::Numeric { .. } => {
                let x: f64 = raw.parse().map_err(|_| DataError::BadValue {
                    attribute: self.attrs[attr.index()].name.clone(),
                    value: raw.to_string(),
                })?;
                Ok(self.bin_numeric(attr, x))
            }
            AttributeKind::Categorical { max_values } => {
                let max = *max_values;
                let table = &mut self.value_ids[attr.index()];
                if let Some(&id) = table.get(raw) {
                    return Ok(id);
                }
                let labels = &mut self.value_labels[attr.index()];
                if let Some(cap) = max {
                    if labels.len() >= cap {
                        // Map overflow values onto a shared "<other>" bucket.
                        if let Some(&id) = table.get("<other>") {
                            return Ok(id);
                        }
                        let id = ValueId::new(labels.len() as u32);
                        table.insert("<other>".to_string(), id);
                        labels.push("<other>".to_string());
                        return Ok(id);
                    }
                }
                let id = ValueId::new(labels.len() as u32);
                table.insert(raw.to_string(), id);
                labels.push(raw.to_string());
                Ok(id)
            }
        }
    }

    /// Bin a numeric value of a `Numeric` attribute.
    ///
    /// # Panics
    /// Panics if `attr` is categorical.
    pub fn bin_numeric(&self, attr: AttrId, x: f64) -> ValueId {
        match &self.attrs[attr.index()].kind {
            AttributeKind::Numeric { edges, .. } => {
                let bin = edges.partition_point(|&e| e <= x);
                ValueId::new(bin as u32)
            }
            AttributeKind::Categorical { .. } => {
                panic!("bin_numeric called on categorical attribute")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categorical_interning_is_stable() {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        let a = s.intern_value(g, "female").unwrap();
        let b = s.intern_value(g, "male").unwrap();
        let a2 = s.intern_value(g, "female").unwrap();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.cardinality(g), 2);
        assert_eq!(s.value_label(g, a), "female");
        assert_eq!(s.value(g, "male"), Some(b));
    }

    #[test]
    fn categorical_cap_overflows_to_other() {
        let mut s = Schema::new();
        let c = s.add_attribute(AttributeDef {
            name: "city".into(),
            kind: AttributeKind::Categorical {
                max_values: Some(2),
            },
        });
        s.intern_value(c, "paris").unwrap();
        s.intern_value(c, "grenoble").unwrap();
        let o1 = s.intern_value(c, "lyon").unwrap();
        let o2 = s.intern_value(c, "porto alegre").unwrap();
        assert_eq!(o1, o2);
        assert_eq!(s.value_label(c, o1), "<other>");
        assert_eq!(s.cardinality(c), 3);
    }

    #[test]
    fn numeric_binning_covers_full_range() {
        let mut s = Schema::new();
        let age = s.add_numeric_labeled(
            "age",
            &[18.0, 30.0, 50.0, 65.0],
            &["minor", "young", "middle-age", "senior", "elder"],
        );
        assert_eq!(s.value_label(age, s.bin_numeric(age, 5.0)), "minor");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 18.0)), "young");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 29.9)), "young");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 42.0)), "middle-age");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 64.999)), "senior");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 65.0)), "elder");
        assert_eq!(s.value_label(age, s.bin_numeric(age, 200.0)), "elder");
        assert_eq!(s.cardinality(age), 5);
    }

    #[test]
    fn numeric_intern_parses_and_rejects() {
        let mut s = Schema::new();
        let age = s.add_numeric_labeled("age", &[18.0, 65.0], &["minor", "adult", "senior"]);
        let v = s.intern_value(age, "40").unwrap();
        assert_eq!(s.value_label(age, v), "adult");
        assert!(matches!(
            s.intern_value(age, "forty"),
            Err(DataError::BadValue { .. })
        ));
    }

    #[test]
    fn empty_string_is_missing() {
        let mut s = Schema::new();
        let g = s.add_categorical("gender");
        assert_eq!(s.intern_value(g, "").unwrap(), ValueId::MISSING);
        assert_eq!(s.value_label(g, ValueId::MISSING), "<missing>");
    }

    #[test]
    fn require_attr_errors_on_unknown() {
        let s = Schema::new();
        assert!(matches!(
            s.require_attr("nope"),
            Err(DataError::UnknownAttribute(_))
        ));
    }

    #[test]
    #[should_panic(expected = "duplicate attribute")]
    fn duplicate_attribute_panics() {
        let mut s = Schema::new();
        s.add_categorical("gender");
        s.add_categorical("gender");
    }
}
