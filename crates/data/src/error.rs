//! Error types for the data substrate.

use std::fmt;

/// Errors raised while parsing, cleaning or assembling user data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// A CSV record was structurally malformed.
    Csv {
        /// 1-based line number of the offending record.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A record referenced an attribute not present in the schema.
    UnknownAttribute(String),
    /// A value could not be coerced to the attribute's kind.
    BadValue {
        /// Attribute whose parse failed.
        attribute: String,
        /// The raw offending value.
        value: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Csv { line, message } => {
                write!(f, "csv parse error at line {line}: {message}")
            }
            DataError::UnknownAttribute(a) => write!(f, "unknown attribute: {a}"),
            DataError::BadValue { attribute, value } => {
                write!(f, "bad value {value:?} for attribute {attribute:?}")
            }
        }
    }
}

impl std::error::Error for DataError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        let e = DataError::Csv {
            line: 3,
            message: "unterminated quote".into(),
        };
        assert!(e.to_string().contains("line 3"));
        assert!(e.to_string().contains("unterminated quote"));
        let e = DataError::BadValue {
            attribute: "age".into(),
            value: "abc".into(),
        };
        assert!(e.to_string().contains("age"));
    }
}
