//! Error types for the exploration engine.

use std::fmt;
use vexus_data::{SnapshotError, WalError};

/// Errors raised by the exploration engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A group id outside the discovered group space.
    UnknownGroup(u32),
    /// A history step index that does not exist.
    BadHistoryStep(usize),
    /// The clicked group has to be currently displayed.
    NotDisplayed(u32),
    /// The group space is empty (discovery produced nothing).
    EmptyGroupSpace,
    /// A named attribute is missing from the schema.
    UnknownAttribute(String),
    /// A snapshot buffer failed to load (corrupt, truncated, or written
    /// against a different dataset).
    Snapshot(SnapshotError),
    /// A live-engine operation on an engine without live ingestion state:
    /// fixed engines, non-stream discovery selections, or a live engine
    /// halted after a panic mid-refresh. The payload says which.
    NotLive(&'static str),
    /// A fault-injection site fired (only while a `FailScenario` arms
    /// the site).
    Injected(&'static str),
    /// The live engine halted after a mid-refresh panic or an empty epoch
    /// group space; the payload is the cause. The published engine keeps
    /// serving the last good epoch, but ingestion and refresh refuse until
    /// [`crate::LiveEngine::recover`] rebuilds from durable state.
    Halted(&'static str),
    /// A write-ahead-log operation failed (durable live engines only).
    Wal(WalError),
    /// Crash recovery could not reconstruct a consistent engine from the
    /// durable directory; the payload says what was inconsistent.
    Recovery(&'static str),
    /// The schema has more attributes than the STATS view can show; the
    /// payload is the schema's attribute count.
    SchemaTooWide(usize),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::UnknownGroup(g) => write!(f, "unknown group g{g}"),
            CoreError::BadHistoryStep(s) => write!(f, "no history step {s}"),
            CoreError::NotDisplayed(g) => {
                write!(f, "group g{g} is not currently displayed in GroupViz")
            }
            CoreError::EmptyGroupSpace => write!(f, "group discovery produced no groups"),
            CoreError::UnknownAttribute(a) => write!(f, "unknown attribute {a:?}"),
            CoreError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
            CoreError::NotLive(why) => write!(f, "engine is not live: {why}"),
            CoreError::Injected(site) => write!(f, "injected fault ({site})"),
            CoreError::Halted(cause) => {
                write!(
                    f,
                    "live engine is halted ({cause}); recover from durable state"
                )
            }
            CoreError::Wal(e) => write!(f, "write-ahead log failed: {e}"),
            CoreError::Recovery(what) => write!(f, "crash recovery failed: {what}"),
            CoreError::SchemaTooWide(n) => {
                write!(
                    f,
                    "schema has {n} attributes, more than the STATS view shows"
                )
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Snapshot(e) => Some(e),
            CoreError::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for CoreError {
    fn from(e: SnapshotError) -> Self {
        CoreError::Snapshot(e)
    }
}

impl From<WalError> for CoreError {
    fn from(e: WalError) -> Self {
        CoreError::Wal(e)
    }
}

/// Errors raised by the serving layer ([`crate::serve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A session id that was never opened, or was already closed.
    UnknownSession(u64),
    /// Admission control rejected the open: the table already holds
    /// `max` live sessions.
    AtCapacity {
        /// Live sessions at the time of the rejection.
        open: usize,
        /// The configured `ServiceConfig::max_sessions` ceiling.
        max: usize,
    },
    /// The session existed but was evicted after exceeding the idle TTL.
    SessionExpired(u64),
    /// The session panicked mid-verb and was quarantined; it no longer
    /// accepts verbs. Other sessions are unaffected.
    SessionPoisoned(u64),
    /// A fault-injection site fired (only while a `FailScenario` arms
    /// the site).
    Injected(&'static str),
    /// The underlying session verb failed.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownSession(s) => write!(f, "unknown session s{s}"),
            ServeError::AtCapacity { open, max } => {
                write!(f, "service at capacity ({open} of {max} sessions open)")
            }
            ServeError::SessionExpired(s) => write!(f, "session s{s} expired (idle TTL)"),
            ServeError::SessionPoisoned(s) => {
                write!(f, "session s{s} is quarantined after a panic")
            }
            ServeError::Injected(site) => write!(f, "injected fault ({site})"),
            ServeError::Core(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> Self {
        ServeError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_identify_the_subject() {
        assert!(CoreError::UnknownGroup(7).to_string().contains("g7"));
        assert!(CoreError::BadHistoryStep(3).to_string().contains('3'));
        assert!(CoreError::UnknownAttribute("x".into())
            .to_string()
            .contains("\"x\""));
    }

    #[test]
    fn serve_errors_wrap_and_identify() {
        assert!(ServeError::UnknownSession(4).to_string().contains("s4"));
        let wrapped: ServeError = CoreError::NotDisplayed(2).into();
        assert_eq!(wrapped, ServeError::Core(CoreError::NotDisplayed(2)));
        assert!(wrapped.to_string().contains("g2"));
        assert!(std::error::Error::source(&wrapped).is_some());
    }

    #[test]
    fn lifecycle_errors_identify_their_cause() {
        let at = ServeError::AtCapacity { open: 8, max: 8 };
        assert!(at.to_string().contains("8 of 8"));
        assert!(ServeError::SessionExpired(3).to_string().contains("s3"));
        assert!(ServeError::SessionPoisoned(5)
            .to_string()
            .contains("quarantined"));
        assert!(ServeError::Injected("serve.step")
            .to_string()
            .contains("serve.step"));
        assert!(std::error::Error::source(&at).is_none());
    }
}
