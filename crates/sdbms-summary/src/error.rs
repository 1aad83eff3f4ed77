//! Error type for the Summary Database.

use std::fmt;

use sdbms_data::DataError;
use sdbms_stats::StatsError;
use sdbms_storage::StorageError;

/// Errors raised by the Summary Database.
#[derive(Debug, Clone, PartialEq)]
pub enum SummaryError {
    /// No cached entry under this key.
    NotCached {
        /// Function name.
        function: String,
        /// Attribute name.
        attribute: String,
    },
    /// The cached entry exists but is stale and the caller required
    /// freshness.
    Stale {
        /// Function name.
        function: String,
        /// Attribute name.
        attribute: String,
    },
    /// Stored bytes could not be decoded.
    Decode(&'static str),
    /// Underlying storage failure.
    Storage(StorageError),
    /// Underlying data-model failure.
    Data(DataError),
    /// Underlying statistics failure.
    Stats(StatsError),
}

impl fmt::Display for SummaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SummaryError::NotCached {
                function,
                attribute,
            } => write!(f, "no cached result for {function}({attribute})"),
            SummaryError::Stale {
                function,
                attribute,
            } => write!(f, "cached result for {function}({attribute}) is stale"),
            SummaryError::Decode(what) => write!(f, "summary decode error: {what}"),
            SummaryError::Storage(e) => write!(f, "storage error: {e}"),
            SummaryError::Data(e) => write!(f, "data error: {e}"),
            SummaryError::Stats(e) => write!(f, "stats error: {e}"),
        }
    }
}

impl std::error::Error for SummaryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SummaryError::Storage(e) => Some(e),
            SummaryError::Data(e) => Some(e),
            SummaryError::Stats(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for SummaryError {
    fn from(e: StorageError) -> Self {
        SummaryError::Storage(e)
    }
}
impl From<DataError> for SummaryError {
    fn from(e: DataError) -> Self {
        SummaryError::Data(e)
    }
}
impl From<StatsError> for SummaryError {
    fn from(e: StatsError) -> Self {
        SummaryError::Stats(e)
    }
}

/// Convenient result alias for Summary Database operations.
pub type Result<T> = std::result::Result<T, SummaryError>;
