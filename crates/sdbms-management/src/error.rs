//! Error type for the Management Database.

use std::fmt;

use sdbms_data::DataError;

/// Errors raised by the Management Database.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagementError {
    /// No view with this name in the catalog.
    NoSuchView(String),
    /// A view with this name already exists.
    ViewExists(String),
    /// A rollback target version does not exist in the history.
    NoSuchVersion {
        /// The requested version.
        version: u64,
        /// The current (latest) version.
        current: u64,
    },
    /// No rule registered for this derived attribute.
    NoSuchRule {
        /// View name.
        view: String,
        /// Attribute name.
        attribute: String,
    },
    /// Underlying data-model failure.
    Data(DataError),
}

impl fmt::Display for ManagementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManagementError::NoSuchView(name) => write!(f, "no view named {name:?}"),
            ManagementError::ViewExists(name) => write!(f, "view {name:?} already exists"),
            ManagementError::NoSuchVersion { version, current } => {
                write!(f, "no version {version} (history is at {current})")
            }
            ManagementError::NoSuchRule { view, attribute } => {
                write!(
                    f,
                    "no rule for derived attribute {attribute:?} of view {view:?}"
                )
            }
            ManagementError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for ManagementError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ManagementError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DataError> for ManagementError {
    fn from(e: DataError) -> Self {
        ManagementError::Data(e)
    }
}

/// Convenient result alias for Management Database operations.
pub type Result<T> = std::result::Result<T, ManagementError>;
