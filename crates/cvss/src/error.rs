use std::error::Error;
use std::fmt;

/// Error returned when a CVSS vector string cannot be parsed.
///
/// Produced by the `FromStr` implementation of
/// [`v2::BaseVector`](crate::v2::BaseVector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseVectorError {
    /// A `KEY:VALUE` component was malformed (no colon, empty key, …).
    MalformedComponent {
        /// The offending component text.
        component: String,
    },
    /// A metric key was not recognized for this CVSS version.
    UnknownMetric {
        /// The unrecognized key.
        key: String,
    },
    /// A metric value was not valid for the given metric.
    InvalidValue {
        /// The metric key.
        key: String,
        /// The invalid value text.
        value: String,
    },
    /// The same metric appeared more than once.
    DuplicateMetric {
        /// The duplicated key.
        key: String,
    },
    /// One or more mandatory base metrics were absent.
    MissingMetric {
        /// The name of the first missing metric.
        key: &'static str,
    },
    /// The version prefix (e.g. `CVSS:3.0/`) did not match the parser used.
    VersionMismatch {
        /// The prefix found.
        found: String,
    },
}

impl fmt::Display for ParseVectorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseVectorError::MalformedComponent { component } => {
                write!(f, "malformed vector component `{component}`")
            }
            ParseVectorError::UnknownMetric { key } => {
                write!(f, "unknown metric key `{key}`")
            }
            ParseVectorError::InvalidValue { key, value } => {
                write!(f, "invalid value `{value}` for metric `{key}`")
            }
            ParseVectorError::DuplicateMetric { key } => {
                write!(f, "metric `{key}` appears more than once")
            }
            ParseVectorError::MissingMetric { key } => {
                write!(f, "mandatory metric `{key}` is missing")
            }
            ParseVectorError::VersionMismatch { found } => {
                write!(f, "vector version prefix `{found}` does not match parser")
            }
        }
    }
}

impl Error for ParseVectorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_concise() {
        let e = ParseVectorError::UnknownMetric { key: "XX".into() };
        let s = e.to_string();
        assert!(s.starts_with("unknown metric"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn implements_std_error() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ParseVectorError>();
    }
}
