use std::error::Error;
use std::fmt;

use lfi_profile::xml::XmlError;

/// Errors produced while reading a fault scenario from XML or constructing a
/// scenario generator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The document is not well-formed XML.
    Xml(XmlError),
    /// The document is XML but does not follow the plan schema.
    Schema {
        /// Description of the schema violation.
        message: String,
    },
    /// A numeric field could not be parsed.
    InvalidNumber {
        /// The attribute holding the number.
        field: String,
        /// The offending text.
        text: String,
    },
    /// An injection probability outside `[0, 1]` (or NaN) was supplied to a
    /// random scenario generator.
    InvalidProbability {
        /// The rejected value.
        value: f64,
    },
}

impl ScenarioError {
    /// Convenience constructor for schema violations.
    pub(crate) fn schema(message: impl Into<String>) -> Self {
        ScenarioError::Schema { message: message.into() }
    }

    /// Convenience constructor for number-parse failures.
    pub(crate) fn invalid_number(field: impl Into<String>, text: impl Into<String>) -> Self {
        ScenarioError::InvalidNumber { field: field.into(), text: text.into() }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Xml(e) => write!(f, "invalid XML: {e}"),
            ScenarioError::Schema { message } => write!(f, "invalid fault scenario: {message}"),
            ScenarioError::InvalidNumber { field, text } => {
                write!(f, "invalid number {text:?} in attribute {field}")
            }
            ScenarioError::InvalidProbability { value } => {
                write!(f, "invalid injection probability {value}: must be in [0, 1]")
            }
        }
    }
}

impl Error for ScenarioError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScenarioError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for ScenarioError {
    fn from(value: XmlError) -> Self {
        ScenarioError::Xml(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        assert!(ScenarioError::from(XmlError::NoRootElement).source().is_some());
        assert!(!ScenarioError::schema("boom").to_string().is_empty());
        assert!(!ScenarioError::invalid_number("inject", "x").to_string().is_empty());
        let invalid = ScenarioError::InvalidProbability { value: f64::NAN };
        assert!(invalid.to_string().contains("[0, 1]"));
        assert!(invalid.source().is_none());
    }
}
