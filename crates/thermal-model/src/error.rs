//! Error type for the thermal-model crate.

use crate::linalg::SingularMatrix;
use liquamod_microfluidics::MicrofluidicsError;
use std::fmt;

/// Error returned by model construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalModelError {
    /// The parameter set failed validation.
    InvalidParams {
        /// Human-readable list of violations.
        problems: Vec<String>,
    },
    /// The model was built with no channel columns.
    NoColumns,
    /// A width profile leaves the manufacturable range or the pitch.
    InvalidWidth {
        /// Column index with the offending profile.
        column: usize,
        /// Offending width in metres.
        width: f64,
    },
    /// The collocation system could not be factored (degenerate geometry).
    Singular(SingularMatrix),
    /// A fluid-side computation failed.
    Microfluidics(MicrofluidicsError),
    /// A solve option is out of range.
    InvalidOptions {
        /// Description of the offending option.
        what: String,
    },
    /// Width gradients were requested for a column whose profile is not
    /// uniform or piecewise constant.
    UnsupportedProfile {
        /// Column index with the piecewise-linear profile.
        column: usize,
    },
    /// A gradient or solution was read from a workspace that does not hold
    /// this model's last successful solve (a different model, a later solve,
    /// or a failed one).
    StaleWorkspace,
}

impl fmt::Display for ThermalModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalModelError::InvalidParams { problems } => {
                write!(f, "invalid model parameters: {}", problems.join("; "))
            }
            ThermalModelError::NoColumns => write!(f, "model needs at least one channel column"),
            ThermalModelError::InvalidWidth { column, width } => {
                write!(f, "column {column} has unusable channel width {width} m")
            }
            ThermalModelError::Singular(s) => write!(f, "collocation system is singular: {s}"),
            ThermalModelError::Microfluidics(e) => write!(f, "microfluidics failure: {e}"),
            ThermalModelError::InvalidOptions { what } => {
                write!(f, "invalid solve options: {what}")
            }
            ThermalModelError::UnsupportedProfile { column } => write!(
                f,
                "column {column} has a piecewise-linear width profile; width gradients \
                 need uniform or piecewise-constant profiles"
            ),
            ThermalModelError::StaleWorkspace => write!(
                f,
                "the solve workspace does not hold this model's last successful solve"
            ),
        }
    }
}

impl std::error::Error for ThermalModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ThermalModelError::Singular(s) => Some(s),
            ThermalModelError::Microfluidics(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SingularMatrix> for ThermalModelError {
    fn from(e: SingularMatrix) -> Self {
        ThermalModelError::Singular(e)
    }
}

impl From<MicrofluidicsError> for ThermalModelError {
    fn from(e: MicrofluidicsError) -> Self {
        ThermalModelError::Microfluidics(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ThermalModelError::NoColumns;
        assert!(e.to_string().contains("at least one"));
        let e = ThermalModelError::InvalidWidth {
            column: 3,
            width: 0.0,
        };
        assert!(e.to_string().contains("column 3"));
        let e = ThermalModelError::InvalidParams {
            problems: vec!["a".into(), "b".into()],
        };
        assert!(e.to_string().contains("a; b"));
    }

    #[test]
    fn source_chain() {
        use std::error::Error;
        let e = ThermalModelError::Singular(SingularMatrix { column: 2 });
        assert!(e.source().is_some());
        assert!(ThermalModelError::NoColumns.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ThermalModelError>();
    }
}
