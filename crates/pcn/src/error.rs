use std::error::Error;
use std::fmt;

use hgpcn_gather::GatherError;

/// Errors produced by PointNet++ inference.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum PcnError {
    /// The input cloud is smaller than the first stage's center count.
    InputTooSmall {
        /// Points provided.
        points: usize,
        /// Minimum the configuration needs.
        needed: usize,
    },
    /// The input feature width does not match the configuration.
    FeatureWidth {
        /// Width provided.
        got: usize,
        /// Width expected.
        expected: usize,
    },
    /// Neighbor gathering failed.
    Gather(GatherError),
}

impl fmt::Display for PcnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PcnError::InputTooSmall { points, needed } => {
                write!(
                    f,
                    "input of {points} points is below the {needed} the network needs"
                )
            }
            PcnError::FeatureWidth { got, expected } => {
                write!(
                    f,
                    "input feature width {got} does not match the expected {expected}"
                )
            }
            PcnError::Gather(e) => write!(f, "neighbor gathering failed: {e}"),
        }
    }
}

impl Error for PcnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PcnError::Gather(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GatherError> for PcnError {
    fn from(e: GatherError) -> Self {
        PcnError::Gather(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = PcnError::Gather(GatherError::EmptyCloud);
        assert!(!e.to_string().is_empty());
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&PcnError::InputTooSmall {
            points: 1,
            needed: 2
        })
        .is_none());
    }
}
