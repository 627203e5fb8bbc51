use std::error::Error;
use std::fmt;

use hgpcn_geometry::GeometryError;

/// Errors produced while building or querying an octree.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum OctreeError {
    /// The input frame was empty; an octree needs at least one point.
    EmptyCloud,
    /// The requested maximum depth exceeds what the 64-bit m-code supports.
    DepthTooLarge {
        /// Requested depth.
        requested: u8,
        /// Largest supported depth.
        max: u8,
    },
    /// The frame has more points than a `u32` index can name; the build's
    /// sort and node ranges index points by `u32`.
    TooManyPoints {
        /// Points in the frame.
        points: usize,
        /// Most points one octree holds.
        max: usize,
    },
    /// The input cloud failed geometric validation (e.g. NaN coordinates).
    InvalidGeometry(GeometryError),
    /// The coordinates are finite but the frame's root voxel is not: its
    /// margin or a corner overflows `f32` (coordinates about 1e19 apart),
    /// or a corner lies beyond `±f32::MAX / 2`, where halving the voxel
    /// could overflow.
    RootOverflow,
}

impl fmt::Display for OctreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OctreeError::EmptyCloud => write!(f, "cannot build an octree over an empty cloud"),
            OctreeError::DepthTooLarge { requested, max } => {
                write!(
                    f,
                    "octree depth {requested} exceeds supported maximum {max}"
                )
            }
            OctreeError::TooManyPoints { points, max } => {
                write!(
                    f,
                    "a frame of {points} points exceeds the octree limit of {max}"
                )
            }
            OctreeError::InvalidGeometry(e) => write!(f, "invalid input geometry: {e}"),
            OctreeError::RootOverflow => write!(
                f,
                "the frame's root voxel overflows f32: coordinates too far apart or too large"
            ),
        }
    }
}

impl Error for OctreeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OctreeError::InvalidGeometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GeometryError> for OctreeError {
    fn from(e: GeometryError) -> Self {
        OctreeError::InvalidGeometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty_and_source() {
        let e = OctreeError::InvalidGeometry(GeometryError::EmptyCloud);
        assert!(!e.to_string().is_empty());
        assert!(Error::source(&e).is_some());
        assert!(Error::source(&OctreeError::EmptyCloud).is_none());
    }
}
