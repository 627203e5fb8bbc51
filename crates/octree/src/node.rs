use std::fmt;
use std::ops::Range;

use hgpcn_geometry::{MortonCode, Octant};

/// Index of a node inside an [`crate::Octree`]'s node arena.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// The arena index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One voxel of the octree.
///
/// Every node — internal or leaf — records the half-open range of SFC
/// positions its points occupy. Because the frame is reorganized into SFC
/// order (§V-A), a voxel's points are always consecutive, which is the key
/// property that lets the Down-sampling Unit read sampled points straight
/// out of host memory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    pub(crate) code: MortonCode,
    pub(crate) range: Range<u32>,
    pub(crate) children: [Option<NodeId>; 8],
    pub(crate) is_leaf: bool,
}

impl Node {
    /// The node's m-code (encodes both position and level).
    #[inline]
    pub fn code(&self) -> MortonCode {
        self.code
    }

    /// Depth of this voxel below the root.
    #[inline]
    pub fn level(&self) -> u8 {
        self.code.level()
    }

    /// Half-open range of SFC positions (host-memory addresses, in units of
    /// points) covered by this voxel.
    #[inline]
    pub fn point_range(&self) -> Range<usize> {
        self.range.start as usize..self.range.end as usize
    }

    /// Number of points inside this voxel.
    #[inline]
    pub fn point_count(&self) -> usize {
        (self.range.end - self.range.start) as usize
    }

    /// Returns `true` for leaf voxels (no children were created).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.is_leaf
    }

    /// The child in `octant`, if that sub-voxel is non-empty.
    #[inline]
    pub fn child(&self, octant: Octant) -> Option<NodeId> {
        self.children[octant.index() as usize]
    }

    /// Iterates over the non-empty children in SFC order.
    #[inline]
    pub fn children(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.children.iter().flatten().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(code: MortonCode, start: u32, end: u32) -> Node {
        Node {
            code,
            range: start..end,
            children: [None; 8],
            is_leaf: true,
        }
    }

    #[test]
    fn point_range_and_count() {
        let n = leaf(MortonCode::root(), 3, 9);
        assert_eq!(n.point_range(), 3..9);
        assert_eq!(n.point_count(), 6);
        assert!(n.is_leaf());
        assert_eq!(n.children().count(), 0);
    }

    #[test]
    fn children_iterates_in_sfc_order() {
        let mut n = leaf(MortonCode::root(), 0, 10);
        n.is_leaf = false;
        n.children[5] = Some(NodeId(2));
        n.children[1] = Some(NodeId(1));
        let kids: Vec<NodeId> = n.children().collect();
        assert_eq!(kids, vec![NodeId(1), NodeId(2)]);
        assert_eq!(n.children().count(), 2);
    }
}
