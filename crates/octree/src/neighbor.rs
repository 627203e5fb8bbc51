//! Voxel-shell enumeration for VEG's voxel expansion (§VI).
//!
//! VEG grows the search region around a central voxel in *shells*: shell 1
//! is every voxel touching the seed (the grey voxels in Fig. 8), shell 2 the
//! next ring of touching voxels (green), and so on. On a regular grid at a
//! fixed octree level, shell `s` is exactly the set of voxels at Chebyshev
//! grid distance `s` from the seed. This module enumerates those codes,
//! clipped to the grid bounds — the standard octree neighbor-search
//! operation of Frisken & Perry the paper cites.

use hgpcn_geometry::MortonCode;

/// Enumerates the m-codes of all voxels at Chebyshev grid distance exactly
/// `shell` from `center`, at `center`'s level, clipped to the grid.
///
/// `shell == 0` yields just the center. Codes come out in deterministic
/// x-major scan order.
///
/// # Examples
///
/// ```
/// use hgpcn_geometry::MortonCode;
/// use hgpcn_octree::neighbor::shell_codes;
///
/// let center = MortonCode::from_grid_coords(2, 2, 2, 3);
/// assert_eq!(shell_codes(center, 0).len(), 1);
/// assert_eq!(shell_codes(center, 1).len(), 26); // 3^3 - 1 touching voxels
/// ```
pub fn shell_codes(center: MortonCode, shell: u32) -> Vec<MortonCode> {
    let level = center.level();
    if shell == 0 {
        return vec![center];
    }
    let side = 1i64 << level;
    let (cx, cy, cz) = center.grid_coords();
    let (cx, cy, cz) = (i64::from(cx), i64::from(cy), i64::from(cz));
    let s = i64::from(shell);
    let mut out = Vec::new();
    for dx in -s..=s {
        let x = cx + dx;
        if x < 0 || x >= side {
            continue;
        }
        for dy in -s..=s {
            let y = cy + dy;
            if y < 0 || y >= side {
                continue;
            }
            for dz in -s..=s {
                // Keep only the surface of the cube: at least one axis at
                // full offset `s`, otherwise the voxel belongs to an inner
                // shell already gathered.
                if dx.abs().max(dy.abs()).max(dz.abs()) != s {
                    continue;
                }
                let z = cz + dz;
                if z < 0 || z >= side {
                    continue;
                }
                out.push(MortonCode::from_grid_coords(
                    x as u32, y as u32, z as u32, level,
                ));
            }
        }
    }
    out
}

/// The largest shell index that can contain any voxel at `center`'s level
/// (after which expansion has swallowed the whole grid).
pub fn max_shell(center: MortonCode) -> u32 {
    let side = 1u32 << center.level();
    let (x, y, z) = center.grid_coords();
    let far = |c: u32| c.max(side - 1 - c);
    far(x).max(far(y)).max(far(z))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_shell_counts() {
        // An interior voxel far from all walls.
        let c = MortonCode::from_grid_coords(8, 8, 8, 5);
        assert_eq!(shell_codes(c, 0).len(), 1);
        assert_eq!(shell_codes(c, 1).len(), 26);
        assert_eq!(shell_codes(c, 2).len(), 98); // 5^3 - 3^3
        assert_eq!(shell_codes(c, 3).len(), 218); // 7^3 - 5^3
    }

    #[test]
    fn corner_voxel_is_clipped() {
        let c = MortonCode::from_grid_coords(0, 0, 0, 4);
        // Only the 7 neighbors inside the grid survive.
        assert_eq!(shell_codes(c, 1).len(), 7);
    }

    #[test]
    fn shells_have_right_distance() {
        let c = MortonCode::from_grid_coords(5, 6, 7, 4);
        for s in 0..4 {
            for v in shell_codes(c, s) {
                assert_eq!(c.chebyshev_distance(v), s);
            }
        }
    }

    #[test]
    fn shells_are_disjoint_and_cover_ball() {
        let c = MortonCode::from_grid_coords(4, 4, 4, 4);
        let ball: Vec<_> = (0..=3).flat_map(|s| shell_codes(c, s)).collect();
        let mut seen = std::collections::HashSet::new();
        for v in &ball {
            assert!(seen.insert(*v), "shells must not repeat voxels");
        }
        assert_eq!(ball.len(), 7 * 7 * 7); // full 7^3 cube fits in the grid
    }

    #[test]
    fn max_shell_reaches_whole_grid() {
        let c = MortonCode::from_grid_coords(0, 0, 0, 3);
        assert_eq!(max_shell(c), 7);
        let center = MortonCode::from_grid_coords(4, 4, 4, 3);
        assert_eq!(max_shell(center), 4);
        // Expanding to max_shell covers every voxel of the grid.
        let all: Vec<_> = (0..=max_shell(c)).flat_map(|s| shell_codes(c, s)).collect();
        assert_eq!(all.len(), 8 * 8 * 8);
    }

    #[test]
    fn level_zero_has_single_voxel() {
        let root = MortonCode::root();
        assert_eq!(shell_codes(root, 0), vec![root]);
        assert!(shell_codes(root, 1).is_empty());
        assert_eq!(max_shell(root), 0);
    }
}
