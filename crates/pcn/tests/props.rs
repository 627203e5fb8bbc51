//! Property tests for the PointNet++ building blocks.

use proptest::prelude::*;

use hgpcn_pcn::{Matrix, PointNetConfig};

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    /// Linear layers are linear: (a + b)W = aW + bW row-wise.
    #[test]
    fn linear_is_linear(a in arb_matrix(4, 6), b in arb_matrix(4, 6), w in arb_matrix(6, 3)) {
        let bias = vec![0.0; 3];
        let ya = a.linear(&w, &bias);
        let yb = b.linear(&w, &bias);
        // Build (a + b) manually.
        let mut sum = Matrix::zeros(4, 6);
        for r in 0..4 {
            for c in 0..6 {
                sum.row_mut(r)[c] = a.get(r, c) + b.get(r, c);
            }
        }
        let ysum = sum.linear(&w, &bias);
        for r in 0..4 {
            for c in 0..3 {
                let expect = ya.get(r, c) + yb.get(r, c);
                prop_assert!((ysum.get(r, c) - expect).abs() < 1e-2,
                    "({r},{c}): {} vs {}", ysum.get(r, c), expect);
            }
        }
    }

    /// Max-pool dominates every row and is idempotent.
    #[test]
    fn max_pool_properties(m in arb_matrix(8, 5)) {
        let p = m.max_pool();
        for r in 0..8 {
            for c in 0..5 {
                prop_assert!(p.get(0, c) >= m.get(r, c));
            }
        }
        // Some row attains each maximum.
        for c in 0..5 {
            prop_assert!((0..8).any(|r| m.get(r, c) == p.get(0, c)));
        }
        prop_assert_eq!(p.max_pool(), p);
    }

    /// ReLU is monotone and idempotent.
    #[test]
    fn relu_properties(m in arb_matrix(3, 7)) {
        let mut once = m.clone();
        once.relu();
        let mut twice = once.clone();
        twice.relu();
        prop_assert_eq!(&once, &twice);
        for r in 0..3 {
            for c in 0..7 {
                prop_assert!(once.get(r, c) >= 0.0);
                prop_assert!(once.get(r, c) >= m.get(r, c).min(0.0));
            }
        }
    }

    /// hcat shape algebra: each row is the left row, then the right one.
    #[test]
    fn concat_shapes(a in arb_matrix(5, 2), b in arb_matrix(5, 3)) {
        let h = a.hcat(&b);
        prop_assert_eq!(h.rows(), 5);
        prop_assert_eq!(h.cols(), 5);
        for r in 0..5 {
            prop_assert_eq!(&h.row(r)[..2], a.row(r));
            prop_assert_eq!(&h.row(r)[2..], b.row(r));
        }
    }

    /// The semantic-segmentation config scales its stage workloads
    /// linearly with the input size.
    #[test]
    fn workload_scales_with_input(scale in 1usize..8) {
        let small = PointNetConfig::semantic_segmentation(512);
        let big = PointNetConfig::semantic_segmentation(512 * scale);
        let ws = small.workload();
        let wb = big.workload();
        prop_assert_eq!(ws.len(), wb.len());
        for (a, b) in ws.iter().zip(&wb) {
            prop_assert_eq!(b.points, a.points * scale, "{}", a.name);
        }
        prop_assert_eq!(big.total_macs() % small.total_macs(), 0);
    }
}
