//! Batch-width equivalence: a batch of N through `PointNet::infer_batch`
//! must be **bit-identical** to N batches of one (`PointNet::infer`)
//! over the same clouds with the same gatherers and policies — logits,
//! executed MACs and gather counts alike. This is the contract that lets
//! the serving runtime coalesce frames without perturbing per-frame
//! determinism. The layer-at-a-time oracle both are checked against
//! lives in `network.rs`'s unit tests (it needs the private weights).

use proptest::prelude::*;

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{
    BruteKnnGatherer, CenterPolicy, Gatherer, IndexedGatherer, PointNet, PointNetConfig,
};

/// A well-spread, duplicate-free cloud: golden-ratio strides plus a
/// salt-derived offset (large multiplicative salts lose all precision
/// in `f32` and collapse to duplicate points, which degenerates the
/// gather structures and slows the tests badly).
fn cloud(n: usize, salt: u64) -> PointCloud {
    let off = (salt % 977) as f32 * 0.00093;
    (0..n)
        .map(|i| {
            let f = i as f32;
            Point3::new(
                (f * 0.618_034 + off).fract() * 2.0,
                (f * 0.414_214 + off * 2.0).fract() * 2.0,
                (f * 0.732_051 + off * 3.0).fract() * 2.0,
            )
        })
        .collect()
}

/// Runs `clouds` as batches of one and as one batch and asserts
/// bit-identical outputs.
fn assert_batch_matches_batches_of_one(
    net: &PointNet,
    clouds: &[PointCloud],
    policies: &[CenterPolicy],
) {
    let singles: Vec<_> = clouds
        .iter()
        .zip(policies)
        .map(|(c, &p)| {
            let mut g = BruteKnnGatherer::new();
            net.infer(c, &mut g, p).expect("batch of one")
        })
        .collect();

    let refs: Vec<&PointCloud> = clouds.iter().collect();
    let mut gs: Vec<BruteKnnGatherer> = clouds.iter().map(|_| BruteKnnGatherer::new()).collect();
    let mut grefs: Vec<&mut dyn Gatherer> = gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
    let batched = net
        .infer_batch(&refs, &mut grefs, policies)
        .expect("batched inference");

    assert_eq!(batched.len(), singles.len());
    for (bi, (b, s)) in batched.iter().zip(&singles).enumerate() {
        assert_eq!(
            b.logits, s.logits,
            "cloud {bi}: logits must be bit-identical"
        );
        assert_eq!(b.macs, s.macs, "cloud {bi}: executed MACs must agree");
        assert_eq!(
            b.gather_counts, s.gather_counts,
            "cloud {bi}: gather costs must agree"
        );
    }
}

#[test]
fn classification_batch_of_n_equals_batches_of_one() {
    let net = PointNet::new(PointNetConfig::classification(), 11);
    let clouds = [cloud(1024, 3), cloud(1200, 5), cloud(1024, 9)];
    let policies = [
        CenterPolicy::Random { seed: 1 },
        CenterPolicy::Random { seed: 2 },
        CenterPolicy::FirstN,
    ];
    assert_batch_matches_batches_of_one(&net, &clouds, &policies);
}

#[test]
fn segmentation_batch_of_n_equals_batches_of_one() {
    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 4);
    let clouds = [cloud(512, 7), cloud(640, 13)];
    let policies = [
        CenterPolicy::Random { seed: 21 },
        CenterPolicy::Random { seed: 22 },
    ];
    assert_batch_matches_batches_of_one(&net, &clouds, &policies);
}

#[test]
fn infer_equals_a_singleton_batch() {
    let net = PointNet::new(PointNetConfig::classification(), 2);
    let clouds = [cloud(1024, 17)];
    assert_batch_matches_batches_of_one(&net, &clouds, &[CenterPolicy::Random { seed: 5 }]);
}

#[test]
fn empty_batch_returns_empty() {
    let net = PointNet::new(PointNetConfig::classification(), 2);
    let outs = net.infer_batch(&[], &mut [], &[]).unwrap();
    assert!(outs.is_empty());
}

#[test]
fn indexed_gatherers_batch_of_n_equals_batches_of_one() {
    // The batched path composes with any Gatherer, including the
    // NeighborIndex-backed one.
    let net = PointNet::new(PointNetConfig::semantic_segmentation(512), 6);
    let clouds = [cloud(512, 19), cloud(550, 23)];
    let policies = [
        CenterPolicy::Random { seed: 31 },
        CenterPolicy::Random { seed: 32 },
    ];

    let singles: Vec<_> = clouds
        .iter()
        .zip(&policies)
        .map(|(c, &p)| {
            let mut g = IndexedGatherer::default();
            net.infer(c, &mut g, p).expect("batch of one")
        })
        .collect();

    let refs: Vec<&PointCloud> = clouds.iter().collect();
    let mut gs: Vec<IndexedGatherer> = clouds.iter().map(|_| IndexedGatherer::default()).collect();
    let mut grefs: Vec<&mut dyn Gatherer> = gs.iter_mut().map(|g| g as &mut dyn Gatherer).collect();
    let batched = net.infer_batch(&refs, &mut grefs, &policies).unwrap();

    for (b, s) in batched.iter().zip(&singles) {
        assert_eq!(b.logits, s.logits);
        assert_eq!(b.macs, s.macs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random cloud sizes, seeds and batch widths: B=N == B=1.
    #[test]
    fn random_batches_match_batches_of_one(
        sizes in prop::collection::vec(512usize..700, 1..4),
        seed in 0u64..1000,
    ) {
        let net = PointNet::new(PointNetConfig::semantic_segmentation(512), seed);
        let clouds: Vec<PointCloud> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| cloud(n, seed.wrapping_add(i as u64 * 13)))
            .collect();
        let policies: Vec<CenterPolicy> = (0..clouds.len())
            .map(|i| CenterPolicy::Random { seed: seed ^ i as u64 })
            .collect();
        assert_batch_matches_batches_of_one(&net, &clouds, &policies);
    }
}
