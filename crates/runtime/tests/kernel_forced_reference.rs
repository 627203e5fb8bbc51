//! A network pinned to the reference scalar kernel (the non-AVX2
//! fallback of last resort) serves the whole runtime, and the served
//! results are bit-identical to the blocked backend's and to the
//! default selection's — a kernel pin changes host speed, never answers.

use hgpcn_pcn::{kernel, LinearKernel, PointNet, PointNetConfig};
use hgpcn_runtime::{
    ArrivalModel, Runtime, RuntimeConfig, RuntimeReport, StreamSpec, SyntheticSource,
};

fn fleet() -> Vec<StreamSpec> {
    (0..3)
        .map(|i| {
            StreamSpec::new(
                format!("s{i}"),
                SyntheticSource::new(1500 + 90 * i, 10.0, 2, i as u64),
            )
        })
        .collect()
}

fn serve(net: &PointNet) -> RuntimeReport {
    let config = RuntimeConfig::default()
        .preproc_workers(1)
        .inference_workers(1)
        .target_points(512)
        .arrival(ArrivalModel::Backlogged)
        .max_batch(4);
    let report = Runtime::new(config)
        .expect("valid config")
        .run(fleet(), net)
        .expect("backend serves");
    assert_eq!(report.total_frames, 6);
    assert_eq!(report.kernel_backend, net.kernel().name());
    report
}

#[test]
fn pinned_reference_serves_identically() {
    let net = || PointNet::new(PointNetConfig::semantic_segmentation(512), 5);
    let reference = net().with_kernel(LinearKernel::Reference);
    assert_eq!(reference.kernel().name(), "reference");
    let report = serve(&reference);

    // Same fleet on the blocked kernel and on the default selection
    // (AVX2 when compiled and detected, blocked otherwise): every
    // frame's modeled results must be bit-identical — backends only move
    // wall time.
    let default = net();
    assert_eq!(default.kernel(), kernel::fastest_supported());
    for other in [net().with_kernel(LinearKernel::Blocked), default] {
        let other_report = serve(&other);
        for (a, b) in report.records.iter().zip(&other_report.records) {
            assert_eq!((a.stream_id, a.frame_index), (b.stream_id, b.frame_index));
            assert_eq!(a.modeled.inference.latency, b.modeled.inference.latency);
            assert_eq!(a.modeled.inference.counts, b.modeled.inference.counts);
        }
    }
}
