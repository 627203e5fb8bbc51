use std::fmt;

/// Which of the paper's four benchmark datasets a spec refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// ModelNet40 — single CAD objects, classification.
    ModelNet40,
    /// ShapeNet — single objects, part segmentation.
    ShapeNet,
    /// S3DIS — indoor scans, semantic segmentation.
    S3dis,
    /// KITTI — outdoor LiDAR, semantic segmentation.
    Kitti,
}

impl fmt::Display for DatasetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DatasetKind::ModelNet40 => "ModelNet40",
            DatasetKind::ShapeNet => "ShapeNet",
            DatasetKind::S3dis => "S3DIS",
            DatasetKind::Kitti => "KITTI",
        };
        f.write_str(s)
    }
}

/// The PointNet++ variant run on a benchmark (Table I's "PCN Model").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PcnTask {
    /// PointNet++(c): object classification.
    Classification,
    /// PointNet++(ps): object part segmentation.
    PartSegmentation,
    /// PointNet++(s): scene semantic segmentation.
    SemanticSegmentation,
}

impl fmt::Display for PcnTask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PcnTask::Classification => "Pointnet++(c)",
            PcnTask::PartSegmentation => "Pointnet++(ps)",
            PcnTask::SemanticSegmentation => "Pointnet++(s)",
        };
        f.write_str(s)
    }
}

/// One row of the paper's Table I.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Application name as printed in Table I.
    pub application: &'static str,
    /// Source dataset.
    pub dataset: DatasetKind,
    /// Input size fed to the PCN (points after down-sampling).
    pub input_size: usize,
    /// Typical raw frame size before down-sampling (order of magnitude from
    /// §III: ModelNet40/S3DIS ~1e5, KITTI ~1e6, ShapeNet < 4096).
    pub raw_points: usize,
    /// PCN variant.
    pub task: PcnTask,
}

/// The paper's Table I: the four benchmark configurations.
pub const TABLE_I: [BenchmarkSpec; 4] = [
    BenchmarkSpec {
        application: "Object Classification",
        dataset: DatasetKind::ModelNet40,
        input_size: 1024,
        raw_points: 100_000,
        task: PcnTask::Classification,
    },
    BenchmarkSpec {
        application: "Part Segmentation",
        dataset: DatasetKind::ShapeNet,
        input_size: 2048,
        raw_points: 3_000,
        task: PcnTask::PartSegmentation,
    },
    BenchmarkSpec {
        application: "Indoor Segmentation",
        dataset: DatasetKind::S3dis,
        input_size: 4096,
        raw_points: 150_000,
        task: PcnTask::SemanticSegmentation,
    },
    BenchmarkSpec {
        application: "Outdoor Segmentation",
        dataset: DatasetKind::Kitti,
        input_size: 16384,
        raw_points: 1_000_000,
        task: PcnTask::SemanticSegmentation,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    fn row(dataset: DatasetKind) -> BenchmarkSpec {
        *TABLE_I.iter().find(|s| s.dataset == dataset).unwrap()
    }

    #[test]
    fn table_matches_paper_sizes() {
        assert_eq!(row(DatasetKind::ModelNet40).input_size, 1024);
        assert_eq!(row(DatasetKind::ShapeNet).input_size, 2048);
        assert_eq!(row(DatasetKind::S3dis).input_size, 4096);
        assert_eq!(row(DatasetKind::Kitti).input_size, 16384);
    }

    #[test]
    fn shapenet_raw_is_below_4096() {
        // §VII-B: "for Shapenet, the raw data size is smaller than 4096".
        assert!(row(DatasetKind::ShapeNet).raw_points < 4096);
    }

    #[test]
    fn display_labels() {
        assert_eq!(DatasetKind::Kitti.to_string(), "KITTI");
        assert_eq!(PcnTask::Classification.to_string(), "Pointnet++(c)");
    }
}
