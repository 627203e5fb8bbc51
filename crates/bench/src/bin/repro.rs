//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [table1|fig3|fig9|fig10|fig11|fig12|fig13|fig14|fig15|fig16|e2e|ablations|all] [--seed N]
//! ```
//!
//! With no argument, runs everything. Output is plain text, one section
//! per figure, with the paper's reported range quoted next to the
//! measured values (also recorded in `EXPERIMENTS.md`).

use hgpcn_bench::figures;
use hgpcn_gather::sorter;
use hgpcn_memsim::HostMemory;
use hgpcn_octree::{Octree, OctreeConfig, OctreeTable};
use hgpcn_sampling::{hw::DownsamplingUnit, ois};

fn parse_args() -> (Vec<String>, u64) {
    let mut sections = Vec::new();
    let mut seed = 42u64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--seed" {
            seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                eprintln!("--seed needs an integer");
                std::process::exit(2);
            });
        } else {
            sections.push(a);
        }
    }
    if sections.is_empty() || sections.iter().any(|s| s == "all") {
        sections = [
            "table1",
            "fig3",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
            "fig14",
            "fig15",
            "fig16",
            "e2e",
            "ablations",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }
    (sections, seed)
}

fn header(title: &str) {
    println!("\n=== {title} ===");
}

fn main() {
    let (sections, seed) = parse_args();
    // The OIS-vs-FPS rows feed three figures; compute them once.
    let needs_ois = sections
        .iter()
        .any(|s| matches!(s.as_str(), "fig9" | "fig10" | "fig11"));
    let ois_rows = if needs_ois {
        Some(figures::ois_vs_fps(seed))
    } else {
        None
    };
    let needs_inf = sections
        .iter()
        .any(|s| matches!(s.as_str(), "fig14" | "fig15" | "fig16"));
    let inf_rows = if needs_inf {
        Some(figures::inference_comparison(seed).expect("inference comparison failed"))
    } else {
        None
    };

    for section in &sections {
        match section.as_str() {
            "table1" => {
                header("Table I: evaluation benchmarks");
                println!(
                    "{:<24} {:<12} {:>10}  PCN Model",
                    "Application", "Dataset", "Input"
                );
                for r in figures::table1() {
                    println!(
                        "{:<24} {:<12} {:>10}  {}",
                        r.application, r.dataset, r.input_size, r.model
                    );
                }
            }
            "fig3" => {
                header("Fig. 3: end-to-end breakdown on CPU+GPU (FPS + PointNet++)");
                println!(
                    "{:<12} {:>14} {:>14} {:>10}",
                    "Dataset", "Pre-process", "Inference", "Pre %"
                );
                for r in figures::fig3(seed) {
                    println!(
                        "{:<12} {:>14} {:>14} {:>9.1}%",
                        r.dataset,
                        r.preprocess.to_string(),
                        r.inference.to_string(),
                        r.preprocess_fraction * 100.0
                    );
                }
                println!("(paper: pre-processing dominates every dataset it plots)");
            }
            "fig9" => {
                header("Fig. 9: memory-access saving of OIS vs FPS (paper: 1,700x-7,900x)");
                println!(
                    "{:<12} {:>9} {:>7} {:>16} {:>14} {:>10}  source",
                    "Frame", "N", "K", "FPS accesses", "OIS accesses", "Saving"
                );
                for r in ois_rows.as_ref().expect("computed") {
                    println!(
                        "{:<12} {:>9} {:>7} {:>16} {:>14} {:>9.0}x  {}",
                        r.label,
                        r.raw_points,
                        r.target,
                        r.fps_accesses,
                        r.ois_accesses,
                        r.access_saving,
                        if r.fps_executed {
                            "executed"
                        } else {
                            "closed-form"
                        }
                    );
                }
            }
            "fig10" => {
                header("Fig. 10: OIS latency speedup over FPS on CPU (paper: 800x-7,500x)");
                println!(
                    "{:<12} {:>14} {:>14} {:>10}",
                    "Frame", "FPS (CPU)", "OIS (CPU)", "Speedup"
                );
                for r in ois_rows.as_ref().expect("computed") {
                    println!(
                        "{:<12} {:>14} {:>14} {:>9.0}x",
                        r.label,
                        r.fps_latency.to_string(),
                        r.ois_latency.to_string(),
                        r.latency_speedup
                    );
                }
            }
            "fig11" => {
                header("Fig. 11: octree-build share of OIS-on-CPU (paper: 0.25-0.8)");
                println!(
                    "{:<12} {:>9} {:>12} {:>8}",
                    "Frame", "N", "Build frac", "Depth"
                );
                for r in ois_rows.as_ref().expect("computed") {
                    println!(
                        "{:<12} {:>9} {:>11.2} {:>8}",
                        r.label, r.raw_points, r.build_fraction, r.octree_depth
                    );
                }
            }
            "fig12" => {
                header("Fig. 12: Pre-processing Engine vs sampling baselines");
                println!(
                    "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
                    "Frame", "OIS-CPU", "OIS-HgPCN", "FPS(best)", "RS", "RS+reinf", "DSU HW x"
                );
                for r in figures::fig12(seed) {
                    println!(
                        "{:<12} {:>12} {:>12} {:>12} {:>12} {:>12} {:>7.2}x",
                        r.label,
                        r.ois_cpu.to_string(),
                        r.ois_hgpcn.to_string(),
                        r.fps_best.to_string(),
                        r.rs.to_string(),
                        r.rs_reinforce.to_string(),
                        r.dsu_hw_speedup
                    );
                }
                println!(
                    "(paper: OIS-on-HgPCN 1.2x-4.1x over OIS-on-CPU; HW DSU ~6x over CPU DSU)"
                );
            }
            "fig13" => {
                header("Fig. 13: on-chip memory, FPS vs OIS (paper: 12x-22x saving)");
                println!(
                    "{:<10} {:>14} {:>14} {:>8} {:>10} {:>10}",
                    "N", "FPS bits", "OIS bits", "Saving", "FPS fits?", "OIS fits?"
                );
                for r in figures::fig13(seed) {
                    println!(
                        "{:<10} {:>14} {:>14} {:>7.1}x {:>10} {:>10}",
                        r.raw_points, r.fps_bits, r.ois_bits, r.saving, r.fps_fits, r.ois_fits
                    );
                }
                println!("(Arria 10 GX 1150 budget: 65,000,000 bits)");
            }
            "fig14" => {
                header("Fig. 14: inference speedup of HgPCN over baselines");
                println!(
                    "{:<12} {:>8} {:>12} {:>10} {:>10} {:>10}",
                    "Task", "Input", "HgPCN", "vs PtACC", "vs Mesor", "vs Jetson"
                );
                for r in inf_rows.as_ref().expect("computed") {
                    println!(
                        "{:<12} {:>8} {:>12} {:>9.1}x {:>9.1}x {:>9.1}x",
                        r.task,
                        r.input_size,
                        r.hgpcn.to_string(),
                        r.speedup_vs_pointacc(),
                        r.speedup_vs_mesorasi(),
                        r.speedup_vs_jetson()
                    );
                }
                println!(
                    "(paper: 1.3-10.2x vs PointACC, 2.2-16.5x vs Mesorasi, 6.4-21x vs Jetson)"
                );
            }
            "fig15" => {
                header("Fig. 15: VEG sorted-workload reduction (grows with input size)");
                println!(
                    "{:<12} {:>8} {:>16} {:>14} {:>10}",
                    "Task", "Input", "Traditional", "VEG sorted", "Reduction"
                );
                for r in inf_rows.as_ref().expect("computed") {
                    println!(
                        "{:<12} {:>8} {:>16} {:>14} {:>9.1}x",
                        r.task,
                        r.input_size,
                        r.traditional_sorted,
                        r.veg_sorted,
                        r.veg_workload_reduction()
                    );
                }
            }
            "fig16" => {
                header("Fig. 16: DSU stage-cycle breakdown (FP/LV/VE/GP/ST/BF)");
                println!(
                    "{:<12} {:>6} {:>6} {:>6} {:>6} {:>6} {:>6}",
                    "Task", "FP", "LV", "VE", "GP", "ST", "BF"
                );
                for r in inf_rows.as_ref().expect("computed") {
                    let f = r.stage_fractions;
                    println!(
                        "{:<12} {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}% {:>5.1}%",
                        r.task,
                        f[0] * 100.0,
                        f[1] * 100.0,
                        f[2] * 100.0,
                        f[3] * 100.0,
                        f[4] * 100.0,
                        f[5] * 100.0
                    );
                }
                println!("(paper/§VIII: the final-shell sort dominates VEG's workload)");
            }
            "e2e" => {
                header("SVII-E: system-level real time on a KITTI-like stream");
                let report = figures::e2e_realtime(4, seed).expect("stream processing failed");
                println!("frames processed : {}", report.frames);
                println!("mean E2E latency : {}", report.mean_latency);
                println!("max  E2E latency : {}", report.max_latency);
                println!("serial FPS       : {:.1}", report.serial_fps);
                println!("pipelined FPS    : {:.1}", report.pipelined_fps);
                println!("sensor rate      : {:.1} FPS", report.sensor_fps);
                println!(
                    "meets real time  : {} (paper: 16 FPS vs <16 FPS generation)",
                    report.meets_realtime()
                );
            }
            "ablations" => {
                header("SVIII future-work ablations");
                println!("approximate OIS (MN-like frame, K=1024):");
                println!(
                    "  {:<12} {:>14} {:>12}",
                    "stop levels", "DSU latency", "coverage"
                );
                for r in figures::ablation_approx_ois(seed).expect("ablation failed") {
                    println!(
                        "  {:<12} {:>14} {:>12.4}",
                        if r.stop_levels == 0 {
                            "exact".to_owned()
                        } else {
                            r.stop_levels.to_string()
                        },
                        r.hw_latency.to_string(),
                        r.coverage
                    );
                }
                println!("semi-approximate VEG (S3DIS-like input, K=32, 256 centers):");
                println!(
                    "  {:<12} {:>14} {:>14} {:>8}",
                    "mode", "DSU latency", "sorted", "recall"
                );
                for r in figures::ablation_semi_veg(seed).expect("ablation failed") {
                    println!(
                        "  {:<12} {:>14} {:>14} {:>7.2}%",
                        r.mode,
                        r.dsu_latency.to_string(),
                        r.candidates_sorted,
                        r.mean_recall * 100.0
                    );
                }
                println!("Down-sampling Unit parallelism (30k-point golden cloud, K=1024):");
                println!("  {:<12} {:>14} {:>14}", "modules", "64 lanes", "256 lanes");
                let cloud = figures::golden_cloud(30_000, seed);
                let tree = Octree::build(&cloud, OctreeConfig::default()).expect("ablation failed");
                let table = OctreeTable::from_octree(&tree);
                let mut mem = HostMemory::from_cloud(tree.points());
                let counts = ois::sample(&tree, &table, &mut mem, 1024, seed)
                    .expect("ablation failed")
                    .counts;
                for modules in [1, 2, 4, 8, 16] {
                    let latency = |scoring_lanes| {
                        let unit = DownsamplingUnit {
                            modules,
                            scoring_lanes,
                            ..DownsamplingUnit::prototype()
                        };
                        unit.latency(&counts).to_string()
                    };
                    println!("  {:<12} {:>14} {:>14}", modules, latency(64), latency(256));
                }
                println!("DSU sort stage vs sorter width (256 candidates):");
                println!("  {:<12} {:>14}", "width", "cycles");
                for width in [4, 8, 16, 32, 64] {
                    println!("  {:<12} {:>14}", width, sorter::sort_cycles(256, width));
                }
                println!("bounded-queue view of SVII-E (2-frame queue):");
                let q = figures::e2e_queue(4, seed).expect("queue simulation failed");
                println!(
                    "  offered {} dropped {} | sojourn p50 {} p95 {} max {}",
                    q.offered, q.dropped, q.p50_sojourn, q.p95_sojourn, q.max_sojourn
                );
            }
            other => {
                eprintln!("unknown section: {other}");
                std::process::exit(2);
            }
        }
    }
}
