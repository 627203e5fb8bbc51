//! `quant_parity` — the int8-vs-f32 accuracy harness behind the
//! `quant-parity` CI gate.
//!
//! ```text
//! quant_parity [--calib N] [--eval N] [--points N] [--seed N]
//!              [--min-top1 F] [--max-logit-dev F] [--out PATH]
//! ```
//!
//! Builds a classification PointNet++, calibrates it over `--calib`
//! deterministic synthetic clouds (the post-training-quantization
//! workflow: observe activation ranges, freeze per-channel int8
//! weights), then evaluates `--eval` *held-out* clouds at both
//! precisions and reports:
//!
//! * **top-1 agreement** — the fraction of eval clouds whose int8
//!   logit argmax matches the f32 reference's;
//! * **max / mean logit deviation** — the largest and average absolute
//!   difference between int8 and f32 logits across every eval logit.
//!
//! Exit code 1 when agreement falls below `--min-top1` or the max
//! deviation exceeds `--max-logit-dev`; the committed CI floor lives in
//! `.github/workflows/ci.yml`.
//!
//! The verdict is **machine-independent**:
//! every number here is a deterministic function of the seed — the f32
//! kernels are bit-identical across backends by contract, quantization
//! is elementwise, and the i8 GEMM is exact integer arithmetic — so a
//! failure on any host reproduces on every host. The JSON lands at
//! `--out` (default `QUANT_parity.json`) for the artifact upload.

use hgpcn_geometry::{Point3, PointCloud};
use hgpcn_pcn::{BruteKnnGatherer, Calibrator, CenterPolicy, PointNet, PointNetConfig, Precision};

struct Args {
    calib: usize,
    eval: usize,
    points: usize,
    seed: u64,
    min_top1: f64,
    max_logit_dev: f64,
    out: String,
}

impl Default for Args {
    fn default() -> Args {
        Args {
            calib: 16,
            eval: 48,
            points: 1024,
            seed: 7,
            // Committed accuracy floor/bound — mirrored by the CI
            // invocation. Deterministic, so any breach is a real
            // accuracy regression, not noise.
            min_top1: 0.95,
            max_logit_dev: 0.05,
            out: "QUANT_parity.json".to_owned(),
        }
    }
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut next = |what: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                std::process::exit(2);
            })
        };
        let parse_usize = |s: String| {
            s.parse::<usize>().unwrap_or_else(|_| {
                eprintln!("not an integer: {s}");
                std::process::exit(2);
            })
        };
        let parse_f64 = |s: String| {
            s.parse::<f64>().unwrap_or_else(|_| {
                eprintln!("not a number: {s}");
                std::process::exit(2);
            })
        };
        match flag.as_str() {
            "--calib" => out.calib = parse_usize(next("a count")).max(1),
            "--eval" => out.eval = parse_usize(next("a count")).max(1),
            "--points" => out.points = parse_usize(next("a count")),
            "--seed" => out.seed = parse_usize(next("a seed")) as u64,
            "--min-top1" => out.min_top1 = parse_f64(next("a fraction")),
            "--max-logit-dev" => out.max_logit_dev = parse_f64(next("a bound")),
            "--out" => out.out = next("a path"),
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    out
}

/// Deterministic quasi-random cloud `c`: golden-ratio-style sequences
/// salted per cloud, so calibration and evaluation sets are disjoint
/// but drawn from the same distribution. Fractions in f64, cast last —
/// the ulp-collapse discipline every index-lattice generator follows.
fn cloud(c: usize, points: usize) -> PointCloud {
    (0..points)
        .map(|i| {
            let f = (i + c * 977) as f64;
            Point3::new(
                ((f * 0.618_033_988_749).fract() * 2.0) as f32,
                ((f * 0.414_213_562_373).fract() * 2.0) as f32,
                ((f * 0.732_050_807_568).fract() * 2.0) as f32,
            )
        })
        .collect()
}

fn main() {
    let args = parse_args();
    let net = PointNet::new(PointNetConfig::classification(), args.seed);

    // Calibrate over clouds 0..calib; evaluate over the next `eval`.
    let mut calibrator = Calibrator::new();
    for c in 0..args.calib {
        let mut gatherer = BruteKnnGatherer::new();
        calibrator
            .observe(
                &net,
                &cloud(c, args.points),
                &mut gatherer,
                CenterPolicy::Random { seed: c as u64 },
            )
            .expect("calibration pass succeeds");
    }
    let calibration = calibrator.finish().expect("clouds were observed");
    let net = net.with_int8(&calibration).expect("calibration matches");

    let mut agree = 0usize;
    let mut max_dev = 0.0f64;
    let mut dev_sum = 0.0f64;
    let mut dev_count = 0u64;
    for c in args.calib..args.calib + args.eval {
        let input = cloud(c, args.points);
        let policy = CenterPolicy::Random { seed: c as u64 };
        let mut g32 = BruteKnnGatherer::new();
        let f32_out = net
            .infer_with_precision(&input, &mut g32, policy, Precision::F32)
            .expect("f32 eval pass");
        let mut g8 = BruteKnnGatherer::new();
        let int8_out = net
            .infer_with_precision(&input, &mut g8, policy, Precision::Int8)
            .expect("int8 eval pass");
        if f32_out.predicted_class(0) == int8_out.predicted_class(0) {
            agree += 1;
        }
        for (a, b) in f32_out.logits.row(0).iter().zip(int8_out.logits.row(0)) {
            let d = f64::from((a - b).abs());
            max_dev = max_dev.max(d);
            dev_sum += d;
            dev_count += 1;
        }
    }
    let top1 = agree as f64 / args.eval as f64;
    let mean_dev = dev_sum / dev_count.max(1) as f64;

    let top1_ok = top1 >= args.min_top1;
    let dev_ok = max_dev <= args.max_logit_dev;
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"quant_parity\",\n",
            "  \"schema_version\": 1,\n",
            "  \"config\": {{\n",
            "    \"calib_clouds\": {},\n",
            "    \"eval_clouds\": {},\n",
            "    \"points\": {},\n",
            "    \"seed\": {}\n",
            "  }},\n",
            "  \"top1_agreement\": {:.6},\n",
            "  \"max_logit_dev\": {:.6},\n",
            "  \"mean_logit_dev\": {:.6},\n",
            "  \"min_top1\": {:.6},\n",
            "  \"max_logit_dev_bound\": {:.6},\n",
            "  \"pass\": {}\n",
            "}}\n"
        ),
        args.calib,
        args.eval,
        args.points,
        args.seed,
        top1,
        max_dev,
        mean_dev,
        args.min_top1,
        args.max_logit_dev,
        top1_ok && dev_ok,
    );
    std::fs::write(&args.out, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", args.out);
        std::process::exit(1);
    });

    println!(
        "quant_parity: {}/{} eval clouds agree on top-1 ({:.1}%), \
         logit deviation max {max_dev:.4} / mean {mean_dev:.4}  -> {}",
        agree,
        args.eval,
        top1 * 100.0,
        args.out
    );
    if !top1_ok {
        eprintln!(
            "FAIL top-1 agreement {top1:.4} below the committed floor {:.4}",
            args.min_top1
        );
    }
    if !dev_ok {
        eprintln!(
            "FAIL max logit deviation {max_dev:.4} above the committed bound {:.4}",
            args.max_logit_dev
        );
    }
    if !(top1_ok && dev_ok) {
        std::process::exit(1);
    }
    println!(
        "quant_parity: pass (floor {:.2}, bound {:.2})",
        args.min_top1, args.max_logit_dev
    );
}
