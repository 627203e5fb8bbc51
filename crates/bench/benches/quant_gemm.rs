//! GMAC/s of the int8 GEMM backends against every f32 matmul backend
//! over the workload's characteristic shapes, so the int8-vs-f32
//! speedup claims in `crates/bench/README.md` are reproducible
//! locally:
//!
//! ```bash
//! cargo bench -p hgpcn-bench --features simd --bench quant_gemm
//! ```
//!
//! One group per matrix shape (the same group/batched/sparse/head/
//! ingest sweep as `kernel_matmul`), one benchmark per backend: the f32
//! [`LinearKernel`]s plus the [`Int8Kernel`]s running a calibrated
//! [`QuantLayer`]. Throughput is MACs, so `elem/s × 1e-9` reads
//! directly as GMAC/s. The int8 timings deliberately include the
//! per-layer activation quantization — that is what the serving path
//! pays per layer — so the comparison is end-to-end honest, not an
//! inner-loop flex.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use hgpcn_bench::dense_matrix as dense;
use hgpcn_pcn::{Int8Kernel, LinearKernel, Matrix, QuantLayer};

/// Like [`dense`] but with roughly half the entries exactly zero — the
/// sparsity a post-ReLU activation stream actually shows the kernels'
/// zero-skip (quantized zeros skip in the int8 backends too).
fn half_sparse(rows: usize, cols: usize, phase: f32) -> Matrix {
    Matrix::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|i| {
                let v = ((i as f32 * 0.7311 + phase).sin() * 1.7) - 0.31;
                if v < 0.0 {
                    0.0
                } else if v == 0.0 {
                    0.125
                } else {
                    v
                }
            })
            .collect(),
    )
}

fn bench_quant_gemm(c: &mut Criterion) {
    let shapes: &[(&str, usize, usize, usize, bool)] = &[
        ("group_32x131x128", 32, 131, 128, false),
        ("batched_4096x131x128", 4096, 131, 128, false),
        ("batched_sparse_4096x131x128", 4096, 131, 128, true),
        ("head_512x128x13", 512, 128, 13, false),
        ("ingest_1024x3x64", 1024, 3, 64, false),
    ];
    for &(name, rows, ins, outs, sparse) in shapes {
        let x = if sparse {
            half_sparse(rows, ins, 0.0)
        } else {
            dense(rows, ins, 0.0)
        };
        let w = dense(ins, outs, 1.0);
        let bias: Vec<f32> = (0..outs).map(|j| j as f32 * 0.01 - 0.2).collect();
        // Calibrate the quantized layer against the workload's actual
        // activation range, as the serving calibrator would.
        let amax = (0..rows)
            .flat_map(|r| x.row(r).iter().copied())
            .fold(0.0f32, |a, v| a.max(v.abs()));
        let layer = QuantLayer::quantize(&w, &bias, amax);
        let mut group = c.benchmark_group(format!("quant_gemm/{name}"));
        group.sample_size(10);
        // One element = one multiply-accumulate.
        group.throughput(Throughput::Elements((rows * ins * outs) as u64));
        for kernel in LinearKernel::all() {
            if !kernel.is_supported() {
                continue;
            }
            group.bench_function(
                BenchmarkId::new(format!("f32-{}", kernel.name()), rows),
                |b| {
                    b.iter(|| kernel.apply(&x, &w, &bias, true));
                },
            );
        }
        for kernel in Int8Kernel::all() {
            if !kernel.is_supported() {
                continue;
            }
            group.bench_function(BenchmarkId::new(kernel.name(), rows), |b| {
                b.iter(|| layer.forward_with(*kernel, &x, true));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_quant_gemm);
criterion_main!(benches);
