//! GPU machine constants.

/// Analytic model of one GPU.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuModel {
    /// Marketing name.
    pub name: &'static str,
    /// Streaming multiprocessors.
    pub sm_count: usize,
    /// Peak FP32 throughput in TFLOP/s (CUDA cores; TF32 tensor cores are
    /// modelled through `tensor_tflops`).
    pub fp32_tflops: f64,
    /// Peak tensor-core throughput in TFLOP/s (TF32, as used by training
    /// GEMMs).
    pub tensor_tflops: f64,
    /// Peak HBM bandwidth in GB/s.
    pub mem_bw_gbs: f64,
    /// Kernel launch latency in microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak GEMM throughput large training GEMMs sustain.
    pub gemm_efficiency: f64,
}

impl GpuModel {
    /// NVIDIA A100-SXM4-80GB — the paper's evaluation GPU. The 2 TB/s
    /// figure matches the "Peak Memory Bandwidth (A100): 2 TB/s" line drawn
    /// in the paper's Fig 9.
    pub fn a100_80gb() -> Self {
        Self {
            name: "A100-80GB",
            sm_count: 108,
            fp32_tflops: 19.5,
            tensor_tflops: 156.0,
            mem_bw_gbs: 2039.0,
            launch_overhead_us: 5.0,
            gemm_efficiency: 0.45,
        }
    }

    /// Seconds to move `bytes` at a given fraction of peak bandwidth.
    pub fn mem_time(&self, bytes: f64, utilization: f64) -> f64 {
        bytes / (self.mem_bw_gbs * 1e9 * utilization.clamp(1e-3, 1.0))
    }

    /// Seconds to execute `flops` of dense GEMM work on tensor cores.
    pub fn gemm_time(&self, flops: f64) -> f64 {
        flops / (self.tensor_tflops * 1e12 * self.gemm_efficiency)
    }

    /// Launch latency in seconds.
    pub fn launch(&self) -> f64 {
        self.launch_overhead_us * 1e-6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_constants() {
        let g = GpuModel::a100_80gb();
        assert_eq!(g.sm_count, 108);
        assert!((g.mem_bw_gbs - 2039.0).abs() < 1.0);
    }

    #[test]
    fn mem_time_scales_linearly() {
        let g = GpuModel::a100_80gb();
        let t1 = g.mem_time(1e9, 1.0);
        let t2 = g.mem_time(2e9, 1.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        // Half utilization doubles the time.
        assert!((g.mem_time(1e9, 0.5) / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn gemm_time_sane() {
        let g = GpuModel::a100_80gb();
        // 1 TFLOP at 45% of 156 TF/s ≈ 14 ms.
        let t = g.gemm_time(1e12);
        assert!(t > 0.01 && t < 0.02, "{t}");
    }
}
