//! Interactive-scale version of the paper's §3 fault-propagation study:
//! inject each error type at each attention site of an *unprotected* block
//! and print how the corruption spreads (the Table 2 methodology).
//!
//! Run: `cargo run --release --example fault_injection_study`

use attn_fault::pattern::classify;
use attn_fault::FaultKind;
use attn_tensor::rng::TensorRng;
use attn_tensor::Matrix;
use attnchecker::attention::{
    AttentionWeights, AttnOp, FaultSite, ProtectedAttention, SectionToggles,
};
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use attnchecker::section::ForwardCtx;

fn forward(
    attn: &ProtectedAttention,
    x: &Matrix,
    inject: Option<(AttnOp, FaultKind)>,
) -> (Matrix, Matrix, Matrix) {
    let mut hook = move |site: FaultSite, m: &mut CheckedMatrix| {
        let Some((op, kind)) = inject else { return };
        if site.op == op && site.head.unwrap_or(0) == 0 {
            let old = m.get(2, 3);
            m.set(2, 3, kind.apply(old));
        }
    };
    let mut report = AbftReport::default();
    let mut ctx = ForwardCtx {
        mask: None,
        toggles: SectionToggles::none(),
        hook: inject.is_some().then_some(&mut hook as _),
        report: &mut report,
    };
    let out = attn.forward_ctx(x, &mut ctx);
    (
        out.cache.scores[0].clone(),
        out.cache.cl.clone(),
        out.output,
    )
}

fn main() {
    let mut rng = TensorRng::seed_from(11);
    let weights = AttentionWeights::random(32, 4, &mut rng);
    let attn = ProtectedAttention::new(weights, ProtectionConfig::off());
    let x = rng.normal_matrix(16, 32, 0.5);
    let (as_ref, cl_ref, o_ref) = forward(&attn, &x, None);

    println!("error propagation in an unprotected attention block");
    println!("(single fault at element (2,3) of the named matrix)\n");
    println!(
        "{:<10} {:<8} {:>8} {:>8} {:>8}",
        "inject at", "kind", "AS", "CL", "O"
    );
    println!("{}", "-".repeat(48));
    for op in [AttnOp::Q, AttnOp::K, AttnOp::V, AttnOp::AS, AttnOp::CL] {
        for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
            let (as_f, cl_f, o_f) = forward(&attn, &x, Some((op, kind)));
            println!(
                "{:<10} {:<8} {:>8} {:>8} {:>8}",
                op.label(),
                kind.glyph(),
                classify(&as_ref, &as_f, 1e-3).cell(),
                classify(&cl_ref, &cl_f, 1e-3).cell(),
                classify(&o_ref, &o_f, 1e-3).cell(),
            );
        }
    }
    println!("\nReading: 0D = single element, 1R/1C = one row/column, 2D = sub-matrix;");
    println!("∞/Θ/N/M = INF / NaN / near-INF / mixed. Compare with the paper's Table 2.");
}
