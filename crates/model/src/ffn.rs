//! Position-wise feed-forward network: `Linear → GELU → Linear`, with an
//! ATTNChecker-guarded forward that protects both GEMMs end-to-end.
//!
//! The FFN is the section `S_FFN = {H·W_1, GELU(·)·W_2}` built on
//! [`GuardedSection`]: the block input is column-encoded once and its
//! checksums ride through the expansion GEMM to a detection point at the
//! pre-GELU activation; GELU is a nonlinearity, so the pipeline exits and
//! re-encodes (exactly like softmax in `S_CL`), and the contraction GEMM
//! gets its own delayed detection point. Corrections are refined to exact
//! bits by replaying the producing dot product, so a corrected step is
//! bit-identical to the fault-free step — rollback-free, end-to-end through
//! training.

use crate::linear::ProtectedLinear;
use crate::param::{Grads, HasParams, Param};
use crate::tape::FfnTape;
use attn_tensor::guard::{gelu_backward_checked, gelu_matrix_checked, gelu_matrix_checked_inplace};
use attn_tensor::rng::TensorRng;
use attn_tensor::{Matrix, OpGuard};
use attnchecker::attention::AttnOp;
use attnchecker::checked::CheckedMatrix;
use attnchecker::config::ProtectionConfig;
use attnchecker::report::SectionId;
use attnchecker::section::{ForwardCtx, GuardedSection};

/// Transformer FFN block (expansion factor configurable, 4× by default).
#[derive(Debug, Clone)]
pub struct FeedForward {
    /// Expansion projection (tap site [`AttnOp::Ffn1`]).
    pub lin1: ProtectedLinear,
    /// Contraction projection (tap site [`AttnOp::Ffn2`]).
    pub lin2: ProtectedLinear,
}

impl FeedForward {
    /// Build with the given inner width.
    pub fn new(name: &str, hidden: usize, inner: usize, rng: &mut TensorRng) -> Self {
        Self {
            lin1: ProtectedLinear::new(&format!("{name}.lin1"), hidden, inner, AttnOp::Ffn1, rng),
            lin2: ProtectedLinear::new(&format!("{name}.lin2"), inner, hidden, AttnOp::Ffn2, rng),
        }
    }

    /// Stateless forward with a guarded GELU: returns the output and the
    /// activation tape. The nonlinearity's output is screened element-wise
    /// and healed by exact recompute on violation (`OpGuard::off()` gives
    /// the plain forward). The GEMMs stay unprotected (that is
    /// [`Self::forward_guarded_tape`]'s job).
    pub fn forward_tape_with(&self, x: &Matrix, g: &OpGuard) -> (Matrix, FfnTape) {
        let (pre, x_tape) = self.lin1.inner.forward_tape(x);
        let act = gelu_matrix_checked(&pre, g);
        let (y, act_tape) = self.lin2.inner.forward_tape(&act);
        (
            y,
            FfnTape {
                x: x_tape,
                pre,
                act: act_tape,
            },
        )
    }

    /// Stateless guarded forward: both GEMMs run inside one `S_FFN`
    /// section under `config`, gated by `ctx.toggles.s_ffn`, with fault
    /// taps at [`AttnOp::Ffn1`]/[`AttnOp::Ffn2`] and in-place
    /// (rollback-free) correction. Degrades to the exact unprotected GEMMs
    /// when the section is off; the GELU op guard stays on whenever
    /// `config` is not off, like every other op guard. The returned tape
    /// holds the healed activations, so backward proceeds exactly as
    /// fault-free.
    pub fn forward_guarded_tape(
        &self,
        x: &Matrix,
        config: &ProtectionConfig,
        ctx: &mut ForwardCtx<'_, '_>,
    ) -> (Matrix, FfnTape) {
        let sec = GuardedSection::begin(
            SectionId::FeedForward,
            config,
            ctx.toggles.s_ffn,
            ctx.report,
        );
        let op_guard = GuardedSection::guard_step(config);
        if !sec.active() && ctx.hook.is_none() {
            // No GEMM detection and no taps to fire: the inactive guarded
            // pipeline computes the identical bits but pays several
            // full-matrix copies (plain wraps + logical extractions), which
            // would tax the unprotected baseline every overhead experiment
            // divides by. GELU is still screened.
            let out = self.forward_tape_with(x, &op_guard);
            ctx.report.absorb_op_guard(op_guard.take_stats());
            return out;
        }
        // The block input enters S_FFN through the fused encode path of
        // `ProtectedLinear`: no standalone encode sweep over `x`.
        let xc = sec.operand(x);
        let (pre, x_tape) = self.lin1.forward_guarded_tape(&xc, &sec, ctx);
        // GELU is nonlinear: exit the checksummed region; the result's
        // re-encoding rides inside the contraction GEMM's packing pass.
        // The nonlinearity itself is covered by the element-wise op
        // guard (bounds screen + exact recompute from the healed `pre`).
        let act = CheckedMatrix::from_plain_owned(sec.exit_cols(&pre, |m| {
            gelu_matrix_checked_inplace(m, &op_guard);
        }));
        let (y, act_tape) = self.lin2.forward_guarded_tape(&act, &sec, ctx);
        ctx.report.absorb_op_guard(op_guard.take_stats());
        (
            y.logical(),
            FfnTape {
                x: x_tape,
                pre: pre.logical(),
                act: act_tape,
            },
        )
    }

    /// Stateless backward over a tape; returns `dx`.
    pub fn backward_tape(&self, dy: &Matrix, tape: &FfnTape, grads: &mut Grads) -> Matrix {
        self.backward_tape_checked(dy, tape, grads, &OpGuard::off())
    }

    /// Stateless backward with a guarded GELU derivative; see
    /// [`attn_tensor::guard::verify_gelu_backward`].
    pub fn backward_tape_checked(
        &self,
        dy: &Matrix,
        tape: &FfnTape,
        grads: &mut Grads,
        g: &OpGuard,
    ) -> Matrix {
        let dact = self.lin2.backward_tape(dy, &tape.act, grads);
        let dpre = gelu_backward_checked(&tape.pre, &dact, g);
        self.lin1.backward_tape(&dpre, &tape.x, grads)
    }
}

impl HasParams for FeedForward {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.lin1.visit_params(f);
        self.lin2.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use attn_fault::FaultKind;
    use attnchecker::attention::{FaultSite, SectionToggles};
    use attnchecker::checked::CheckedMatrix;
    use attnchecker::report::AbftReport;

    /// Plain (unguarded) forward output.
    fn plain(f: &FeedForward, x: &Matrix) -> Matrix {
        f.forward_tape_with(x, &OpGuard::off()).0
    }

    /// Scalar loss `Σ(y ⊙ dy)` of a plain forward over `x`.
    fn loss(f: &FeedForward, x: &Matrix, dy: &Matrix) -> f32 {
        let y = plain(f, x);
        y.data().iter().zip(dy.data()).map(|(&a, &b)| a * b).sum()
    }

    /// Plain forward + backward: `(dx, parameter gradients)`.
    fn grads_of(f: &FeedForward, x: &Matrix, dy: &Matrix) -> (Matrix, Grads) {
        let (_, tape) = f.forward_tape_with(x, &OpGuard::off());
        let mut grads = Grads::new();
        let dx = f.backward_tape(dy, &tape, &mut grads);
        (dx, grads)
    }

    #[test]
    fn shapes() {
        let mut rng = TensorRng::seed_from(1);
        let ffn = FeedForward::new("f", 8, 32, &mut rng);
        let x = rng.normal_matrix(5, 8, 1.0);
        let y = plain(&ffn, &x);
        assert_eq!((y.rows(), y.cols()), (5, 8));
    }

    #[test]
    fn gradient_check_dx() {
        let mut rng = TensorRng::seed_from(2);
        let ffn = FeedForward::new("f", 4, 8, &mut rng);
        let x = rng.normal_matrix(2, 4, 1.0);
        let dy = rng.normal_matrix(2, 4, 1.0);
        let (dx, _) = grads_of(&ffn, &x, &dy);

        let eps = 1e-2;
        for r in 0..2 {
            for c in 0..4 {
                let mut xp = x.clone();
                xp[(r, c)] += eps;
                let mut xm = x.clone();
                xm[(r, c)] -= eps;
                let fd = (loss(&ffn, &xp, &dy) - loss(&ffn, &xm, &dy)) / (2.0 * eps);
                assert!(
                    (fd - dx[(r, c)]).abs() < 3e-2,
                    "dx ({r},{c}): fd {fd} vs {}",
                    dx[(r, c)]
                );
            }
        }
    }

    #[test]
    fn gradient_check_weights() {
        let mut rng = TensorRng::seed_from(3);
        let ffn = FeedForward::new("f", 3, 6, &mut rng);
        let x = rng.normal_matrix(2, 3, 1.0);
        let dy = rng.normal_matrix(2, 3, 1.0);
        let (_, grads) = grads_of(&ffn, &x, &dy);
        let dw1 = grads.get("f.lin1.w").expect("dW1");

        let eps = 1e-2;
        for r in 0..3 {
            for c in 0..6 {
                let mut fp = ffn.clone();
                fp.lin1.inner.w.value[(r, c)] += eps;
                let mut fm = ffn.clone();
                fm.lin1.inner.w.value[(r, c)] -= eps;
                let fd = (loss(&fp, &x, &dy) - loss(&fm, &x, &dy)) / (2.0 * eps);
                assert!((fd - dw1[(r, c)]).abs() < 3e-2, "dW1 ({r},{c})");
            }
        }
    }

    #[test]
    fn param_count() {
        let mut rng = TensorRng::seed_from(4);
        let mut ffn = FeedForward::new("f", 4, 16, &mut rng);
        // 4×16 + 16 + 16×4 + 4 = 148
        assert_eq!(ffn.param_count(), 148);
    }

    /// Guarded forward with only `S_FFN` gated by `s_ffn`: `(output, tape,
    /// report)`.
    fn guarded(
        ffn: &FeedForward,
        x: &Matrix,
        config: &ProtectionConfig,
        s_ffn: bool,
        hook: Option<attnchecker::attention::FaultHook<'_>>,
    ) -> (Matrix, FfnTape, AbftReport) {
        let mut report = AbftReport::default();
        let (out, tape) = {
            let mut ctx = ForwardCtx {
                mask: None,
                toggles: SectionToggles {
                    s_ffn,
                    ..SectionToggles::none()
                },
                hook,
                report: &mut report,
            };
            ffn.forward_guarded_tape(x, config, &mut ctx)
        };
        (out, tape, report)
    }

    #[test]
    fn guarded_fault_free_is_bit_identical_to_unprotected() {
        let mut rng = TensorRng::seed_from(5);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let want = plain(&ffn, &x);
        for s_ffn in [false, true] {
            let (y, _, report) = guarded(&ffn, &x, &ProtectionConfig::full(), s_ffn, None);
            assert_eq!(y, want, "s_ffn={s_ffn}");
            assert!(report.is_quiet());
            assert_eq!(report.sections_checked, usize::from(s_ffn));
        }
    }

    #[test]
    fn gelu_is_screened_when_the_ffn_section_is_gated_off() {
        // A gated-off S_FFN skips GEMM detection, not the GELU op guard:
        // like the softmax, LayerNorm and residual guards it stays on
        // whenever the config is not off.
        let mut rng = TensorRng::seed_from(8);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let (y, _, report) = guarded(&ffn, &x, &ProtectionConfig::full(), false, None);
        assert_eq!(y, plain(&ffn, &x), "screening must not change bits");
        assert_eq!(report.sections_checked, 0);
        assert!(report.op_checks > 0, "GELU was not screened: {report}");
        assert!(report.is_quiet());
        // An off config runs no op guard at all.
        let (_, _, off) = guarded(&ffn, &x, &ProtectionConfig::off(), false, None);
        assert_eq!(off.op_checks, 0);
    }

    #[test]
    fn both_gemm_sites_are_corrected_in_place() {
        let mut rng = TensorRng::seed_from(6);
        let ffn = FeedForward::new("f", 6, 24, &mut rng);
        let x = rng.normal_matrix(5, 6, 1.0);
        let want = plain(&ffn, &x);
        for op in AttnOp::FFN {
            for kind in [FaultKind::Inf, FaultKind::NaN, FaultKind::NearInf] {
                let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
                    if site.op == op {
                        let (r, c) = (m.rows() / 2, m.cols() / 3);
                        let old = m.get(r, c);
                        m.set(r, c, kind.apply(old));
                    }
                };
                let (y, _, report) =
                    guarded(&ffn, &x, &ProtectionConfig::full(), true, Some(&mut hook));
                assert_eq!(y, want, "{op:?}/{kind:?}: must restore exact bits");
                assert!(report.correction_count() > 0, "{op:?}/{kind:?}");
                assert_eq!(report.unrecovered, 0, "{op:?}/{kind:?}");
                assert!(report
                    .corrections
                    .iter()
                    .all(|c| c.section == SectionId::FeedForward));
            }
        }
    }

    #[test]
    fn cached_activations_are_healed_for_backward() {
        let mut rng = TensorRng::seed_from(7);
        let ffn = FeedForward::new("f", 4, 16, &mut rng);
        let x = rng.normal_matrix(3, 4, 1.0);
        let dy = rng.normal_matrix(3, 4, 1.0);

        let (_, clean_tape, _) = guarded(&ffn, &x, &ProtectionConfig::full(), true, None);
        let mut clean = Grads::new();
        let dx_clean = ffn.backward_tape(&dy, &clean_tape, &mut clean);

        let mut hook = |site: FaultSite, m: &mut CheckedMatrix| {
            if site.op == AttnOp::Ffn1 {
                m.set(1, 5, f32::INFINITY);
            }
        };
        let (_, faulty_tape, report) =
            guarded(&ffn, &x, &ProtectionConfig::full(), true, Some(&mut hook));
        assert!(report.correction_count() > 0);
        let mut faulty = Grads::new();
        let dx_faulty = ffn.backward_tape(&dy, &faulty_tape, &mut faulty);
        assert_eq!(dx_clean, dx_faulty, "backward must see healed activations");
        assert_eq!(clean.get("f.lin1.w"), faulty.get("f.lin1.w"));
    }
}
