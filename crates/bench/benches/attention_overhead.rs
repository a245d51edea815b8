//! Criterion bench: protected vs unprotected attention forward
//! (the kernel-level view of Fig 7).

use attn_tensor::rng::TensorRng;
use attnchecker::attention::{AttentionWeights, ProtectedAttention, SectionToggles};
use attnchecker::config::ProtectionConfig;
use attnchecker::report::AbftReport;
use attnchecker::section::ForwardCtx;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention_forward");
    for &(seq, hidden, heads) in &[(32usize, 64usize, 4usize), (64, 128, 8)] {
        let mut rng = TensorRng::seed_from(1);
        let weights = AttentionWeights::random(hidden, heads, &mut rng);
        let x = rng.normal_matrix(seq, hidden, 0.5);
        let label = format!("s{seq}_h{hidden}");

        let off = ProtectedAttention::new(weights.clone(), ProtectionConfig::off());
        group.bench_with_input(BenchmarkId::new("original", &label), &x, |b, x| {
            b.iter(|| {
                let mut report = AbftReport::default();
                let mut ctx = ForwardCtx {
                    mask: None,
                    toggles: SectionToggles::none(),
                    hook: None,
                    report: &mut report,
                };
                black_box(off.forward_ctx(black_box(x), &mut ctx).output)
            })
        });

        let on = ProtectedAttention::new(weights.clone(), ProtectionConfig::full());
        group.bench_with_input(BenchmarkId::new("attnchecker", &label), &x, |b, x| {
            b.iter(|| {
                let mut report = AbftReport::default();
                let mut ctx = ForwardCtx {
                    mask: None,
                    toggles: SectionToggles::all(),
                    hook: None,
                    report: &mut report,
                };
                black_box(on.forward_ctx(black_box(x), &mut ctx).output)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_attention);
criterion_main!(benches);
