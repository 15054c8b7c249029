//! Microbenchmarks: virtual-cluster runtime overhead — scheduler hand-offs
//! and message round trips on the discrete-event executor. These bound how
//! much simulated-protocol activity a real second of host CPU can carry.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pts_vcluster::topology::homogeneous;
use pts_vcluster::VirtualTaskCluster;

fn bench_vcluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("vcluster");
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.sample_size(20);

    group.bench_function("compute_handoffs_2tasks_1000", |b| {
        b.iter_batched(
            || {
                let mut vt: VirtualTaskCluster<()> = VirtualTaskCluster::new(homogeneous(2));
                for m in 0..2 {
                    vt.spawn(m, |ctx| async move {
                        for _ in 0..500 {
                            ctx.compute(1.0).await;
                        }
                    });
                }
                vt
            },
            |vt| std::hint::black_box(vt.run().end_time),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("pingpong_500_roundtrips", |b| {
        b.iter_batched(
            || {
                let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(2));
                // Task ids follow spawn order: 0 then 1.
                vt.spawn(0, |ctx| async move {
                    for i in 0..500u32 {
                        ctx.send(1, i);
                        let _ = ctx.recv().await;
                    }
                });
                vt.spawn(1, |ctx| async move {
                    for _ in 0..500 {
                        let v = ctx.recv().await;
                        ctx.send(0, v);
                    }
                });
                vt
            },
            |vt| std::hint::black_box(vt.run().total_messages()),
            BatchSize::SmallInput,
        )
    });

    group.bench_function("fanin_12tasks", |b| {
        b.iter_batched(
            || {
                let mut vt: VirtualTaskCluster<u32> = VirtualTaskCluster::new(homogeneous(12));
                vt.spawn(0, |ctx| async move {
                    for _ in 0..11 * 20 {
                        let _ = ctx.recv().await;
                    }
                });
                for w in 1..12 {
                    vt.spawn(w, move |ctx| async move {
                        for i in 0..20u32 {
                            ctx.compute(0.5 + w as f64 * 0.1).await;
                            ctx.send(0, i);
                        }
                    });
                }
                vt
            },
            |vt| std::hint::black_box(vt.run().end_time),
            BatchSize::SmallInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_vcluster);
criterion_main!(benches);
