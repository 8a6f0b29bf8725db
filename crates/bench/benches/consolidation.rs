//! Microbenchmarks for the sorted-run consolidation primitives: the
//! loser-tree k-way merge (`dosscope_types::kway`) against the
//! two-pointer cascade the store used before the sorted-run layout —
//! each new batch merged pairwise into the full accumulated column,
//! which re-copies all previously ingested rows on every ingest and is
//! what made large sweeps superlinear. The end-to-end numbers come from
//! `dosbench` (see `BENCHMARK.json`); these isolate the merge mechanism.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use dosscope_types::merge_sorted;

/// Keys shaped like the store's merge keys: (start second, victim id).
type Key = (u64, u32);

/// `runs` disjointly-strided sorted runs of `len` keys each, covering the
/// same time span — the worst case for the old cascade (every merge
/// interleaves fully, no block copies survive).
fn strided_runs(runs: usize, len: usize) -> Vec<Vec<Key>> {
    (0..runs)
        .map(|r| {
            (0..len)
                .map(|i| ((i * runs + r) as u64 * 7, (i % 251) as u32))
                .collect()
        })
        .collect()
}

/// The pre-sorted-run behavior: fold each run into the accumulator with a
/// classic two-pointer merge. Re-copies the whole accumulator per run:
/// O(runs^2 * len) moves for O(runs * len) rows.
fn two_pointer_cascade(runs: &[Vec<Key>]) -> Vec<Key> {
    let mut acc: Vec<Key> = Vec::new();
    for run in runs {
        let mut merged = Vec::with_capacity(acc.len() + run.len());
        let (mut a, mut b) = (0usize, 0usize);
        while a < acc.len() && b < run.len() {
            if acc[a] <= run[b] {
                merged.push(acc[a]);
                a += 1;
            } else {
                merged.push(run[b]);
                b += 1;
            }
        }
        merged.extend_from_slice(&acc[a..]);
        merged.extend_from_slice(&run[b..]);
        acc = merged;
    }
    acc
}

fn bench_consolidation(c: &mut Criterion) {
    for (runs, len) in [(4usize, 20_000usize), (16, 5_000), (64, 1_250)] {
        let total = runs * len;
        let data = strided_runs(runs, len);
        let slices: Vec<&[Key]> = data.iter().map(Vec::as_slice).collect();

        // Equivalence guard: both merges must produce the same rows, or
        // the timings compare different work.
        assert_eq!(merge_sorted(&slices), two_pointer_cascade(&data));

        let name = format!("consolidate_{runs}x{len}");
        let mut g = c.benchmark_group(&name);
        g.throughput(Throughput::Elements(total as u64));
        g.bench_function("kway_loser_tree", |b| {
            b.iter(|| black_box(merge_sorted(black_box(&slices))))
        });
        g.bench_function("two_pointer_cascade", |b| {
            b.iter(|| black_box(two_pointer_cascade(black_box(&data))))
        });
        g.finish();
    }
}

criterion_group!(benches, bench_consolidation);
criterion_main!(benches);
