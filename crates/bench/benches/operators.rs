//! Micro-benchmarks (criterion-style, self-hosted harness) for the oblivious SELECT algorithms and
//! aggregation, at fixed size and selectivity.

use oblidb_bench::harness::{BenchmarkId, Criterion};
use oblidb_bench::{criterion_group, criterion_main};
use oblidb_core::SelectAlgo;
use oblidb_core::{Database, DbConfig, StorageMethod};
use oblidb_workloads::synthetic;

const N: usize = 4_096;

fn db() -> Database {
    let mut db = Database::new(DbConfig::default());
    let rows = synthetic::table(N, 8, 5);
    db.create_table_with_rows(
        "t",
        synthetic::schema(8),
        StorageMethod::Flat,
        None,
        &rows,
        N as u64,
    )
    .unwrap();
    db
}

fn bench_selects(c: &mut Criterion) {
    let mut group = c.benchmark_group("select_5pct");
    let sql = format!("SELECT * FROM t WHERE id < {}", N / 20);
    for algo in [
        SelectAlgo::Small,
        SelectAlgo::Large,
        SelectAlgo::Continuous,
        SelectAlgo::Hash,
        SelectAlgo::Naive,
    ] {
        group.bench_with_input(BenchmarkId::new("algo", format!("{algo:?}")), &algo, |b, &algo| {
            let mut db = db();
            db.config_mut().planner.force_select = Some(algo);
            b.iter(|| std::hint::black_box(db.execute(&sql).unwrap()));
        });
    }
    group.finish();
}

fn bench_aggregates(c: &mut Criterion) {
    let mut group = c.benchmark_group("aggregate");
    group.bench_function("fused_sum", |b| {
        let mut db = db();
        b.iter(|| db.execute("SELECT SUM(val) FROM t WHERE id < 2000").unwrap());
    });
    group.bench_function("group_by", |b| {
        let mut db = db();
        b.iter(|| db.execute("SELECT val, COUNT(*) FROM t GROUP BY val").unwrap());
    });
    group.finish();
}

/// The capacity-loop scan every operator is built from: per-block row
/// reads vs the batched streaming path, over an SGX-priced boundary.
fn bench_scan_batching(c: &mut Criterion) {
    use oblidb_core::table::FlatTable;
    use oblidb_core::types::Schema;
    use oblidb_crypto::aead::AeadKey;
    use oblidb_enclave::Host;

    let mut group = c.benchmark_group("scan_io (sgx-priced crossings)");
    let schema = synthetic::schema(8);
    let rows = synthetic::table(N, 8, 5);
    let encoded: Vec<Vec<u8>> = rows.iter().map(|r| schema.encode_row(r).unwrap()).collect();
    let mut host = Host::new();
    host.set_crossing_cost(250);
    let mut table =
        FlatTable::from_encoded_rows(&mut host, AeadKey([1u8; 32]), schema, &encoded, N as u64)
            .unwrap();
    group.bench_function("per_block", |b| {
        b.iter(|| {
            let mut used = 0u64;
            for i in 0..table.capacity() {
                let bytes = table.read_row(&mut host, i).unwrap();
                used += u64::from(Schema::row_used(&bytes));
            }
            std::hint::black_box(used);
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            let mut used = 0u64;
            table
                .for_each_row(&mut host, |_, bytes| used += u64::from(Schema::row_used(bytes)))
                .unwrap();
            std::hint::black_box(used);
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_selects, bench_aggregates, bench_scan_batching
}
criterion_main!(benches);
