//! Crypto hot-path throughput: scalar vs. SIMD batch AEAD, recorded for
//! the perf trajectory.
//!
//! Measures `seal_batch`/`open_batch` and an end-to-end sealed-region scan
//! (`read_batch` through the storage stack) at the block sizes the engine
//! actually seals — 25/49/73-byte flat rows, 224/281-byte ORAM buckets —
//! beside the 1 KiB geometry, under each forced
//! [`oblidb_crypto::simd::Backend`] (scalar always, plus the detected best
//! when it differs), as MiB/s and ns per block. Emits `BENCH_crypto.json`
//! in the working directory; the scalar rows double as the recorded
//! fallback numbers for non-x86_64 targets.
//!
//! The `BENCH_crypto.json` already in the working directory is read first
//! as the **parent**: every row is reported beside the parent's row of the
//! same (op, backend, batch, block size). To compare two commits, run this
//! binary in the older checkout and carry its artifact over.
//!
//! Full mode (not `OBLIDB_BENCH_SMOKE`) on an AVX2 machine asserts that
//! small rows run at SIMD speed (`open` at 49 B × 256 ≥ 1.5× scalar) and
//! that the 1 KiB × 256 rows hold ≥ 0.95× the parent's; the 2× 1 KiB
//! target over scalar only warns, so the bench stays usable on hardware
//! without wide vectors.

use oblidb_bench::report::{read_crypto_json, write_crypto_json, CryptoThroughput, Report};
use oblidb_bench::timing::time_mean;
use oblidb_crypto::simd::{self, Backend};
use oblidb_crypto::{open_batch, seal_batch, AeadKey, Nonce, TAG_LEN};
use oblidb_enclave::Host;
use oblidb_storage::SealedRegion;

/// Payload bytes per sealed block and the batch sizes measured at each:
/// the flat-table rows of `bdb_scan`/`serve_mixed`/`durable_writes` (25,
/// 49, 73 B) and the ORAM buckets of `index_mix` (224, 281 B) at the
/// storage layer's 256-block run, and the historical 1 KiB geometry at a
/// lone block, a cache-warm run and a full run.
const GEOMETRIES: [(usize, &[usize]); 6] =
    [(25, &[256]), (49, &[256]), (73, &[256]), (224, &[256]), (281, &[256]), (1024, &[1, 16, 256])];

/// Iterations sized so each timed pass moves ~2 MiB (one call in smoke
/// mode); small blocks get at least 64 passes over the batch.
fn iters(total_bytes: usize) -> usize {
    if oblidb_bench::smoke_mode() {
        1
    } else {
        (2 * 1024 * 1024 / total_bytes).max(64)
    }
}

/// Mean seconds per call of `f`: the fastest of five timed passes (one in
/// smoke mode), so a scheduler hiccup in one pass does not set the row.
fn best_mean(total_bytes: usize, mut f: impl FnMut()) -> f64 {
    let passes = if oblidb_bench::smoke_mode() { 1 } else { 5 };
    (0..passes)
        .map(|_| time_mean(iters(total_bytes), &mut f).as_secs_f64())
        .fold(f64::INFINITY, f64::min)
}

fn mib_s(total_bytes: usize, mean_s: f64) -> f64 {
    total_bytes as f64 / mean_s.max(f64::MIN_POSITIVE) / (1024.0 * 1024.0)
}

/// Raw batch-AEAD seal and open throughput at one geometry under the
/// currently forced backend. Returns (seal MiB/s, open MiB/s).
fn aead_case(block_bytes: usize, batch: usize) -> (f64, f64) {
    let key = AeadKey([0x42u8; 32]);
    let nonces: Vec<Nonce> = (0..batch).map(|i| Nonce::from_parts(7, i as u64)).collect();
    let aads: Vec<[u8; 16]> = (0..batch).map(|i| [(i & 0xFF) as u8; 16]).collect();
    let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
    let mut data = vec![0xA5u8; batch * block_bytes];
    let mut tags = vec![[0u8; TAG_LEN]; batch];
    let total = batch * block_bytes;

    let seal_mean = best_mean(total, || {
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(block_bytes).collect();
        seal_batch(&key, &nonces, &aad_refs, &mut blocks, &mut tags);
        std::hint::black_box(&tags);
    });

    // Open needs valid ciphertext every iteration, so each pass restores
    // the sealed bytes first; the memcpy is noise next to the AEAD work.
    let sealed = data.clone();
    let open_mean = best_mean(total, || {
        data.copy_from_slice(&sealed);
        let mut blocks: Vec<&mut [u8]> = data.chunks_exact_mut(block_bytes).collect();
        open_batch(&key, &nonces, &aad_refs, &mut blocks, &tags).expect("tags were just sealed");
        std::hint::black_box(&data);
    });
    (mib_s(total, seal_mean), mib_s(total, open_mean))
}

/// End-to-end scan: `read_batch` of a whole sealed region through the
/// storage stack (host copy-out + batch open into the plaintext scratch).
fn scan_case(block_bytes: usize, blocks: usize) -> f64 {
    let mut host = Host::new();
    let mut region =
        SealedRegion::create(&mut host, AeadKey([9u8; 32]), blocks, block_bytes).unwrap();
    let payloads = vec![0x3Cu8; blocks * block_bytes];
    region.write_batch(&mut host, 0, &payloads).unwrap();
    let total = blocks * block_bytes;
    let mean = best_mean(total, || {
        std::hint::black_box(region.read_batch(&mut host, 0, blocks).unwrap());
    });
    mib_s(total, mean)
}

fn same_case(a: &CryptoThroughput, b: &CryptoThroughput) -> bool {
    a.op == b.op && a.batch_blocks == b.batch_blocks && a.block_bytes == b.block_bytes
}

fn main() {
    let detected = simd::detected();
    let mut backends = vec![Backend::Scalar];
    if detected != Backend::Scalar {
        backends.push(detected);
    }
    let parent = read_crypto_json(std::path::Path::new("BENCH_crypto.json"));

    let mut results: Vec<CryptoThroughput> = Vec::new();
    for &backend in &backends {
        simd::force(Some(backend));
        let mut row = |op: &str, block_bytes: usize, batch_blocks: usize, mib_s: f64| {
            results.push(CryptoThroughput {
                op: op.into(),
                backend: backend.label().into(),
                batch_blocks,
                block_bytes,
                mib_s,
                speedup_vs_scalar: 1.0, // filled below
                parent_mib_s: None,     // filled below
            });
        };
        for (block_bytes, batches) in GEOMETRIES {
            for &batch in batches {
                let (seal, open) = aead_case(block_bytes, batch);
                row("seal", block_bytes, batch, seal);
                row("open", block_bytes, batch, open);
            }
            row("region_scan", block_bytes, 256, scan_case(block_bytes, 256));
        }
    }
    simd::force(None);

    // Fill speedups relative to the scalar row of the same case, and the
    // parent artifact's row of the same case and backend.
    let scalar: Vec<CryptoThroughput> =
        results.iter().filter(|r| r.backend == "scalar").cloned().collect();
    for r in &mut results {
        if let Some(base) = scalar.iter().find(|s| same_case(s, r)) {
            r.speedup_vs_scalar = r.mib_s / base.mib_s.max(f64::MIN_POSITIVE);
        }
        r.parent_mib_s =
            parent.iter().find(|p| same_case(p, r) && p.backend == r.backend).map(|p| p.mib_s);
    }

    let mut report = Report::new(
        format!("Crypto hot path (detected backend: {})", detected.label()),
        &["op", "backend", "block B", "batch", "MiB/s", "ns/block", "vs scalar", "vs parent"],
    );
    for r in &results {
        report.row(&[
            r.op.clone(),
            r.backend.clone(),
            r.block_bytes.to_string(),
            r.batch_blocks.to_string(),
            format!("{:.1}", r.mib_s),
            format!("{:.1}", r.ns_per_block()),
            format!("{:.2}x", r.speedup_vs_scalar),
            r.vs_parent().map_or_else(|| "-".into(), |x| format!("{x:.2}x")),
        ]);
    }
    report.print();

    match write_crypto_json(std::path::Path::new("."), "crypto", detected.label(), &results) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_crypto.json: {e}"),
    }

    if detected != Backend::Avx2 || oblidb_bench::smoke_mode() {
        return;
    }
    let avx2_256 = |op: &str, block_bytes: usize| {
        results
            .iter()
            .find(|r| {
                r.backend == "avx2"
                    && r.op == op
                    && r.batch_blocks == 256
                    && r.block_bytes == block_bytes
            })
            .expect("every (op, block size) is measured at 256 blocks")
    };
    let mut failed = false;
    let small = avx2_256("open", 49);
    if small.speedup_vs_scalar < 1.5 {
        println!("FAIL: open@49B×256 is {:.2}x scalar — below 1.5x", small.speedup_vs_scalar);
        failed = true;
    }
    for op in ["seal", "open", "region_scan"] {
        let r = avx2_256(op, 1024);
        if r.speedup_vs_scalar < 2.0 {
            println!("WARNING: {op}@1KiB×256 is {:.2}x scalar — below 2x", r.speedup_vs_scalar);
        }
        if let Some(x) = r.vs_parent().filter(|&x| x < 0.95) {
            println!("FAIL: {op}@1KiB×256 is {x:.2}x the parent's row — below 0.95x");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
