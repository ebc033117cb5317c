//! SIMD/scalar equivalence: every [`oblidb_crypto::simd::Backend`] must
//! produce byte-identical keystream, ciphertext, and tags — across
//! lengths, buffer alignments, batch sizes, and AAD shapes. Dispatch is a
//! pure speed decision; these tests are what makes that claim load-bearing
//! (sealed regions written by an AVX2 host must open on a scalar one).
//!
//! Cases are generated from a seeded [`EnclaveRng`] (the workspace is
//! dependency-free, so no proptest).

use oblidb_crypto::aead::NONCE_LEN;
use oblidb_crypto::chacha::ChaCha20;
use oblidb_crypto::poly1305::Poly1305;
use oblidb_crypto::simd::{self, Backend};
use oblidb_crypto::{
    open, open_batch, open_run, seal, seal_batch, seal_run, AeadKey, Nonce, TAG_LEN,
};
use oblidb_enclave::EnclaveRng;

const BACKENDS: [Backend; 3] = [Backend::Scalar, Backend::Sse2, Backend::Avx2];

/// [`simd::force`] is process-global; tests that flip it must not overlap
/// (and must restore auto dispatch when done).
fn forced<T>(backend: Backend, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
    simd::force(Some(backend));
    let out = f();
    simd::force(None);
    out
}

#[test]
fn keystream_matches_scalar_at_every_length_and_alignment() {
    let mut rng = EnclaveRng::seed_from_u64(0x51_4D);
    let key: [u8; 32] = rng.random_bytes(32).try_into().unwrap();
    let nonce: [u8; 12] = rng.random_bytes(12).try_into().unwrap();
    let cipher = ChaCha20::new(&key, &nonce);

    // Lengths crossing every lane boundary (1/4/8 blocks), plus buffer
    // offsets 0..8 so the SIMD stores hit unaligned destinations.
    let lengths = [0usize, 1, 63, 64, 65, 127, 128, 255, 256, 257, 511, 512, 513, 1024, 1025, 4096];
    for len in lengths {
        for align in [0usize, 1, 3, 7] {
            let base = rng.random_bytes(len + align);
            let mut expected = base[align..].to_vec();
            forced(Backend::Scalar, || cipher.apply_keystream_multi(1, &mut expected));
            for backend in BACKENDS {
                let mut buf = base.clone();
                forced(backend, || cipher.apply_keystream_multi(1, &mut buf[align..]));
                assert_eq!(buf[align..], expected[..], "{backend:?} len {len} align {align}");
                assert_eq!(buf[..align], base[..align], "{backend:?} must not touch the prefix");
            }
        }
    }
}

#[test]
fn blocks4_matches_scalar_on_every_backend() {
    let cipher = ChaCha20::new(&[7u8; 32], &[3u8; 12]);
    for start in [0u32, 1, 999, u32::MAX - 1] {
        let mut expected = [0u8; 256];
        forced(Backend::Scalar, || cipher.blocks4(start, &mut expected));
        for backend in BACKENDS {
            let mut out = [0u8; 256];
            forced(backend, || cipher.blocks4(start, &mut out));
            assert_eq!(out, expected, "{backend:?} start {start}");
        }
    }
}

#[test]
fn seal_and_open_agree_across_backends() {
    let mut rng = EnclaveRng::seed_from_u64(0x5EA1);
    for case in 0..24 {
        let key = AeadKey(rng.random_bytes(32).try_into().unwrap());
        let nonce = Nonce::from_parts(rng.next_u64() as u32, rng.next_u64());
        let aad_len = rng.below(64) as usize;
        let aad = rng.random_bytes(aad_len);
        let payload_len = rng.below(1500) as usize;
        let payload = rng.random_bytes(payload_len);

        let mut expected_ct = payload.clone();
        let expected_tag = forced(Backend::Scalar, || seal(&key, &nonce, &aad, &mut expected_ct));
        for backend in BACKENDS {
            // Sealing under `backend` must yield scalar's exact bytes...
            let mut ct = payload.clone();
            let tag = forced(backend, || seal(&key, &nonce, &aad, &mut ct));
            assert_eq!(ct, expected_ct, "case {case} {backend:?} ciphertext");
            assert_eq!(tag, expected_tag, "case {case} {backend:?} tag");
            // ...and scalar-sealed bytes must open under `backend`.
            let mut back = expected_ct.clone();
            forced(backend, || open(&key, &nonce, &aad, &mut back, &expected_tag)).unwrap();
            assert_eq!(back, payload, "case {case} {backend:?} roundtrip");
        }
    }
}

#[test]
fn batch_seal_matches_scalar_per_block_at_every_batch_size() {
    let mut rng = EnclaveRng::seed_from_u64(0xBA7C);
    for batch in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33, 64] {
        let key = AeadKey(rng.random_bytes(32).try_into().unwrap());
        let nonces: Vec<Nonce> =
            (0..batch).map(|i| Nonce::from_parts(11, (i * 3) as u64)).collect();
        // AAD shapes: empty, short, and block-boundary lengths interleaved.
        let aads: Vec<Vec<u8>> =
            (0..batch).map(|i| rng.random_bytes([0, 5, 16, 17, 32][i % 5])).collect();
        let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
        // Equal-sized runs are the storage layer's shape; unequal blocks
        // exercise the general API.
        let block_len = |i: usize| if batch % 2 == 0 { 256 } else { 64 + i * 17 };
        let payloads: Vec<Vec<u8>> = (0..batch).map(|i| rng.random_bytes(block_len(i))).collect();

        // Reference: scalar, one block at a time through the single AEAD.
        let mut expected: Vec<Vec<u8>> = payloads.clone();
        let mut expected_tags = Vec::new();
        forced(Backend::Scalar, || {
            for i in 0..batch {
                expected_tags.push(seal(&key, &nonces[i], aad_refs[i], &mut expected[i]));
            }
        });

        for backend in BACKENDS {
            let mut bufs: Vec<Vec<u8>> = payloads.clone();
            let mut tags = vec![[0u8; TAG_LEN]; batch];
            forced(backend, || {
                let mut blocks: Vec<&mut [u8]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                seal_batch(&key, &nonces, &aad_refs, &mut blocks, &mut tags);
            });
            assert_eq!(bufs, expected, "batch {batch} {backend:?} ciphertexts");
            assert_eq!(tags, expected_tags, "batch {batch} {backend:?} tags");

            // The batch must open under every *other* backend too.
            let open_with = BACKENDS[(batch + 1) % BACKENDS.len()];
            let mut back = bufs.clone();
            forced(open_with, || {
                let mut blocks: Vec<&mut [u8]> =
                    back.iter_mut().map(|b| b.as_mut_slice()).collect();
                open_batch(&key, &nonces, &aad_refs, &mut blocks, &tags).unwrap();
            });
            assert_eq!(back, payloads, "batch {batch} {backend:?} -> {open_with:?} roundtrip");
        }
    }
}

#[test]
fn batch_tamper_attribution_is_backend_independent() {
    let mut rng = EnclaveRng::seed_from_u64(0x7A3B);
    let key = AeadKey([0x11u8; 32]);
    let batch = 9usize;
    let nonces: Vec<Nonce> = (0..batch).map(|i| Nonce::from_parts(2, i as u64)).collect();
    let aads: Vec<Vec<u8>> = (0..batch).map(|i| vec![i as u8; 16]).collect();
    let aad_refs: Vec<&[u8]> = aads.iter().map(|a| a.as_slice()).collect();
    let payloads: Vec<Vec<u8>> = (0..batch).map(|_| rng.random_bytes(200)).collect();

    let mut sealed: Vec<Vec<u8>> = payloads.clone();
    let mut tags = vec![[0u8; TAG_LEN]; batch];
    {
        let mut blocks: Vec<&mut [u8]> = sealed.iter_mut().map(|b| b.as_mut_slice()).collect();
        seal_batch(&key, &nonces, &aad_refs, &mut blocks, &mut tags);
    }

    for victim in [0usize, 4, 8] {
        for backend in BACKENDS {
            let mut bufs = sealed.clone();
            bufs[victim][100] ^= 1;
            let err = forced(backend, || {
                let mut blocks: Vec<&mut [u8]> =
                    bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                open_batch(&key, &nonces, &aad_refs, &mut blocks, &tags).unwrap_err()
            });
            assert_eq!(err.index, victim, "{backend:?}");
            // Verify-before-decrypt: no block was touched on failure.
            assert_eq!(bufs, {
                let mut t = sealed.clone();
                t[victim][100] ^= 1;
                t
            });
        }
    }
}

/// An RFC 8439 §2.8 seal built from the scalar reference pieces only —
/// [`ChaCha20::block`], [`ChaCha20::apply_keystream`] and the incremental
/// [`Poly1305::update`] — sharing nothing with the lane schedule or the
/// AEAD's whole-block MAC feed. Returns (ciphertext, tag).
fn reference_seal(key: &AeadKey, nonce: &Nonce, aad: &[u8], plain: &[u8]) -> (Vec<u8>, [u8; 16]) {
    let cipher = ChaCha20::new(&key.0, &nonce.0);
    let mut block0 = [0u8; 64];
    cipher.block(0, &mut block0);
    let mut ct = plain.to_vec();
    cipher.apply_keystream(1, &mut ct);
    let mut mac = Poly1305::new(block0[..32].try_into().unwrap());
    for part in [aad, &ct[..]] {
        mac.update(part);
        mac.update(&[0u8; 16][..(16 - part.len() % 16) % 16]);
    }
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ct.len() as u64).to_le_bytes());
    (ct, mac.finish())
}

/// One run's inputs: per-block nonces, 16-byte AADs (the storage layer's
/// shape) and payloads.
struct Run {
    key: AeadKey,
    nonces: Vec<Nonce>,
    aads: Vec<[u8; 16]>,
    payloads: Vec<Vec<u8>>,
}

impl Run {
    fn random(rng: &mut EnclaveRng, lens: impl Iterator<Item = usize>) -> Self {
        let payloads: Vec<Vec<u8>> = lens.map(|len| rng.random_bytes(len)).collect();
        Run {
            key: AeadKey(rng.random_bytes(32).try_into().unwrap()),
            nonces: (0..payloads.len())
                .map(|i| Nonce::from_parts(rng.next_u64() as u32, 1 + 5 * i as u64))
                .collect(),
            aads: payloads.iter().map(|_| rng.random_bytes(16).try_into().unwrap()).collect(),
            payloads,
        }
    }

    fn count(&self) -> usize {
        self.payloads.len()
    }

    fn aad_refs(&self) -> Vec<&[u8]> {
        self.aads.iter().map(|a| a.as_slice()).collect()
    }

    /// Reference ciphertexts and tags, block by block.
    fn reference(&self) -> (Vec<Vec<u8>>, Vec<[u8; TAG_LEN]>) {
        (0..self.count())
            .map(|i| reference_seal(&self.key, &self.nonces[i], &self.aads[i], &self.payloads[i]))
            .unzip()
    }

    /// `seal_batch` then `open_batch` under `backend`: the sealed bytes and
    /// the round trip.
    fn seal_batch(&self, backend: Backend) -> (Vec<Vec<u8>>, Vec<[u8; TAG_LEN]>) {
        let mut bufs = self.payloads.clone();
        let mut tags = vec![[0u8; TAG_LEN]; self.count()];
        forced(backend, || {
            let mut blocks: Vec<&mut [u8]> = bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
            seal_batch(&self.key, &self.nonces, &self.aad_refs(), &mut blocks, &mut tags);
        });
        let mut back = bufs.clone();
        forced(backend, || {
            let mut blocks: Vec<&mut [u8]> = back.iter_mut().map(|b| b.as_mut_slice()).collect();
            open_batch(&self.key, &self.nonces, &self.aad_refs(), &mut blocks, &tags).unwrap();
        });
        assert_eq!(back, self.payloads, "{backend:?} open_batch round trip");
        (bufs, tags)
    }

    /// A uniform run through the strided `seal_run`/`open_run` pair under
    /// `backend`: the staging buffer (`nonce ‖ ciphertext ‖ tag` per
    /// block) and the round trip.
    fn seal_run(&self, backend: Backend, len: usize) -> Vec<u8> {
        let plain: Vec<u8> = self.payloads.concat();
        let mut sealed = vec![0u8; self.count() * (NONCE_LEN + len + TAG_LEN)];
        forced(backend, || {
            seal_run(&self.key, len, &plain, &mut sealed, |i| self.nonces[i], |i| self.aads[i]);
        });
        let mut back = vec![0xEEu8; plain.len()];
        forced(backend, || {
            open_run(&self.key, len, &sealed, &mut back, |i| self.aads[i]).unwrap();
        });
        assert_eq!(back, plain, "{backend:?} open_run round trip");
        sealed
    }
}

/// The lane schedule's core property: for every payload length 0..=200
/// and every run length 0..=20 — so lane groups straddle block boundaries
/// at every phase and every tail size 1..=7 reaches the SSE2 and scalar
/// kernels — both batch entry points, under every backend, produce exactly
/// the per-block reference bytes, and per-block [`seal`]/[`open`] agree.
#[test]
fn uniform_runs_match_the_per_block_reference_at_every_length_and_count() {
    let mut rng = EnclaveRng::seed_from_u64(0x1A9E5);
    for len in 0..=200usize {
        for count in 0..=20usize {
            let run = Run::random(&mut rng, std::iter::repeat_n(len, count));
            let (expected, expected_tags) = run.reference();
            for backend in BACKENDS {
                let (bufs, tags) = run.seal_batch(backend);
                assert_eq!(bufs, expected, "{backend:?} len {len} × {count}: ciphertext");
                assert_eq!(tags, expected_tags, "{backend:?} len {len} × {count}: tags");

                let sealed = run.seal_run(backend, len);
                for (i, block) in sealed.chunks_exact(NONCE_LEN + len + TAG_LEN).enumerate() {
                    let expected_block =
                        [&run.nonces[i].0[..], &expected[i], &expected_tags[i]].concat();
                    assert_eq!(block, expected_block, "{backend:?} len {len} × {count}: block {i}");
                }
            }
            // Per-block seal/open are the same bytes (once per geometry).
            if let Some(i) = count.checked_sub(1) {
                let mut buf = run.payloads[i].clone();
                let tag = seal(&run.key, &run.nonces[i], &run.aads[i], &mut buf);
                assert_eq!((&buf, tag), (&expected[i], expected_tags[i]), "seal len {len}");
                open(&run.key, &run.nonces[i], &run.aads[i], &mut buf, &tag).unwrap();
                assert_eq!(buf, run.payloads[i], "open len {len}");
            }
        }
    }
}

/// Ragged runs: every block its own length (0..=300, so one block asks
/// for one to six lanes), through `seal_batch`/`open_batch`.
#[test]
fn ragged_runs_match_the_per_block_reference() {
    let mut rng = EnclaveRng::seed_from_u64(0x4A66ED);
    for case in 0..60 {
        let count = rng.below(41) as usize;
        let lens: Vec<usize> = (0..count).map(|_| rng.below(301) as usize).collect();
        let run = Run::random(&mut rng, lens.iter().copied());
        let (expected, expected_tags) = run.reference();
        for backend in BACKENDS {
            let (bufs, tags) = run.seal_batch(backend);
            assert_eq!(bufs, expected, "case {case} {backend:?} lens {lens:?}: ciphertext");
            assert_eq!(tags, expected_tags, "case {case} {backend:?} lens {lens:?}: tags");
        }
    }
}

/// A failed open reports the first failing block and decrypts nothing,
/// wherever the failure falls relative to the 8-lane groups: first block,
/// last lane of a group, first lane of the next, last block — alone and
/// with a later block failing too.
#[test]
fn first_failing_index_and_nothing_decrypted_at_lane_group_edges() {
    let mut rng = EnclaveRng::seed_from_u64(0x7A3C);
    for (len, count) in [(25usize, 20usize), (64, 9), (73, 17), (130, 16)] {
        let run = Run::random(&mut rng, std::iter::repeat_n(len, count));
        let (sealed_blocks, tags) = run.seal_batch(Backend::Scalar);
        let sealed = run.seal_run(Backend::Scalar, len);
        let stride = NONCE_LEN + len + TAG_LEN;
        for victim in [0, 7, 8, count - 1] {
            for also_last in [false, true] {
                for backend in BACKENDS {
                    // In place: the tampered batch must come back untouched.
                    let mut bufs = sealed_blocks.clone();
                    bufs[victim][len / 2] ^= 0x10;
                    if also_last {
                        bufs[count - 1][0] ^= 1;
                    }
                    let tampered = bufs.clone();
                    let err = forced(backend, || {
                        let mut blocks: Vec<&mut [u8]> =
                            bufs.iter_mut().map(|b| b.as_mut_slice()).collect();
                        open_batch(&run.key, &run.nonces, &run.aad_refs(), &mut blocks, &tags)
                            .unwrap_err()
                    });
                    assert_eq!(err.index, victim, "{backend:?} len {len} open_batch");
                    assert_eq!(bufs, tampered, "{backend:?} len {len}: nothing decrypted");

                    // Strided: a flipped tag bit, and no byte of the
                    // plaintext buffer may be written.
                    let mut staged = sealed.clone();
                    staged[victim * stride + stride - 1] ^= 0x80;
                    if also_last {
                        staged[(count - 1) * stride + NONCE_LEN] ^= 1;
                    }
                    let mut plain = vec![0xEEu8; count * len];
                    let err = forced(backend, || {
                        open_run(&run.key, len, &staged, &mut plain, |i| run.aads[i]).unwrap_err()
                    });
                    assert_eq!(err.index, victim, "{backend:?} len {len} open_run");
                    assert!(plain.iter().all(|&b| b == 0xEE), "{backend:?}: plain untouched");
                }
            }
        }
    }
}
