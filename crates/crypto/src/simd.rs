//! Runtime-dispatched SIMD backends for multi-block ChaCha20.
//!
//! The scalar ChaCha20 core ([`crate::chacha`]) processes one 64-byte
//! keystream block per round pass. The kernels here run the identical
//! round function over **lanes** of independent blocks held column-wise in
//! vector registers — 4 lanes in SSE2 `__m128i`, 8 lanes in AVX2
//! `__m256i` — so one pass of 20 rounds yields 4 or 8 blocks, written out
//! lane by lane through a vector transpose. Each lane carries its own
//! counter *and* nonce words, which lets the AEAD layer fill a pass with
//! whatever a run of sealed blocks needs next — one-time keys and payload
//! keystream of different blocks side by side ([`crate::aead`]).
//!
//! # Dispatch
//!
//! The backend is chosen once per process from CPU feature detection
//! (`is_x86_feature_detected!`), clamped by the `OBLIDB_SIMD` environment
//! variable (`scalar` | `sse2` | `avx2` | `auto`), and can be overridden
//! in-process via [`force`] (used by the equivalence tests and the crypto
//! bench to measure both paths in one run). On non-x86_64 targets every
//! entry point falls back to the scalar core. **Every backend produces
//! byte-identical keystream** — the property tests in
//! `tests/simd_equivalence.rs` assert it — so dispatch can never change
//! sealed bytes, tags, or traces, only wall-clock time.
//!
//! This is the one module in the crate allowed to use `unsafe` (the
//! `core::arch` intrinsics); the kernels are gated behind
//! `#[target_feature]` and only ever invoked after the matching
//! `is_x86_feature_detected!` check.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A ChaCha20 keystream backend, ordered by capability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Backend {
    /// Portable scalar core (one block per round pass).
    Scalar,
    /// SSE2 4-lane kernel (four blocks per round pass).
    Sse2,
    /// AVX2 8-lane kernel (eight blocks per round pass).
    Avx2,
}

impl Backend {
    /// The backend's stable label (recorded in `BENCH_crypto.json`).
    pub fn label(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
        }
    }
}

/// In-process override: 0 = auto (use [`detected`]), else backend + 1.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The best backend this CPU supports, clamped by `OBLIDB_SIMD`
/// (computed once per process).
pub fn detected() -> Backend {
    static DETECTED: OnceLock<Backend> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let hw = hardware_best();
        match std::env::var("OBLIDB_SIMD").as_deref() {
            Ok("scalar") => Backend::Scalar,
            Ok("sse2") => hw.min(Backend::Sse2),
            // Requesting more than the CPU has clamps down, never up.
            Ok("avx2") | Ok("auto") | Ok(_) | Err(_) => hw,
        }
    })
}

#[cfg(target_arch = "x86_64")]
fn hardware_best() -> Backend {
    if is_x86_feature_detected!("avx2") {
        Backend::Avx2
    } else if is_x86_feature_detected!("sse2") {
        Backend::Sse2
    } else {
        Backend::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn hardware_best() -> Backend {
    Backend::Scalar
}

/// The backend the next keystream call will use: the [`force`] override
/// when set, otherwise [`detected`].
pub fn active() -> Backend {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => Backend::Scalar,
        2 => Backend::Sse2.min(hardware_best()),
        3 => Backend::Avx2.min(hardware_best()),
        _ => detected(),
    }
}

/// Overrides the backend for this process (`None` restores automatic
/// detection). Forcing a backend the CPU lacks clamps to the best
/// available. Since every backend is byte-identical, flipping this
/// mid-run is always safe; it exists so the bench and the equivalence
/// suite can measure/compare both paths in one process.
pub fn force(backend: Option<Backend>) {
    let v = match backend {
        None => 0,
        Some(Backend::Scalar) => 1,
        Some(Backend::Sse2) => 2,
        Some(Backend::Avx2) => 3,
    };
    OVERRIDE.store(v, Ordering::Relaxed);
}

/// Fills `out` (`64 * counters.len()` bytes) with one keystream block per
/// lane: lane `i` is the ChaCha20 block for `(key, counters[i],
/// nonces[i])`. Lanes are independent — different counters under one
/// nonce (bulk keystream), different nonces at counter 0 (Poly1305 key
/// derivation), or the AEAD's mix of both are all one call.
pub(crate) fn keystream_blocks(
    key: &[u32; 8],
    counters: &[u32],
    nonces: &[[u32; 3]],
    out: &mut [u8],
) {
    let n = counters.len();
    debug_assert_eq!(nonces.len(), n);
    debug_assert_eq!(out.len(), 64 * n);
    let mut at = 0usize;
    #[cfg(target_arch = "x86_64")]
    {
        let backend = active();
        if backend >= Backend::Avx2 {
            while n - at >= 8 {
                // SAFETY: `active()` returns Avx2 only after
                // `is_x86_feature_detected!("avx2")` succeeded.
                unsafe {
                    x86::blocks8_avx2(
                        key,
                        &counters[at..at + 8],
                        &nonces[at..at + 8],
                        &mut out[at * 64..(at + 8) * 64],
                    );
                }
                at += 8;
            }
        }
        if backend >= Backend::Sse2 {
            while n - at >= 4 {
                // SAFETY: Sse2 (or better) implies the sse2 feature check
                // succeeded.
                unsafe {
                    x86::blocks4_sse2(
                        key,
                        &counters[at..at + 4],
                        &nonces[at..at + 4],
                        &mut out[at * 64..(at + 4) * 64],
                    );
                }
                at += 4;
            }
        }
    }
    for i in at..n {
        crate::chacha::scalar_block(
            key,
            counters[i],
            &nonces[i],
            (&mut out[i * 64..(i + 1) * 64]).try_into().expect("64-byte lane"),
        );
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    //! The SSE2 / AVX2 lane kernels. Layout is column-wise: vector `w`
    //! holds state word `w` of every lane, so the scalar quarter-round
    //! maps 1:1 onto vector adds/xors/rotates.

    use core::arch::x86_64::*;

    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    /// 32-bit lane rotate: SSE2 has no rotate instruction, so shift+or.
    macro_rules! rotl128 {
        ($x:expr, $n:literal, $inv:literal) => {
            _mm_or_si128(_mm_slli_epi32::<$n>($x), _mm_srli_epi32::<$inv>($x))
        };
    }
    macro_rules! rotl256 {
        ($x:expr, $n:literal, $inv:literal) => {
            _mm256_or_si256(_mm256_slli_epi32::<$n>($x), _mm256_srli_epi32::<$inv>($x))
        };
    }

    macro_rules! quarter128 {
        ($v:expr, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl128!(_mm_xor_si128($v[$d], $v[$a]), 16, 16);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl128!(_mm_xor_si128($v[$b], $v[$c]), 12, 20);
            $v[$a] = _mm_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl128!(_mm_xor_si128($v[$d], $v[$a]), 8, 24);
            $v[$c] = _mm_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl128!(_mm_xor_si128($v[$b], $v[$c]), 7, 25);
        };
    }
    macro_rules! quarter256 {
        ($v:expr, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl256!(_mm256_xor_si256($v[$d], $v[$a]), 16, 16);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl256!(_mm256_xor_si256($v[$b], $v[$c]), 12, 20);
            $v[$a] = _mm256_add_epi32($v[$a], $v[$b]);
            $v[$d] = rotl256!(_mm256_xor_si256($v[$d], $v[$a]), 8, 24);
            $v[$c] = _mm256_add_epi32($v[$c], $v[$d]);
            $v[$b] = rotl256!(_mm256_xor_si256($v[$b], $v[$c]), 7, 25);
        };
    }

    /// Four keystream blocks per round pass (SSE2).
    ///
    /// # Safety
    /// Requires SSE2 (caller checks via `is_x86_feature_detected!`).
    #[target_feature(enable = "sse2")]
    pub unsafe fn blocks4_sse2(
        key: &[u32; 8],
        counters: &[u32],
        nonces: &[[u32; 3]],
        out: &mut [u8],
    ) {
        debug_assert!(counters.len() >= 4 && nonces.len() >= 4);
        let mut v = [_mm_setzero_si128(); 16];
        for w in 0..4 {
            v[w] = _mm_set1_epi32(SIGMA[w] as i32);
        }
        for w in 0..8 {
            v[4 + w] = _mm_set1_epi32(key[w] as i32);
        }
        v[12] = _mm_set_epi32(
            counters[3] as i32,
            counters[2] as i32,
            counters[1] as i32,
            counters[0] as i32,
        );
        for w in 0..3 {
            v[13 + w] = _mm_set_epi32(
                nonces[3][w] as i32,
                nonces[2][w] as i32,
                nonces[1][w] as i32,
                nonces[0][w] as i32,
            );
        }
        let initial = v;
        for _ in 0..10 {
            quarter128!(v, 0, 4, 8, 12);
            quarter128!(v, 1, 5, 9, 13);
            quarter128!(v, 2, 6, 10, 14);
            quarter128!(v, 3, 7, 11, 15);
            quarter128!(v, 0, 5, 10, 15);
            quarter128!(v, 1, 6, 11, 12);
            quarter128!(v, 2, 7, 8, 13);
            quarter128!(v, 3, 4, 9, 14);
        }
        for w in 0..16 {
            v[w] = _mm_add_epi32(v[w], initial[w]);
        }
        // Transpose word-major vectors into lane-major bytes: each group
        // of four word vectors is a 4×4 matrix whose columns are 16
        // consecutive bytes of one lane's block.
        let out = &mut out[..256];
        for q in 0..4 {
            let lo01 = _mm_unpacklo_epi32(v[4 * q], v[4 * q + 1]);
            let hi01 = _mm_unpackhi_epi32(v[4 * q], v[4 * q + 1]);
            let lo23 = _mm_unpacklo_epi32(v[4 * q + 2], v[4 * q + 3]);
            let hi23 = _mm_unpackhi_epi32(v[4 * q + 2], v[4 * q + 3]);
            let lanes = [
                _mm_unpacklo_epi64(lo01, lo23),
                _mm_unpackhi_epi64(lo01, lo23),
                _mm_unpacklo_epi64(hi01, hi23),
                _mm_unpackhi_epi64(hi01, hi23),
            ];
            for (lane, row) in lanes.into_iter().enumerate() {
                let at = lane * 64 + q * 16;
                // SAFETY: `at + 16 <= 256 == out.len()` (sliced above), and
                // `storeu` has no alignment requirement.
                _mm_storeu_si128(out[at..at + 16].as_mut_ptr() as *mut __m128i, row);
            }
        }
    }

    /// Eight keystream blocks per round pass (AVX2).
    ///
    /// # Safety
    /// Requires AVX2 (caller checks via `is_x86_feature_detected!`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn blocks8_avx2(
        key: &[u32; 8],
        counters: &[u32],
        nonces: &[[u32; 3]],
        out: &mut [u8],
    ) {
        debug_assert!(counters.len() >= 8 && nonces.len() >= 8);
        let mut v = [_mm256_setzero_si256(); 16];
        for w in 0..4 {
            v[w] = _mm256_set1_epi32(SIGMA[w] as i32);
        }
        for w in 0..8 {
            v[4 + w] = _mm256_set1_epi32(key[w] as i32);
        }
        v[12] = _mm256_set_epi32(
            counters[7] as i32,
            counters[6] as i32,
            counters[5] as i32,
            counters[4] as i32,
            counters[3] as i32,
            counters[2] as i32,
            counters[1] as i32,
            counters[0] as i32,
        );
        for w in 0..3 {
            v[13 + w] = _mm256_set_epi32(
                nonces[7][w] as i32,
                nonces[6][w] as i32,
                nonces[5][w] as i32,
                nonces[4][w] as i32,
                nonces[3][w] as i32,
                nonces[2][w] as i32,
                nonces[1][w] as i32,
                nonces[0][w] as i32,
            );
        }
        let initial = v;
        for _ in 0..10 {
            quarter256!(v, 0, 4, 8, 12);
            quarter256!(v, 1, 5, 9, 13);
            quarter256!(v, 2, 6, 10, 14);
            quarter256!(v, 3, 7, 11, 15);
            quarter256!(v, 0, 5, 10, 15);
            quarter256!(v, 1, 6, 11, 12);
            quarter256!(v, 2, 7, 8, 13);
            quarter256!(v, 3, 4, 9, 14);
        }
        for w in 0..16 {
            v[w] = _mm256_add_epi32(v[w], initial[w]);
        }
        // Transpose word-major vectors into lane-major bytes: each half of
        // the state (words 0–7, 8–15) is an 8×8 matrix whose columns are
        // 32 consecutive bytes of one lane's block.
        let out = &mut out[..512];
        for half in 0..2 {
            let r = &v[8 * half..8 * half + 8];
            // 32-bit then 64-bit interleaves: `quads[2p + h]` holds, per
            // 128-bit half, words 4h..4h+4 of lanes p (low) and p + 4 (high).
            let mut quads = [_mm256_setzero_si256(); 8];
            for h in 0..2 {
                let lo01 = _mm256_unpacklo_epi32(r[4 * h], r[4 * h + 1]);
                let hi01 = _mm256_unpackhi_epi32(r[4 * h], r[4 * h + 1]);
                let lo23 = _mm256_unpacklo_epi32(r[4 * h + 2], r[4 * h + 3]);
                let hi23 = _mm256_unpackhi_epi32(r[4 * h + 2], r[4 * h + 3]);
                quads[h] = _mm256_unpacklo_epi64(lo01, lo23);
                quads[2 + h] = _mm256_unpackhi_epi64(lo01, lo23);
                quads[4 + h] = _mm256_unpacklo_epi64(hi01, hi23);
                quads[6 + h] = _mm256_unpackhi_epi64(hi01, hi23);
            }
            for p in 0..4 {
                let (a, b) = (quads[2 * p], quads[2 * p + 1]);
                let rows = [
                    (p, _mm256_permute2x128_si256::<0x20>(a, b)),
                    (p + 4, _mm256_permute2x128_si256::<0x31>(a, b)),
                ];
                for (lane, row) in rows {
                    let at = lane * 64 + half * 32;
                    // SAFETY: `at + 32 <= 512 == out.len()` (sliced above),
                    // and `storeu` has no alignment requirement.
                    _mm256_storeu_si256(out[at..at + 32].as_mut_ptr() as *mut __m256i, row);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`force`] is process-global; tests that flip it must not overlap.
    fn force_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn forced_backend_clamps_to_hardware() {
        let _guard = force_lock();
        force(Some(Backend::Avx2));
        assert!(active() <= super::hardware_best());
        force(Some(Backend::Scalar));
        assert_eq!(active(), Backend::Scalar);
        force(None);
        assert_eq!(active(), detected());
    }

    #[test]
    fn every_backend_matches_scalar_block() {
        let _guard = force_lock();
        let key = [0x0101_0203u32; 8];
        let nonces: Vec<[u32; 3]> = (0..9u32).map(|i| [i, i * 7, i * 13]).collect();
        let counters: Vec<u32> = (0..9u32).map(|i| (u32::MAX - 4).wrapping_add(i)).collect();
        let mut expected = vec![0u8; 64 * 9];
        for i in 0..9 {
            crate::chacha::scalar_block(
                &key,
                counters[i],
                &nonces[i],
                (&mut expected[i * 64..(i + 1) * 64]).try_into().unwrap(),
            );
        }
        for backend in [Backend::Scalar, Backend::Sse2, Backend::Avx2] {
            force(Some(backend));
            let mut out = vec![0u8; 64 * 9];
            keystream_blocks(&key, &counters, &nonces, &mut out);
            assert_eq!(out, expected, "{backend:?}");
        }
        force(None);
    }
}
