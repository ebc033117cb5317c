//! ChaCha20 stream cipher (RFC 8439).
//!
//! The cipher state is sixteen 32-bit words: four constants, eight key
//! words, a 32-bit block counter, and a 96-bit nonce. Each 64-byte keystream
//! block is produced by 20 rounds (10 "double rounds") of quarter-round
//! mixing followed by a feed-forward addition of the initial state.
//!
//! [`ChaCha20::block`] / [`ChaCha20::apply_keystream`] are the portable
//! scalar reference. [`ChaCha20::blocks4`] and
//! [`ChaCha20::apply_keystream_multi`] produce the same bytes but run
//! several blocks per round pass through the runtime-dispatched SIMD
//! kernels in [`crate::simd`] when the CPU has them.

use crate::simd;

/// Byte length of one keystream block.
pub const BLOCK_LEN: usize = 64;

/// Largest number of keystream lanes generated per dispatch (the AVX2
/// kernel width).
pub(crate) const MAX_LANES: usize = 8;

const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// A ChaCha20 cipher instance bound to a key and nonce.
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

/// Scalar ChaCha20 block function over raw state words. This is the
/// reference core: the SIMD kernels must match it byte for byte, and it
/// serves as their fallback for tail lanes and non-x86_64 targets.
pub(crate) fn scalar_block(
    key: &[u32; 8],
    counter: u32,
    nonce: &[u32; 3],
    out: &mut [u8; BLOCK_LEN],
) {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    state[4..12].copy_from_slice(key);
    state[12] = counter;
    state[13..16].copy_from_slice(nonce);
    let initial = state;

    for _ in 0..10 {
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for i in 0..16 {
        let word = state[i].wrapping_add(initial[i]);
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_le_bytes());
    }
}

/// XORs the first `dst.len()` bytes of `src` into `dst` in `u64`-wide
/// strides (plus a byte tail).
pub(crate) fn xor_bytes(dst: &mut [u8], src: &[u8]) {
    let src = &src[..dst.len()];
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        let v = u64::from_ne_bytes(dc[..8].try_into().unwrap())
            ^ u64::from_ne_bytes(sc[..8].try_into().unwrap());
        dc.copy_from_slice(&v.to_ne_bytes());
    }
    for (db, sb) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *db ^= sb;
    }
}

/// `dst = src ^ keystream[..dst.len()]`: [`xor_bytes`] for a destination
/// that is not the source.
pub(crate) fn xor_into(dst: &mut [u8], src: &[u8], keystream: &[u8]) {
    assert_eq!(dst.len(), src.len());
    let keystream = &keystream[..dst.len()];
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    let mut k = keystream.chunks_exact(8);
    for ((dc, sc), kc) in (&mut d).zip(&mut s).zip(&mut k) {
        let v = u64::from_ne_bytes(sc[..8].try_into().unwrap())
            ^ u64::from_ne_bytes(kc[..8].try_into().unwrap());
        dc.copy_from_slice(&v.to_ne_bytes());
    }
    for ((db, sb), kb) in d.into_remainder().iter_mut().zip(s.remainder()).zip(k.remainder()) {
        *db = sb ^ kb;
    }
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha20 {
    /// Creates a cipher from a 256-bit key and a 96-bit nonce.
    pub fn new(key: &[u8; 32], nonce: &[u8; 12]) -> Self {
        let mut k = [0u32; 8];
        for (i, w) in k.iter_mut().enumerate() {
            *w = u32::from_le_bytes(key[4 * i..4 * i + 4].try_into().unwrap());
        }
        let mut n = [0u32; 3];
        for (i, w) in n.iter_mut().enumerate() {
            *w = u32::from_le_bytes(nonce[4 * i..4 * i + 4].try_into().unwrap());
        }
        Self { key: k, nonce: n }
    }

    /// The cipher's parsed key words (the batch AEAD parses them once per
    /// run and pairs them with each lane's own nonce).
    pub(crate) fn key_words(&self) -> &[u32; 8] {
        &self.key
    }

    /// Produces the 64-byte keystream block for the given counter value.
    pub fn block(&self, counter: u32, out: &mut [u8; BLOCK_LEN]) {
        scalar_block(&self.key, counter, &self.nonce, out);
    }

    /// Produces four consecutive keystream blocks (counters `counter`,
    /// `counter+1`, ..., wrapping) in one pass — a single round pass over
    /// four lanes on SSE2/AVX2 hardware, scalar otherwise. Byte-identical
    /// to four [`Self::block`] calls.
    pub fn blocks4(&self, counter: u32, out: &mut [u8; 4 * BLOCK_LEN]) {
        let counters: [u32; 4] = core::array::from_fn(|i| counter.wrapping_add(i as u32));
        let nonces = [self.nonce; 4];
        simd::keystream_blocks(&self.key, &counters, &nonces, out);
    }

    /// XORs the keystream (starting at block `counter`) into `data` in place.
    ///
    /// Encryption and decryption are the same operation. This is the
    /// portable scalar reference path; [`Self::apply_keystream_multi`]
    /// produces identical bytes via the SIMD kernels.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        let mut block = [0u8; BLOCK_LEN];
        let mut ctr = counter;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            self.block(ctr, &mut block);
            for (b, k) in chunk.iter_mut().zip(block.iter()) {
                *b ^= k;
            }
            ctr = ctr.wrapping_add(1);
        }
    }

    /// XORs the keystream into `data` in place, generating up to
    /// `MAX_LANES` (8) blocks per round pass through the active SIMD
    /// backend. Byte-identical to [`Self::apply_keystream`] for every
    /// length and starting counter (including counter wraparound).
    pub fn apply_keystream_multi(&self, counter: u32, data: &mut [u8]) {
        let mut ks = [0u8; MAX_LANES * BLOCK_LEN];
        let mut counters = [0u32; MAX_LANES];
        let nonces = [self.nonce; MAX_LANES];
        let mut ctr = counter;
        let mut at = 0usize;
        while at < data.len() {
            let remaining = data.len() - at;
            let lanes = remaining.div_ceil(BLOCK_LEN).min(MAX_LANES);
            for (i, c) in counters[..lanes].iter_mut().enumerate() {
                *c = ctr.wrapping_add(i as u32);
            }
            simd::keystream_blocks(
                &self.key,
                &counters[..lanes],
                &nonces[..lanes],
                &mut ks[..lanes * BLOCK_LEN],
            );
            let take = remaining.min(lanes * BLOCK_LEN);
            xor_bytes(&mut data[at..at + take], &ks[..take]);
            at += take;
            ctr = ctr.wrapping_add(lanes as u32);
        }
    }
}

impl Drop for ChaCha20 {
    /// Best-effort zeroization of the key schedule; the `black_box`
    /// barrier keeps the dead stores from being optimized away.
    fn drop(&mut self) {
        self.key = [0; 8];
        self.nonce = [0; 3];
        core::hint::black_box(&self.key);
        core::hint::black_box(&self.nonce);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.1.1 quarter-round test vector.
    #[test]
    fn quarter_round_vector() {
        let mut st = [0u32; 16];
        st[0] = 0x1111_1111;
        st[1] = 0x0102_0304;
        st[2] = 0x9b8d_6f43;
        st[3] = 0x0123_4567;
        quarter_round(&mut st, 0, 1, 2, 3);
        assert_eq!(st[0], 0xea2a_92f4);
        assert_eq!(st[1], 0xcb1c_f8ce);
        assert_eq!(st[2], 0x4581_472e);
        assert_eq!(st[3], 0x5881_c4bb);
    }

    /// RFC 8439 §2.3.2 block-function test vector.
    #[test]
    fn block_function_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = i as u8;
        }
        let nonce = [0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00];
        let cipher = ChaCha20::new(&key, &nonce);
        let mut out = [0u8; BLOCK_LEN];
        cipher.block(1, &mut out);
        let expected: [u8; 64] = [
            0x10, 0xf1, 0xe7, 0xe4, 0xd1, 0x3b, 0x59, 0x15, 0x50, 0x0f, 0xdd, 0x1f, 0xa3, 0x20,
            0x71, 0xc4, 0xc7, 0xd1, 0xf4, 0xc7, 0x33, 0xc0, 0x68, 0x03, 0x04, 0x22, 0xaa, 0x9a,
            0xc3, 0xd4, 0x6c, 0x4e, 0xd2, 0x82, 0x64, 0x46, 0x07, 0x9f, 0xaa, 0x09, 0x14, 0xc2,
            0xd7, 0x05, 0xd9, 0x8b, 0x02, 0xa2, 0xb5, 0x12, 0x9c, 0xd1, 0xde, 0x16, 0x4e, 0xb9,
            0xcb, 0xd0, 0x83, 0xe8, 0xa2, 0x50, 0x3c, 0x4e,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn keystream_roundtrip() {
        let key = [0x42u8; 32];
        let nonce = [7u8; 12];
        let cipher = ChaCha20::new(&key, &nonce);
        let mut data = (0u8..=200).collect::<Vec<u8>>();
        let original = data.clone();
        cipher.apply_keystream(1, &mut data);
        assert_ne!(data, original);
        cipher.apply_keystream(1, &mut data);
        assert_eq!(data, original);
    }

    #[test]
    fn different_counters_give_different_streams() {
        let cipher = ChaCha20::new(&[1u8; 32], &[2u8; 12]);
        let mut a = [0u8; BLOCK_LEN];
        let mut b = [0u8; BLOCK_LEN];
        cipher.block(0, &mut a);
        cipher.block(1, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn different_nonces_give_different_streams() {
        let a_cipher = ChaCha20::new(&[1u8; 32], &[0u8; 12]);
        let b_cipher = ChaCha20::new(&[1u8; 32], &[1u8; 12]);
        let mut a = [0u8; BLOCK_LEN];
        let mut b = [0u8; BLOCK_LEN];
        a_cipher.block(0, &mut a);
        b_cipher.block(0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn blocks4_matches_four_scalar_blocks() {
        let cipher = ChaCha20::new(&[0xA5u8; 32], &[0x5Au8; 12]);
        for start in [0u32, 1, 1000, u32::MAX - 1] {
            let mut quad = [0u8; 4 * BLOCK_LEN];
            cipher.blocks4(start, &mut quad);
            for i in 0..4 {
                let mut one = [0u8; BLOCK_LEN];
                cipher.block(start.wrapping_add(i as u32), &mut one);
                assert_eq!(&quad[i * BLOCK_LEN..(i + 1) * BLOCK_LEN], &one, "lane {i} @ {start}");
            }
        }
    }

    #[test]
    fn multi_keystream_matches_scalar_keystream() {
        let cipher = ChaCha20::new(&[0x17u8; 32], &[0xEEu8; 12]);
        for len in [0usize, 1, 63, 64, 65, 255, 256, 257, 511, 512, 513, 1024, 1025] {
            for start in [0u32, 1, u32::MAX - 3] {
                let mut scalar: Vec<u8> = (0..len).map(|i| i as u8).collect();
                let mut multi = scalar.clone();
                cipher.apply_keystream(start, &mut scalar);
                cipher.apply_keystream_multi(start, &mut multi);
                assert_eq!(scalar, multi, "len {len} start {start}");
            }
        }
    }

    #[test]
    fn partial_block_matches_prefix_of_full_block() {
        let cipher = ChaCha20::new(&[9u8; 32], &[3u8; 12]);
        let mut long = vec![0u8; 100];
        let mut short = vec![0u8; 10];
        cipher.apply_keystream(5, &mut long);
        cipher.apply_keystream(5, &mut short);
        assert_eq!(&long[..10], &short[..]);
    }
}
