//! Poly1305 one-time authenticator (RFC 8439).
//!
//! A 64-bit limb implementation: the 130-bit accumulator is two full
//! 64-bit limbs and a few-bit top limb, the clamped `r` two limbs, and one
//! message block is one `h ← (h + m)·r mod 2^130 - 5` step of four
//! 64×64→128-bit products, two small ones for the top limb, and add-with-
//! carry chains — no masking or shifting between limbs, because the limbs
//! are the machine's own words. The clamp clears the low two bits of
//! `r`'s upper limb, so the `2^130 ≡ 5` wrap of that limb's products is
//! the exact `s1 = r1 + (r1 >> 2)`.
//!
//! The sealed-storage layer's messages are four to seven blocks long (a
//! 16-byte AAD, a 25–73-byte row, the length block), so the step is kept
//! short rather than wide: there is no `r²` to precompute and nothing to
//! amortise. The AEAD feeds whole blocks straight from its inputs
//! (`update_padded`); [`Poly1305::update`] is the general incremental
//! interface and buffers at most one partial block.

/// Byte length of a Poly1305 tag.
pub const TAG_LEN: usize = 16;

/// The 2^128 marker a full 16-byte block carries, in the top limb.
const HIBIT: u64 = 1;

/// Incremental Poly1305 state.
pub struct Poly1305 {
    r: [u64; 2],
    h: [u64; 3],
    pad: [u64; 2],
    leftover: usize,
    buffer: [u8; 16],
}

fn le64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
}

impl Poly1305 {
    /// Initializes the authenticator with a 32-byte one-time key `(r, s)`.
    pub fn new(key: &[u8; 32]) -> Self {
        // Clamp r per the spec.
        let r =
            [le64(&key[0..8]) & 0x0fff_fffc_0fff_ffff, le64(&key[8..16]) & 0x0fff_fffc_0fff_fffc];
        let pad = [le64(&key[16..24]), le64(&key[24..32])];
        Self { r, h: [0; 3], pad, leftover: 0, buffer: [0; 16] }
    }

    /// Absorbs whole 16-byte blocks: `h = (h + m) * r (mod 2^130 - 5)` per
    /// block, `hibit` being the block's 2^128 marker (absent only from a
    /// final partial block, which carries an explicit 0x01 byte instead).
    ///
    /// Inlined into its callers so that a whole AEAD tag — three short
    /// feeds — keeps the accumulator in registers.
    #[inline(always)]
    fn absorb(&mut self, blocks: &[u8], hibit: u64) {
        debug_assert_eq!(blocks.len() % 16, 0);
        let [r0, r1] = self.r;
        let s1 = r1 + (r1 >> 2);
        let [mut h0, mut h1, mut h2] = self.h;
        let mul = |a: u64, b: u64| u128::from(a) * u128::from(b);
        for block in blocks.chunks_exact(16) {
            // h += m. The top limb stays below 8: at most 4 after a block's
            // reduction, plus this carry and the marker.
            let t0 = u128::from(h0) + u128::from(le64(&block[..8]));
            let t1 = u128::from(h1) + u128::from(le64(&block[8..])) + (t0 >> 64);
            (h0, h1) = (t0 as u64, t1 as u64);
            h2 += (t1 >> 64) as u64 + hibit;

            // h *= r: r0 < 2^60 and s1 < 2^62, so every sum fits its type.
            let d0 = mul(h0, r0) + mul(h1, s1);
            let d1 = mul(h0, r1) + mul(h1, r0) + u128::from(h2 * s1) + (d0 >> 64);
            h2 = h2 * r0 + (d1 >> 64) as u64;

            // Fold everything above 2^130 back in, times 5.
            let t0 = u128::from(d0 as u64) + u128::from((h2 >> 2) + (h2 & !3));
            let t1 = u128::from(d1 as u64) + (t0 >> 64);
            (h0, h1) = (t0 as u64, t1 as u64);
            h2 = (h2 & 3) + (t1 >> 64) as u64;
        }
        self.h = [h0, h1, h2];
    }

    /// Absorbs `data` followed by zero bytes up to the next 16-byte
    /// boundary — the AEAD construction's `pad16` (RFC 8439 §2.8) — with
    /// every block read straight from `data` and only a partial tail
    /// copied. Requires a block-aligned state (no buffered partial block).
    #[inline(always)]
    pub(crate) fn update_padded(&mut self, data: &[u8]) {
        assert_eq!(self.leftover, 0, "update_padded needs a block-aligned state");
        let (whole, tail) = data.split_at(data.len() & !15);
        self.absorb(whole, HIBIT);
        if !tail.is_empty() {
            let mut last = [0u8; 16];
            last[..tail.len()].copy_from_slice(tail);
            self.absorb(&last, HIBIT);
        }
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.leftover > 0 {
            let want = (16 - self.leftover).min(data.len());
            self.buffer[self.leftover..self.leftover + want].copy_from_slice(&data[..want]);
            self.leftover += want;
            data = &data[want..];
            if self.leftover < 16 {
                return;
            }
            let block = self.buffer;
            self.absorb(&block, HIBIT);
            self.leftover = 0;
        }
        let (whole, tail) = data.split_at(data.len() & !15);
        self.absorb(whole, HIBIT);
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.leftover = tail.len();
    }

    /// Finishes and returns the 16-byte tag.
    pub fn finish(mut self) -> [u8; TAG_LEN] {
        if self.leftover > 0 {
            let mut block = [0u8; 16];
            block[..self.leftover].copy_from_slice(&self.buffer[..self.leftover]);
            block[self.leftover] = 1;
            self.absorb(&block, 0);
        }
        // h < 2p here (top limb at most 4), so one conditional subtraction
        // is the full reduction: g = h + 5 reaches 2^130 exactly when
        // h >= p, and then g mod 2^130 is h - p. Branch-free select.
        let [h0, h1, h2] = self.h;
        let g0 = u128::from(h0) + 5;
        let g1 = u128::from(h1) + (g0 >> 64);
        let g2 = h2 + (g1 >> 64) as u64;
        let take_g = 0u64.wrapping_sub(g2 >> 2);
        let h0 = (h0 & !take_g) | (g0 as u64 & take_g);
        let h1 = (h1 & !take_g) | (g1 as u64 & take_g);

        // tag = (h + s) mod 2^128.
        let lo = u128::from(h0) + u128::from(self.pad[0]);
        let hi = h1.wrapping_add(self.pad[1]).wrapping_add((lo >> 64) as u64);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&(lo as u64).to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }

    /// One-shot tag computation.
    pub fn tag(key: &[u8; 32], data: &[u8]) -> [u8; TAG_LEN] {
        let mut p = Self::new(key);
        p.update(data);
        p.finish()
    }
}

impl Drop for Poly1305 {
    /// Best-effort zeroization of the one-time key and accumulator; the
    /// `black_box` barrier keeps the dead stores from being optimized
    /// away.
    fn drop(&mut self) {
        self.r = [0; 2];
        self.h = [0; 3];
        self.pad = [0; 2];
        self.buffer = [0; 16];
        core::hint::black_box(&self.r);
        core::hint::black_box(&self.h);
        core::hint::black_box(&self.pad);
        core::hint::black_box(&self.buffer);
    }
}

/// Constant-time tag comparison.
pub fn tags_equal(a: &[u8; TAG_LEN], b: &[u8; TAG_LEN]) -> bool {
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.5.2 test vector.
    #[test]
    fn rfc8439_vector() {
        let key: [u8; 32] = [
            0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5,
            0x06, 0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf,
            0x41, 0x49, 0xf5, 0x1b,
        ];
        let msg = b"Cryptographic Forum Research Group";
        let tag = Poly1305::tag(&key, msg);
        let expected: [u8; 16] = [
            0xa8, 0x06, 0x1d, 0xc1, 0x30, 0x51, 0x36, 0xc6, 0xc2, 0x2b, 0x8b, 0xaf, 0x0c, 0x01,
            0x27, 0xa9,
        ];
        assert_eq!(tag, expected);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = [0x11u8; 32];
        let msg: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        let oneshot = Poly1305::tag(&key, &msg);
        for split in [0usize, 1, 15, 16, 17, 31, 500, 999, 1000] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finish(), oneshot, "split at {split}");
        }
    }

    /// `update_padded(data)` is `update(data)` plus zeros to the next
    /// block boundary, for every tail length.
    #[test]
    fn update_padded_matches_update_plus_zero_padding() {
        let key: [u8; 32] = core::array::from_fn(|i| (i * 7 + 1) as u8);
        let msg: Vec<u8> = (0u8..=255).cycle().take(16 * 9).collect();
        for len in 0..=msg.len() {
            let mut reference = Poly1305::new(&key);
            reference.update(&msg[..len]);
            reference.update(&[0u8; 16][..(16 - len % 16) % 16]);
            let mut fast = Poly1305::new(&key);
            fast.update_padded(&msg[..len]);
            assert_eq!(fast.finish(), reference.finish(), "{len} bytes");
        }
    }

    #[test]
    fn different_messages_different_tags() {
        let key = [3u8; 32];
        assert_ne!(Poly1305::tag(&key, b"hello"), Poly1305::tag(&key, b"hellp"));
    }

    #[test]
    fn tags_equal_is_exact() {
        let a = [1u8; 16];
        let mut b = a;
        assert!(tags_equal(&a, &b));
        b[15] ^= 0x80;
        assert!(!tags_equal(&a, &b));
    }

    #[test]
    fn empty_message_has_tag_s() {
        // With r = 0 the accumulator stays 0 and the tag is exactly s.
        let mut key = [0u8; 32];
        key[16..32].copy_from_slice(&[0xAB; 16]);
        let tag = Poly1305::tag(&key, b"anything");
        assert_eq!(tag, [0xAB; 16]);
    }
}
