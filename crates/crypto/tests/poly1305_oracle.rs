//! Differential tests for the 64-bit-limb [`Poly1305`]: the 26-bit-limb
//! implementation it replaced is kept here, test-only, as an independent
//! oracle (different radix, different carry structure, one block per
//! step), and the two must agree on random keys and lengths, on the
//! RFC 8439 §2.5.2 and Appendix A.3 vectors, and on the accumulator
//! values around `2^130 - 5` where the final reduction wraps.

use oblidb_crypto::poly1305::Poly1305;
use oblidb_enclave::EnclaveRng;

/// The pre-PR-13 Poly1305 (poly1305-donna-32 style: five 26-bit limbs,
/// `u64` products), reduced to its per-block path.
mod oracle {
    pub const TAG_LEN: usize = 16;

    /// Multiplies two partially-reduced limb vectors modulo 2^130 - 5,
    /// returning limbs carried back below ~2^26. Inputs may be up to a few
    /// bits above 26 per limb; all intermediates fit in `u64`.
    fn mul_limbs(a: &[u32; 5], b: &[u32; 5]) -> [u32; 5] {
        let a0 = a[0] as u64;
        let a1 = a[1] as u64;
        let a2 = a[2] as u64;
        let a3 = a[3] as u64;
        let a4 = a[4] as u64;
        let b0 = b[0] as u64;
        let b1 = b[1] as u64;
        let b2 = b[2] as u64;
        let b3 = b[3] as u64;
        let b4 = b[4] as u64;
        let s1 = b1 * 5;
        let s2 = b2 * 5;
        let s3 = b3 * 5;
        let s4 = b4 * 5;

        let d0 = a0 * b0 + a1 * s4 + a2 * s3 + a3 * s2 + a4 * s1;
        let d1 = a0 * b1 + a1 * b0 + a2 * s4 + a3 * s3 + a4 * s2;
        let d2 = a0 * b2 + a1 * b1 + a2 * b0 + a3 * s4 + a4 * s3;
        let d3 = a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + a4 * s4;
        let d4 = a0 * b4 + a1 * b3 + a2 * b2 + a3 * b1 + a4 * b0;
        carry_reduce(d0, d1, d2, d3, d4)
    }

    /// Partial carry propagation shared by every multiply path: brings the
    /// five 64-bit accumulators back to limbs below ~2^26 (the top limb may
    /// exceed it by a few bits, which the next multiply absorbs).
    #[inline(always)]
    fn carry_reduce(mut d0: u64, mut d1: u64, mut d2: u64, mut d3: u64, mut d4: u64) -> [u32; 5] {
        let mut c;
        c = d0 >> 26;
        let h0 = (d0 & 0x03ff_ffff) as u32;
        d1 += c;
        c = d1 >> 26;
        let h1 = (d1 & 0x03ff_ffff) as u32;
        d2 += c;
        c = d2 >> 26;
        let h2 = (d2 & 0x03ff_ffff) as u32;
        d3 += c;
        c = d3 >> 26;
        let h3 = (d3 & 0x03ff_ffff) as u32;
        d4 += c;
        c = d4 >> 26;
        let h4 = (d4 & 0x03ff_ffff) as u32;
        d0 = (h0 as u64) + c * 5;
        c = d0 >> 26;
        let h0 = (d0 & 0x03ff_ffff) as u32;
        let h1 = h1 + c as u32;
        [h0, h1, h2, h3, h4]
    }

    /// Splits a 16-byte block into five 26-bit limbs, OR-ing `hibit`
    /// (the 2^128 marker for full blocks) into the top limb.
    #[inline(always)]
    fn block_limbs(block: &[u8], hibit: u32) -> [u32; 5] {
        let t0 = u32::from_le_bytes(block[0..4].try_into().unwrap());
        let t1 = u32::from_le_bytes(block[4..8].try_into().unwrap());
        let t2 = u32::from_le_bytes(block[8..12].try_into().unwrap());
        let t3 = u32::from_le_bytes(block[12..16].try_into().unwrap());
        [
            t0 & 0x03ff_ffff,
            ((t0 >> 26) | (t1 << 6)) & 0x03ff_ffff,
            ((t1 >> 20) | (t2 << 12)) & 0x03ff_ffff,
            ((t2 >> 14) | (t3 << 18)) & 0x03ff_ffff,
            (t3 >> 8) | hibit,
        ]
    }

    pub struct Poly1305 {
        r: [u32; 5],
        h: [u32; 5],
        pad: [u32; 4],
    }

    impl Poly1305 {
        pub fn new(key: &[u8; 32]) -> Self {
            let t0 = u32::from_le_bytes(key[0..4].try_into().unwrap());
            let t1 = u32::from_le_bytes(key[4..8].try_into().unwrap());
            let t2 = u32::from_le_bytes(key[8..12].try_into().unwrap());
            let t3 = u32::from_le_bytes(key[12..16].try_into().unwrap());
            // Clamp r per the spec and split into 26-bit limbs.
            let r = [
                t0 & 0x03ff_ffff,
                ((t0 >> 26) | (t1 << 6)) & 0x03ff_ff03,
                ((t1 >> 20) | (t2 << 12)) & 0x03ff_c0ff,
                ((t2 >> 14) | (t3 << 18)) & 0x03f0_3fff,
                (t3 >> 8) & 0x000f_ffff,
            ];
            let pad = core::array::from_fn(|i| {
                u32::from_le_bytes(key[16 + 4 * i..][..4].try_into().unwrap())
            });
            Self { r, h: [0; 5], pad }
        }

        fn process_block(&mut self, block: &[u8; 16], hibit: u32) {
            // h = (h + m) * r  (mod 2^130 - 5)
            let m = block_limbs(block, hibit);
            let t = core::array::from_fn(|i| self.h[i] + m[i]);
            self.h = mul_limbs(&t, &self.r);
        }

        /// One-shot tag: whole blocks, then the 0x01-terminated partial one.
        pub fn tag(key: &[u8; 32], data: &[u8]) -> [u8; TAG_LEN] {
            let mut mac = Self::new(key);
            let mut blocks = data.chunks_exact(16);
            for block in &mut blocks {
                mac.process_block(block.try_into().unwrap(), 1 << 24);
            }
            let rest = blocks.remainder();
            if !rest.is_empty() {
                let mut block = [0u8; 16];
                block[..rest.len()].copy_from_slice(rest);
                block[rest.len()] = 1;
                mac.process_block(&block, 0);
            }
            mac.finish()
        }

        fn finish(self) -> [u8; TAG_LEN] {
            // Full carry propagation.
            let mut h0 = self.h[0];
            let mut h1 = self.h[1];
            let mut h2 = self.h[2];
            let mut h3 = self.h[3];
            let mut h4 = self.h[4];

            let mut c;
            c = h1 >> 26;
            h1 &= 0x03ff_ffff;
            h2 += c;
            c = h2 >> 26;
            h2 &= 0x03ff_ffff;
            h3 += c;
            c = h3 >> 26;
            h3 &= 0x03ff_ffff;
            h4 += c;
            c = h4 >> 26;
            h4 &= 0x03ff_ffff;
            h0 += c * 5;
            c = h0 >> 26;
            h0 &= 0x03ff_ffff;
            h1 += c;

            // Compute h + -p to check whether h >= p.
            let mut g0 = h0.wrapping_add(5);
            c = g0 >> 26;
            g0 &= 0x03ff_ffff;
            let mut g1 = h1.wrapping_add(c);
            c = g1 >> 26;
            g1 &= 0x03ff_ffff;
            let mut g2 = h2.wrapping_add(c);
            c = g2 >> 26;
            g2 &= 0x03ff_ffff;
            let mut g3 = h3.wrapping_add(c);
            c = g3 >> 26;
            g3 &= 0x03ff_ffff;
            let g4 = h4.wrapping_add(c).wrapping_sub(1 << 26);

            // Select h if h < p, else g.
            let mask = (g4 >> 31).wrapping_sub(1);
            g0 &= mask;
            g1 &= mask;
            g2 &= mask;
            g3 &= mask;
            let g4m = g4 & mask;
            let inv = !mask;
            h0 = (h0 & inv) | g0;
            h1 = (h1 & inv) | g1;
            h2 = (h2 & inv) | g2;
            h3 = (h3 & inv) | g3;
            h4 = (h4 & inv) | g4m;

            // Serialize to four 32-bit words.
            let w0 = h0 | (h1 << 26);
            let w1 = (h1 >> 6) | (h2 << 20);
            let w2 = (h2 >> 12) | (h3 << 14);
            let w3 = (h3 >> 18) | (h4 << 8);

            // Add s (the pad) with carry.
            let mut tag = [0u8; TAG_LEN];
            let mut f: u64;
            f = w0 as u64 + self.pad[0] as u64;
            tag[0..4].copy_from_slice(&(f as u32).to_le_bytes());
            f = w1 as u64 + self.pad[1] as u64 + (f >> 32);
            tag[4..8].copy_from_slice(&(f as u32).to_le_bytes());
            f = w2 as u64 + self.pad[2] as u64 + (f >> 32);
            tag[8..12].copy_from_slice(&(f as u32).to_le_bytes());
            f = w3 as u64 + self.pad[3] as u64 + (f >> 32);
            tag[12..16].copy_from_slice(&(f as u32).to_le_bytes());
            tag
        }
    }
}

fn unhex(s: &str) -> Vec<u8> {
    let clean: Vec<u8> = s.bytes().filter(u8::is_ascii_hexdigit).collect();
    clean
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}

/// Both implementations on one input; returns the (agreed) tag.
fn both(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let new = Poly1305::tag(key, msg);
    assert_eq!(new, oracle::Poly1305::tag(key, msg), "key {key:02x?} msg {msg:02x?}");
    new
}

#[test]
fn random_keys_and_lengths_agree_with_the_oracle() {
    let mut rng = EnclaveRng::seed_from_u64(0x1305);
    for case in 0..4000 {
        let mut key: [u8; 32] = rng.random_bytes(32).try_into().unwrap();
        // A third of the keys are all-ones in `r` (the clamp's maximum,
        // the largest products) or in `s` (carries out of the final add).
        match case % 6 {
            0 => key[..16].fill(0xff),
            1 => key[16..].fill(0xff),
            _ => {}
        }
        let len = rng.below(if case % 8 == 0 { 2000 } else { 130 }) as usize;
        let mut msg = rng.random_bytes(len);
        // Saturated messages push the accumulator towards the modulus.
        if case % 5 == 0 {
            msg.fill(0xff);
        }
        both(&key, &msg);
        // Split feeding must not matter to the new implementation.
        let split = rng.below(len as u64 + 1) as usize;
        let mut mac = Poly1305::new(&key);
        mac.update(&msg[..split]);
        mac.update(&msg[split..]);
        assert_eq!(mac.finish(), oracle::Poly1305::tag(&key, &msg), "case {case} split {split}");
    }
}

/// RFC 8439 §2.5.2.
#[test]
fn s252_vector() {
    let key: [u8; 32] = unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
        .try_into()
        .unwrap();
    let tag = both(&key, b"Cryptographic Forum Research Group");
    assert_eq!(tag.to_vec(), unhex("a8061dc1305136c6c22b8baf0c0127a9"));
}

/// RFC 8439 Appendix A.3, vectors #1–#4: zero key, `r = 0`, `s = 0`, and
/// an ordinary key over prose.
#[test]
fn a3_text_vectors() {
    let ietf = b"Any submission to the IETF intended by the Contributor for publication as all \
or part of an IETF Internet-Draft or RFC and any statement made within the context of an IETF \
activity is considered an \"IETF Contribution\". Such statements include oral statements in IETF \
sessions, as well as written and electronic communications made at any time or place, which are \
addressed to";
    let jabberwocky = b"'Twas brillig, and the slithy toves\nDid gyre and gimble in the wabe:\n\
All mimsy were the borogoves,\nAnd the mome raths outgrabe.";
    let cases: [(&str, &[u8], &str); 4] = [
        (
            "0000000000000000000000000000000000000000000000000000000000000000",
            &[0u8; 64],
            "00000000000000000000000000000000",
        ),
        (
            "0000000000000000000000000000000036e5f6b5c5e06070f0efca96227a863e",
            ietf,
            "36e5f6b5c5e06070f0efca96227a863e",
        ),
        (
            "36e5f6b5c5e06070f0efca96227a863e00000000000000000000000000000000",
            ietf,
            "f3477e7cd95417af89a6b8794c310cf0",
        ),
        (
            "1c9240a5eb55d38af333888604f6b5f0473917c1402b80099dca5cbc207075c0",
            jabberwocky,
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
    ];
    for (n, (key, msg, tag)) in cases.into_iter().enumerate() {
        let key: [u8; 32] = unhex(key).try_into().unwrap();
        assert_eq!(both(&key, msg).to_vec(), unhex(tag), "A.3 vector #{}", n + 1);
    }
}

/// RFC 8439 Appendix A.3, vectors #5–#11: accumulators at and around
/// `2^130 - 5`, where `h >= p` and the final reduction must wrap, and
/// carries out of the `+ s` addition.
#[test]
fn a3_wrap_vectors() {
    let r2 = "02000000000000000000000000000000";
    let r1 = "01000000000000000000000000000000";
    let r_1_4 = "01000000000000000400000000000000";
    let zero = "00000000000000000000000000000000";
    let ones = "ffffffffffffffffffffffffffffffff";
    let cases: [(&str, &str, &str, &str); 7] = [
        // #5: 2^130 - 5 wraps to exactly 0 before the multiply.
        (r2, zero, ones, "03000000000000000000000000000000"),
        // #6: the `+ s` addition carries out of 128 bits.
        (r2, ones, "02000000000000000000000000000000", "03000000000000000000000000000000"),
        // #7: a limb at its maximum propagates a carry through all of h.
        (
            r1,
            zero,
            "ffffffffffffffffffffffffffffffff f0ffffffffffffffffffffffffffffff \
             11000000000000000000000000000000",
            "05000000000000000000000000000000",
        ),
        // #8: h ends at exactly p, which must reduce to 0.
        (
            r1,
            zero,
            "ffffffffffffffffffffffffffffffff fbfefefefefefefefefefefefefefefe \
             01010101010101010101010101010101",
            "00000000000000000000000000000000",
        ),
        // #9: h ends just below p and must not be reduced.
        (r2, zero, "fdffffffffffffffffffffffffffffff", "faffffffffffffffffffffffffffffff"),
        // #10, #11: products that straddle the 2^130 fold.
        (
            r_1_4,
            zero,
            "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
             00000000000000000000000000000000 01000000000000000000000000000000",
            "14000000000000005500000000000000",
        ),
        (
            r_1_4,
            zero,
            "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
             00000000000000000000000000000000",
            "13000000000000000000000000000000",
        ),
    ];
    for (n, (r, s, msg, tag)) in cases.into_iter().enumerate() {
        let key: [u8; 32] = unhex(&format!("{r}{s}")).try_into().unwrap();
        assert_eq!(both(&key, &unhex(msg)).to_vec(), unhex(tag), "A.3 vector #{}", n + 5);
    }
}
