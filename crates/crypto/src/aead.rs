//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! Every block ObliDB writes outside the enclave is sealed with this AEAD;
//! the associated data binds the ciphertext to its (table, block index,
//! revision) identity so the untrusted OS can neither tamper with, shuffle,
//! nor replay blocks without detection (paper §3).
//!
//! [`seal`]/[`open`] handle one block; [`seal_batch`]/[`open_batch`] a
//! batch of independent blocks; [`seal_run`]/[`open_run`] a run of
//! equal-sized blocks in the sealed-storage layer's strided staging
//! layout. All six are one schedule: a run's keystream demands — per
//! block, ChaCha20 counter 0 for the Poly1305 one-time key and counters
//! `1..=⌈len/64⌉` for the payload — are enumerated as (block, counter)
//! lanes and generated eight at a time **across block boundaries**, so a
//! run of 25-byte rows keeps the SIMD kernels as busy as a run of 1 KiB
//! blocks does (`keystream_run`). Tags and ciphertext are byte-identical
//! whichever entry point and backend produced them, and a failed open
//! verifies every tag of the run before decrypting anything and
//! attributes the exact offending block.

use crate::chacha::{xor_bytes, xor_into, ChaCha20, BLOCK_LEN, MAX_LANES};
use crate::poly1305::{tags_equal, Poly1305};

/// Byte length of the authentication tag.
pub const TAG_LEN: usize = 16;
/// Byte length of the nonce.
pub const NONCE_LEN: usize = 12;

/// A 256-bit AEAD key. Zeroized on drop; clone explicitly when a copy
/// must outlive the original.
#[derive(Clone)]
pub struct AeadKey(pub [u8; 32]);

impl AeadKey {
    /// Overwrites the key bytes (also performed automatically on drop).
    pub fn zeroize(&mut self) {
        self.0.fill(0);
        core::hint::black_box(&self.0);
    }
}

impl Drop for AeadKey {
    /// Best-effort zeroization; the `black_box` barrier keeps the dead
    /// store from being optimized away.
    fn drop(&mut self) {
        self.zeroize();
    }
}

/// A 96-bit nonce. Must never repeat for the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Nonce(pub [u8; NONCE_LEN]);

impl Nonce {
    /// Builds a nonce from a 32-bit epoch and 64-bit counter.
    ///
    /// The sealed-storage layer uses (epoch = region id, counter = a
    /// monotonically increasing write counter), which guarantees uniqueness.
    pub fn from_parts(epoch: u32, counter: u64) -> Self {
        let mut n = [0u8; NONCE_LEN];
        n[..4].copy_from_slice(&epoch.to_le_bytes());
        n[4..].copy_from_slice(&counter.to_le_bytes());
        Nonce(n)
    }
}

/// Error returned when decryption fails authentication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AeadError;

impl std::fmt::Display for AeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed")
    }
}

impl std::error::Error for AeadError {}

/// Error returned when a batch open fails authentication: `index` is the
/// position (in batch order) of the **first** block whose tag did not
/// verify. No block in the batch has been decrypted when this is
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchAeadError {
    /// Batch-order index of the first failing block.
    pub index: usize,
}

impl std::fmt::Display for BatchAeadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AEAD authentication failed for batch block {}", self.index)
    }
}

impl std::error::Error for BatchAeadError {}

/// Parses a nonce into the three little-endian state words ChaCha20 uses.
fn nonce_words(nonce: &Nonce) -> [u32; 3] {
    core::array::from_fn(|w| u32::from_le_bytes(nonce.0[4 * w..4 * w + 4].try_into().unwrap()))
}

/// The ChaCha20 block counters a `len`-byte payload consumes: counter 0
/// is the block's Poly1305 one-time key (RFC 8439 §2.6), counters
/// `1..=payload_blocks(len)` its keystream.
fn payload_blocks(len: usize) -> u32 {
    len.div_ceil(BLOCK_LEN) as u32
}

/// The byte range of a `len`-byte payload that keystream block `counter`
/// (≥ 1) covers.
fn covered(counter: u32, len: usize) -> core::ops::Range<usize> {
    let at = (counter as usize - 1) * BLOCK_LEN;
    at..(at + BLOCK_LEN).min(len)
}

/// Generates the keystream a run of blocks asks for and hands it to
/// `sink(run, block, counter, keystream)` in run order.
///
/// Block `i` demands the ChaCha20 blocks `counters(run, i)` under
/// `nonce(run, i)`. The demands of the whole run form one stream of
/// independent (nonce, counter) lanes that fills the widest SIMD kernel
/// **across block boundaries**: a run of 25-byte rows (two demands each)
/// keeps all eight AVX2 lanes busy exactly as a run of 1 KiB blocks
/// (seventeen each) does, and only the last, partial group of a run falls
/// to the narrower kernels. One block's demands are consecutive in the
/// stream, so a sink sees counter 0 of a block before its payload
/// counters. `run` is whatever the three callbacks share (the sink
/// mutates buffers the other two read lengths and nonces from). The
/// keystream scratch is zeroized before returning.
fn keystream_run<R: ?Sized>(
    key: &AeadKey,
    count: usize,
    run: &mut R,
    nonce: impl Fn(&R, usize) -> Nonce,
    counters: impl Fn(&R, usize) -> core::ops::RangeInclusive<u32>,
    mut sink: impl FnMut(&mut R, usize, u32, &[u8; BLOCK_LEN]),
) {
    let schedule = ChaCha20::new(&key.0, &[0u8; NONCE_LEN]);
    let mut stream = [0u8; MAX_LANES * BLOCK_LEN];
    let mut lane_block = [0usize; MAX_LANES];
    let mut lane_counter = [0u32; MAX_LANES];
    let mut lane_nonce = [[0u32; 3]; MAX_LANES];
    let mut lanes = 0usize;
    let mut flush = |run: &mut R, blocks: &[usize], counters: &[u32], nonces: &[[u32; 3]]| {
        let stream = &mut stream[..blocks.len() * BLOCK_LEN];
        crate::simd::keystream_blocks(schedule.key_words(), counters, nonces, stream);
        for (lane, ks) in stream.chunks_exact(BLOCK_LEN).enumerate() {
            sink(run, blocks[lane], counters[lane], ks.try_into().expect("64-byte lane"));
        }
    };
    for block in 0..count {
        let words = nonce_words(&nonce(run, block));
        for counter in counters(run, block) {
            lane_block[lanes] = block;
            lane_counter[lanes] = counter;
            lane_nonce[lanes] = words;
            lanes += 1;
            if lanes == MAX_LANES {
                flush(run, &lane_block, &lane_counter, &lane_nonce);
                lanes = 0;
            }
        }
    }
    if lanes > 0 {
        flush(run, &lane_block[..lanes], &lane_counter[..lanes], &lane_nonce[..lanes]);
    }
    stream.fill(0);
    core::hint::black_box(&stream);
}

/// The AEAD tag (RFC 8439 §2.8): Poly1305 under the one-time key over
/// `pad16(aad) ‖ pad16(ciphertext) ‖ len(aad) ‖ len(ciphertext)`, fed to
/// the MAC as whole 16-byte blocks.
fn compute_tag(otk: &[u8; 32], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(otk);
    mac.update_padded(aad);
    mac.update_padded(ciphertext);
    let mut lens = [0u8; 16];
    lens[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lens[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.update_padded(&lens);
    mac.finish()
}

/// Encrypts `plaintext` in place and returns the authentication tag.
pub fn seal(key: &AeadKey, nonce: &Nonce, aad: &[u8], plaintext: &mut [u8]) -> [u8; TAG_LEN] {
    let mut tag = [[0u8; TAG_LEN]];
    seal_batch(key, &[*nonce], &[aad], &mut [plaintext], &mut tag);
    tag[0]
}

/// Seals a batch of blocks in place, writing one tag per block into
/// `tags`. Equivalent to calling [`seal`] once per block — identical
/// ciphertext and tags — but the whole batch's keystream demands (one
/// one-time key and `⌈len/64⌉` payload blocks per block) are generated
/// eight lanes at a time across block boundaries.
///
/// All four slices must have equal length; blocks may have differing
/// sizes.
pub fn seal_batch(
    key: &AeadKey,
    nonces: &[Nonce],
    aads: &[&[u8]],
    blocks: &mut [&mut [u8]],
    tags: &mut [[u8; TAG_LEN]],
) {
    let count = nonces.len();
    assert!(
        aads.len() == count && blocks.len() == count && tags.len() == count,
        "seal_batch slice lengths must match"
    );
    keystream_run(
        key,
        count,
        // The one-time key rides from a block's counter-0 lane to its last
        // lane in a zeroize-on-drop holder.
        &mut (blocks, tags, AeadKey([0u8; 32])),
        |_, i| nonces[i],
        |(blocks, ..), i| 0..=payload_blocks(blocks[i].len()),
        |(blocks, tags, otk), i, counter, ks| {
            let block = &mut *blocks[i];
            let len = block.len();
            if counter == 0 {
                otk.0.copy_from_slice(&ks[..32]);
            } else {
                xor_bytes(&mut block[covered(counter, len)], ks);
            }
            if counter == payload_blocks(len) {
                tags[i] = compute_tag(&otk.0, aads[i], block);
            }
        },
    );
}

/// Seals a run of equal-sized blocks into the sealed-storage layout:
/// block `i` becomes `nonce(i) ‖ ciphertext ‖ tag` at
/// `sealed[i * stride..]`, `stride = NONCE_LEN + payload_len + TAG_LEN`,
/// its plaintext read from `plain[i * payload_len..]` and its associated
/// data being `aad(i)`. Byte-identical to [`seal`] per block; the same
/// lane schedule as [`seal_batch`], without per-block slices to build.
pub fn seal_run(
    key: &AeadKey,
    payload_len: usize,
    plain: &[u8],
    sealed: &mut [u8],
    nonce: impl Fn(usize) -> Nonce,
    aad: impl Fn(usize) -> [u8; 16],
) {
    let stride = NONCE_LEN + payload_len + TAG_LEN;
    let count = sealed.len() / stride;
    assert!(
        sealed.len() == count * stride && plain.len() == count * payload_len,
        "seal_run buffers must hold a whole number of blocks"
    );
    let last = payload_blocks(payload_len);
    keystream_run(
        key,
        count,
        &mut (sealed, AeadKey([0u8; 32])),
        |_, i| nonce(i),
        |_, _| 0..=last,
        |(sealed, otk), i, counter, ks| {
            let (head, tag) = sealed[i * stride..(i + 1) * stride].split_at_mut(stride - TAG_LEN);
            let (nonce_out, ciphertext) = head.split_at_mut(NONCE_LEN);
            if counter == 0 {
                otk.0.copy_from_slice(&ks[..32]);
                nonce_out.copy_from_slice(&nonce(i).0);
            } else {
                let range = covered(counter, payload_len);
                let src = &plain[i * payload_len..(i + 1) * payload_len];
                xor_into(&mut ciphertext[range.clone()], &src[range], ks);
            }
            if counter == last {
                tag.copy_from_slice(&compute_tag(&otk.0, &aad(i), ciphertext));
            }
        },
    );
}

/// The first phase of every open: derives each block's one-time key
/// (counter 0 only, so eight blocks per SIMD pass) and asks
/// `tag_matches(block, one_time_key)` whether its stored tag verifies.
/// Reports the first block that does not; nothing has been decrypted.
fn verify_run(
    key: &AeadKey,
    count: usize,
    nonce: impl Fn(usize) -> Nonce,
    tag_matches: impl Fn(usize, &[u8; 32]) -> bool,
) -> Result<(), BatchAeadError> {
    let mut failed = None;
    keystream_run(
        key,
        count,
        &mut failed,
        |_, i| nonce(i),
        |_, _| 0..=0,
        |failed, i, _, ks| {
            let otk = ks[..32].try_into().expect("one-time key");
            if failed.is_none() && !tag_matches(i, otk) {
                *failed = Some(i);
            }
        },
    );
    failed.map_or(Ok(()), |index| Err(BatchAeadError { index }))
}

/// Verifies and decrypts a batch of blocks in place.
///
/// Every tag is checked **before** any block is decrypted; on failure the
/// whole batch is left ciphertext and the error carries the index of the
/// first failing block (exact tamper attribution, no bisection needed —
/// each block keeps its own tag). Equivalent to per-block [`open`] calls
/// byte for byte.
pub fn open_batch(
    key: &AeadKey,
    nonces: &[Nonce],
    aads: &[&[u8]],
    blocks: &mut [&mut [u8]],
    tags: &[[u8; TAG_LEN]],
) -> Result<(), BatchAeadError> {
    let count = nonces.len();
    assert!(
        aads.len() == count && blocks.len() == count && tags.len() == count,
        "open_batch slice lengths must match"
    );
    verify_run(
        key,
        count,
        |i| nonces[i],
        |i, otk| tags_equal(&compute_tag(otk, aads[i], blocks[i]), &tags[i]),
    )?;
    keystream_run(
        key,
        count,
        blocks,
        |_, i| nonces[i],
        |blocks, i| 1..=payload_blocks(blocks[i].len()),
        |blocks, i, counter, ks| {
            let block = &mut *blocks[i];
            let len = block.len();
            xor_bytes(&mut block[covered(counter, len)], ks);
        },
    );
    Ok(())
}

/// Verifies and decrypts a run in the sealed-storage layout (see
/// [`seal_run`]): block `i` of `sealed` is authenticated under `aad(i)`
/// and its plaintext written to `plain[i * payload_len..]`. Every tag is
/// checked before any byte of `plain` is written; the error carries the
/// first failing block's position in the run.
pub fn open_run(
    key: &AeadKey,
    payload_len: usize,
    sealed: &[u8],
    plain: &mut [u8],
    aad: impl Fn(usize) -> [u8; 16],
) -> Result<(), BatchAeadError> {
    let stride = NONCE_LEN + payload_len + TAG_LEN;
    let count = sealed.len() / stride;
    assert!(
        sealed.len() == count * stride && plain.len() == count * payload_len,
        "open_run buffers must hold a whole number of blocks"
    );
    let block = |i: usize| &sealed[i * stride..(i + 1) * stride];
    let nonce = |i: usize| Nonce(block(i)[..NONCE_LEN].try_into().expect("nonce length"));
    let ciphertext = |i: usize| &block(i)[NONCE_LEN..stride - TAG_LEN];
    verify_run(key, count, nonce, |i, otk| {
        let tag = block(i)[stride - TAG_LEN..].try_into().expect("tag length");
        tags_equal(&compute_tag(otk, &aad(i), ciphertext(i)), tag)
    })?;
    keystream_run(
        key,
        count,
        plain,
        |_, i| nonce(i),
        |_, _| 1..=payload_blocks(payload_len),
        |plain, i, counter, ks| {
            let range = covered(counter, payload_len);
            let dst = &mut plain[i * payload_len..(i + 1) * payload_len];
            xor_into(&mut dst[range.clone()], &ciphertext(i)[range], ks);
        },
    );
    Ok(())
}

/// Verifies the tag and decrypts `ciphertext` in place.
///
/// On failure the buffer is left in its (still encrypted) input state and
/// `Err(AeadError)` is returned.
pub fn open(
    key: &AeadKey,
    nonce: &Nonce,
    aad: &[u8],
    ciphertext: &mut [u8],
    tag: &[u8; TAG_LEN],
) -> Result<(), AeadError> {
    open_batch(key, &[*nonce], &[aad], &mut [ciphertext], &[*tag]).map_err(|_| AeadError)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RFC 8439 §2.8.2 AEAD test vector (tag check).
    #[test]
    fn rfc8439_aead_vector() {
        let mut key = [0u8; 32];
        for (i, b) in key.iter_mut().enumerate() {
            *b = 0x80 + i as u8;
        }
        let nonce = Nonce([0x07, 0x00, 0x00, 0x00, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47]);
        let aad: [u8; 12] =
            [0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7];
        let mut plaintext = *b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let tag = seal(&AeadKey(key), &nonce, &aad, &mut plaintext);
        let expected_tag: [u8; 16] = [
            0x1a, 0xe1, 0x0b, 0x59, 0x4f, 0x09, 0xe2, 0x6a, 0x7e, 0x90, 0x2e, 0xcb, 0xd0, 0x60,
            0x06, 0x91,
        ];
        assert_eq!(tag, expected_tag);
        // First ciphertext bytes from the RFC.
        assert_eq!(
            &plaintext[..16],
            &[
                0xd3, 0x1a, 0x8d, 0x34, 0x64, 0x8e, 0x60, 0xdb, 0x7b, 0x86, 0xaf, 0xbc, 0x53, 0xef,
                0x7e, 0xc2
            ]
        );
    }

    #[test]
    fn roundtrip() {
        let key = AeadKey([5u8; 32]);
        let nonce = Nonce::from_parts(1, 99);
        let aad = b"table:0,block:7,rev:3";
        let mut data = b"the quick brown fox".to_vec();
        let tag = seal(&key, &nonce, aad, &mut data);
        open(&key, &nonce, aad, &mut data, &tag).unwrap();
        assert_eq!(&data, b"the quick brown fox");
    }

    #[test]
    fn tamper_ciphertext_detected() {
        let key = AeadKey([5u8; 32]);
        let nonce = Nonce::from_parts(0, 0);
        let mut data = vec![1u8; 64];
        let tag = seal(&key, &nonce, b"", &mut data);
        data[10] ^= 1;
        assert_eq!(open(&key, &nonce, b"", &mut data, &tag), Err(AeadError));
    }

    #[test]
    fn tamper_aad_detected() {
        let key = AeadKey([5u8; 32]);
        let nonce = Nonce::from_parts(0, 0);
        let mut data = vec![1u8; 64];
        let tag = seal(&key, &nonce, b"rev:1", &mut data);
        assert_eq!(open(&key, &nonce, b"rev:2", &mut data, &tag), Err(AeadError));
    }

    #[test]
    fn wrong_key_detected() {
        let nonce = Nonce::from_parts(0, 0);
        let mut data = vec![9u8; 32];
        let tag = seal(&AeadKey([1u8; 32]), &nonce, b"", &mut data);
        assert_eq!(open(&AeadKey([2u8; 32]), &nonce, b"", &mut data, &tag), Err(AeadError));
    }

    #[test]
    fn wrong_nonce_detected() {
        let key = AeadKey([1u8; 32]);
        let mut data = vec![9u8; 32];
        let tag = seal(&key, &Nonce::from_parts(0, 1), b"", &mut data);
        assert_eq!(open(&key, &Nonce::from_parts(0, 2), b"", &mut data, &tag), Err(AeadError));
    }

    #[test]
    fn nonce_from_parts_is_injective_on_counter() {
        assert_ne!(Nonce::from_parts(3, 1), Nonce::from_parts(3, 2));
        assert_ne!(Nonce::from_parts(3, 1), Nonce::from_parts(4, 1));
    }

    #[test]
    fn batch_matches_per_block_seal_and_open() {
        let key = AeadKey([0x33u8; 32]);
        for count in [0usize, 1, 2, 5, 9] {
            let nonces: Vec<Nonce> = (0..count).map(|i| Nonce::from_parts(7, i as u64)).collect();
            let aad_bufs: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8; i % 5]).collect();
            let aads: Vec<&[u8]> = aad_bufs.iter().map(|a| a.as_slice()).collect();
            let mut serial: Vec<Vec<u8>> =
                (0..count).map(|i| vec![(i * 3) as u8; 100 + i]).collect();
            let mut batch = serial.clone();

            let serial_tags: Vec<[u8; TAG_LEN]> =
                (0..count).map(|i| seal(&key, &nonces[i], aads[i], &mut serial[i])).collect();
            let mut batch_tags = vec![[0u8; TAG_LEN]; count];
            {
                let mut views: Vec<&mut [u8]> =
                    batch.iter_mut().map(|b| b.as_mut_slice()).collect();
                seal_batch(&key, &nonces, &aads, &mut views, &mut batch_tags);
            }
            assert_eq!(serial, batch, "{count} blocks: ciphertext");
            assert_eq!(serial_tags, batch_tags, "{count} blocks: tags");

            let mut views: Vec<&mut [u8]> = batch.iter_mut().map(|b| b.as_mut_slice()).collect();
            open_batch(&key, &nonces, &aads, &mut views, &batch_tags).unwrap();
            for (i, plain) in batch.iter().enumerate() {
                assert_eq!(plain, &vec![(i * 3) as u8; 100 + i]);
            }
        }
    }

    #[test]
    fn batch_open_reports_first_failing_index_and_decrypts_nothing() {
        let key = AeadKey([0x44u8; 32]);
        let count = 6usize;
        let nonces: Vec<Nonce> = (0..count).map(|i| Nonce::from_parts(1, i as u64)).collect();
        let aads: Vec<&[u8]> = vec![b"aad"; count];
        let mut blocks: Vec<Vec<u8>> = (0..count).map(|i| vec![i as u8; 64]).collect();
        let mut tags = vec![[0u8; TAG_LEN]; count];
        {
            let mut views: Vec<&mut [u8]> = blocks.iter_mut().map(|b| b.as_mut_slice()).collect();
            seal_batch(&key, &nonces, &aads, &mut views, &mut tags);
        }
        let sealed = blocks.clone();
        blocks[3][10] ^= 1;
        blocks[5][0] ^= 1;
        let mut views: Vec<&mut [u8]> = blocks.iter_mut().map(|b| b.as_mut_slice()).collect();
        let err = open_batch(&key, &nonces, &aads, &mut views, &tags).unwrap_err();
        assert_eq!(err.index, 3, "first failing block wins");
        // Nothing was decrypted: untampered blocks are still ciphertext.
        assert_eq!(blocks[0], sealed[0]);
        assert_eq!(blocks[4], sealed[4]);
    }

    #[test]
    fn aead_key_zeroize_clears_bytes() {
        let mut key = AeadKey([0xAB; 32]);
        key.zeroize();
        assert_eq!(key.0, [0u8; 32]);
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let key = AeadKey([8u8; 32]);
        let nonce = Nonce::from_parts(0, 7);
        let mut data = Vec::new();
        let tag = seal(&key, &nonce, b"aad", &mut data);
        open(&key, &nonce, b"aad", &mut data, &tag).unwrap();
    }
}
