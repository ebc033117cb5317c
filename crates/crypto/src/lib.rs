//! From-scratch cryptographic primitives for ObliDB.
//!
//! The paper's implementation uses the Intel SGX SDK for encryption, MACs,
//! and hashing. This offline reproduction provides the same capabilities:
//!
//! * [`chacha::ChaCha20`] — the RFC 8439 stream cipher.
//! * [`poly1305::Poly1305`] — the RFC 8439 one-time authenticator
//!   (64-bit limbs, the crate's only MAC).
//! * [`aead`] — ChaCha20-Poly1305 authenticated encryption with associated
//!   data, used to seal every block that leaves the enclave.
//! * [`mod@sha256`] / [`hmac`] — hashing and keyed MACs for key derivation.
//! * [`siphash`] — SipHash-2-4, the keyed PRF used by the oblivious Hash
//!   SELECT operator's double hashing (paper §4.1) and by grouped
//!   aggregation bucketing.
//! * [`simd`] — runtime-dispatched SSE2/AVX2 multi-block ChaCha20 kernels
//!   (scalar fallback everywhere else), feeding [`chacha::ChaCha20::blocks4`],
//!   [`chacha::ChaCha20::apply_keystream_multi`], and the AEAD's lane
//!   schedule ([`aead::seal_batch`] / [`aead::open_batch`] and the strided
//!   [`aead::seal_run`] / [`aead::open_run`]), which fills the kernels'
//!   lanes across block boundaries.
//!
//! All primitives are validated against published test vectors in the unit
//! tests and by property-based round-trip/tamper tests; every SIMD path is
//! property-tested byte-identical to the scalar reference.

// `unsafe` is denied crate-wide; the only exemption is the `simd` module,
// whose `core::arch` intrinsic calls are feature-gated and checked at
// runtime.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aead;
pub mod chacha;
pub mod hmac;
pub mod poly1305;
pub mod sha256;
#[allow(unsafe_code)]
pub mod simd;
pub mod siphash;

pub use aead::{
    open, open_batch, open_run, seal, seal_batch, seal_run, AeadError, AeadKey, BatchAeadError,
    Nonce, TAG_LEN,
};
pub use hmac::hmac_sha256;
pub use sha256::sha256;
pub use siphash::SipHash24;

/// Derives a subkey from a master key and a domain-separation label.
///
/// ObliDB derives one key per table region from the enclave master key so a
/// sealed block from one table can never authenticate in another.
pub fn derive_key(master: &[u8; 32], label: &[u8]) -> [u8; 32] {
    hmac_sha256(master, label)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_keys_differ_by_label() {
        let master = [7u8; 32];
        let a = derive_key(&master, b"table:0");
        let b = derive_key(&master, b"table:1");
        assert_ne!(a, b);
    }

    #[test]
    fn derived_keys_differ_by_master() {
        let a = derive_key(&[1u8; 32], b"x");
        let b = derive_key(&[2u8; 32], b"x");
        assert_ne!(a, b);
    }

    #[test]
    fn derivation_is_deterministic() {
        let master = [9u8; 32];
        assert_eq!(derive_key(&master, b"t"), derive_key(&master, b"t"));
    }
}
