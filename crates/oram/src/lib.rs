//! Path ORAM over sealed untrusted storage (paper Appendix B).
//!
//! Oblivious RAM hides *which* logical block an access targets: any two
//! access sequences of the same length are indistinguishable to the
//! adversary observing the untrusted memory. ObliDB instantiates its
//! indexed storage method with the Path ORAM of Stefanov et al. (CCS'13):
//!
//! * Sealed blocks are arranged in a complete binary tree of buckets, each
//!   holding [`Z`] = 4 slots.
//! * A **position map** inside the enclave assigns every logical address a
//!   random leaf; the block lives somewhere on the root→leaf path.
//! * Every access reads one whole path, remaps the target to a fresh random
//!   leaf, and writes the same path back (evicting stash blocks greedily).
//!
//! The position map costs 8 bytes of oblivious memory per logical address
//! (paper §3.3, Figure 3 footnote). A [`PosMapKind::Recursive`] variant
//! stores the map in a second ORAM, trading a ~2× slowdown for a ~32×
//! smaller in-enclave map (paper Appendix B) — ObliDB defaults to the
//! non-recursive map, as the paper's implementation does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod path_oram;

pub use bucket::{Bucket, Slot, DUMMY_ADDR};
pub use path_oram::{OramError, OramStats, PathOram, PosMapKind, Z};
