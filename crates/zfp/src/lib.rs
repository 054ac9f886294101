//! # pqr-zfp — transform-based progressive compression (ZFP stand-in)
//!
//! The paper's Definition 1 admits *any* error-controlled progressive
//! compressor, and names ZFP (reference \[4\]) alongside PMGARD as the two
//! families with a progressive-precision reconstruction feature. This crate
//! is the workspace's ZFP stand-in: a block-transform codec whose precision
//! streams progressively through globally aligned bitplanes.
//!
//! What the paper used → what we built → why the substitution preserves the
//! relevant behaviour:
//!
//! * **ZFP's lifted block transform** → an exactly reversible two-level
//!   S-transform in the same 4^d block/axis pattern ([`transform`]). Exact
//!   reversibility makes the full-fetch floor a pure fixed-point rounding
//!   bound, which the retrieval engine can model tightly.
//! * **ZFP's embedded group-testing coder** → negabinary digits
//!   ([`negabinary`]) regrouped into absolute bitplanes shared across
//!   blocks, RLE-compressed ([`stream`]). Same progression granularity
//!   (one plane ≈ one bit of precision per sample), same per-block-exponent
//!   adaptivity; absolute ratios differ from real ZFP, shapes do not.
//!
//! A [`ZfpStream`] splits into metadata ([`ZfpMeta`]) and plane payloads,
//! and a [`ZfpCursor`] decodes the planes pushed into it — the same
//! metadata/cursor contract as the MGARD substrate, so `pqr-progressive`
//! exposes it as just another [`Scheme`] behind the engine.
//!
//! [`Scheme`]: https://docs.rs/pqr-progressive
//!
//! ## Quick example
//!
//! ```
//! use pqr_zfp::{ZfpCursor, ZfpRefactorer};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
//! let (meta, planes) = ZfpRefactorer::new().refactor(&data, &[4096]).unwrap().into_parts();
//! let mut cursor = ZfpCursor::new(meta);
//! // planes arrive most significant first; stop once the bound is met
//! for plane in &planes {
//!     if cursor.guaranteed_bound() <= 1e-4 {
//!         break;
//!     }
//!     cursor.push_plane(plane).unwrap();
//! }
//! assert!(cursor.guaranteed_bound() <= 1e-4);
//! let approx = cursor.reconstruct();
//! assert_eq!(approx.len(), data.len());
//! ```

pub mod block;
pub mod negabinary;
pub mod stream;
pub mod transform;

pub use stream::{ZfpCursor, ZfpMeta, ZfpRefactorer, ZfpStream, MAX_TOTAL_PLANES, Q};
