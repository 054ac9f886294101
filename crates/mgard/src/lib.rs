//! # pqr-mgard — multilevel decomposition + bitplane encoding (PMGARD stand-in)
//!
//! The paper's third progressive family (§V-B) is PMGARD: MGARD's multilevel
//! decomposition combined with per-level bitplane encoding, giving
//! progression in precision with guaranteed L∞ control. The paper's
//! optimisation — **PMGARD-HB** — drops MGARD's L2 projection so that the
//! reconstruction error is *accurately* estimated by summing per-level
//! coefficient errors, instead of going through MGARD's pessimistic
//! multilevel constants. This crate implements both bases from scratch:
//!
//! * [`Basis::Hierarchical`] (HB): fine-node coefficient = value − linear
//!   interpolation of its two coarse neighbours along the active axis.
//!   Interpolation is a convex combination, so an error `e_l` on level-`l`
//!   coefficients adds at most `d·e_l` to the reconstruction (one convex
//!   step per axis pass) — the tight estimator of PMGARD-HB.
//! * [`Basis::Orthogonal`] (OB): HB plus an L2-projection correction of the
//!   coarse nodes per axis pass (linear-FEM mass-matrix tridiagonal solve,
//!   MGARD-style). Exactly invertible at full precision, but the guaranteed
//!   L∞ estimate must compound a per-level operator constant κ — see
//!   [`error_est`] — reproducing the over-retrieval gap of Fig. 3.
//!
//! The decomposition works on arbitrary (non power-of-two) extents in 1–3+
//! dimensions, dimension by dimension on the dyadic hierarchy. Coefficients
//! of each level are encoded most-significant-bitplane first
//! ([`bitplane`]), each plane an independently fetchable segment. An
//! [`MgardCursor`] plans planes greedily (largest current error
//! contribution first) until the modeled L∞ bound meets a request, and
//! decodes the plane bytes its owner pushes in from wherever they are
//! stored.
//!
//! ## Example
//!
//! ```
//! use pqr_mgard::{Basis, MgardCursor, MgardRefactorer};
//!
//! let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.003).sin()).collect();
//! let refactorer = MgardRefactorer::new(Basis::Hierarchical);
//! let (meta, planes) = refactorer.refactor(&data, &[4096]).unwrap().into_parts();
//! // planes are stored level-major; `first[l]` indexes level l's first plane
//! let first: Vec<usize> = meta
//!     .levels()
//!     .iter()
//!     .scan(0, |next, l| Some(std::mem::replace(next, *next + l.num_planes as usize)))
//!     .collect();
//! let mut cursor = MgardCursor::new(meta);
//! for (level, plane) in cursor.plan_to_bound(1e-4) {
//!     cursor.push_plane(level, &planes[first[level] + plane]).unwrap();
//! }
//! let recon = cursor.reconstruct();
//! let worst = data.iter().zip(&recon).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
//! assert!(worst <= cursor.guaranteed_bound());
//! assert!(cursor.guaranteed_bound() <= 1e-4);
//! ```

pub mod bitplane;
pub mod error_est;
pub mod hierarchy;
pub mod projection;
pub mod refactor;
pub mod retrieve;
pub mod transform;

pub use refactor::{LevelMeta, MgardMeta, MgardRefactorer, MgardStream};
pub use retrieve::MgardCursor;
pub use transform::Basis;
