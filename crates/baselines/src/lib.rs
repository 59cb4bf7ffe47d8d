//! Comparator approximation algorithms from the PTA paper's evaluation
//! (§2.2, §7).
//!
//! * [`mod@atc`] — approximate temporal coalescing (Berberich et al.): local
//!   error-threshold merging over sequential relations; the only
//!   competitor that handles gaps and aggregation groups.
//! * [`mod@paa`] — piecewise aggregate approximation (Keogh & Pazzani; Yi &
//!   Faloutsos): `c` equal-length segments.
//! * [`mod@dwt`] — discrete Haar wavelet approximation (top-`k` coefficients),
//!   with the incremental machinery needed to search a coefficient count
//!   whose reconstruction has a target segment count.
//! * [`mod@apca`] — adaptive piecewise constant approximation (Chakrabarti et
//!   al.): DWT reconstruction, true segment means, greedy merge to `c`.
//! * [`mod@dft`] — discrete Fourier approximation (top-`c` conjugate pairs).
//! * [`mod@chebyshev`] — Chebyshev polynomial approximation (Cai & Ng).
//! * [`mod@sax`] — symbolic aggregate approximation (Lin et al.), a
//!   related-work extension.
//! * [`mod@amnesic`] — amnesic piecewise-constant approximation (Palpanas et
//!   al.); with unit weights it coincides with size-bounded PTA.
//! * [`mod@pla`] — the swing-filter piecewise-linear stream method
//!   (Elmeleegy et al.) with its L∞ guarantee.
//!
//! All time-series methods operate on a [`DenseSeries`] — the per-chronon
//! expansion of a gap-free, single-group sequential relation. Their errors
//! are the same time-weighted SSE PTA minimizes, so curves are directly
//! comparable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod amnesic;
pub mod apca;
pub mod atc;
pub mod chebyshev;
pub mod dft;
pub mod dwt;
pub mod error;
pub mod paa;
pub mod pla;
pub mod sax;
pub mod summarize;

pub use amnesic::{amnesic_size_bounded, linear_amnesia};
pub use apca::apca;
pub use atc::{atc, atc_size_targeted, atc_sweep, AtcRun};
pub use chebyshev::chebyshev;
pub use dft::dft;
pub use dwt::{dwt_for_size, dwt_top_k, DwtTable, Padding};
pub use error::BaselineError;
pub use paa::paa;
pub use pla::{swing_filter, PiecewiseLinear};
pub use pta_core::series::{DenseSeries, PiecewiseConstant};
pub use sax::{sax, SaxOutput};
pub use summarize::{registry, summarizer, summarizer_names};

/// Crate-local result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;
