//! The experiment harness: one regenerator per table and figure of the
//! paper's evaluation (§III and §VII).
//!
//! Each function in [`figures`] computes the data behind one figure and
//! returns it as a plain struct, so the `repro` binary can print it and
//! the integration tests can assert the paper's *shape claims* (who wins,
//! by roughly what factor, where crossovers fall) without parsing text.
//!
//! Large-frame FPS costs use the closed-form operation counts
//! ([`hgpcn_sampling::fps::analytic_counts`]), which are property-tested
//! against the instrumented sampler; every OIS/VEG number comes from
//! actually executing the algorithms on generated frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
