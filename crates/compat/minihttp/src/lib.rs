//! `minihttp` — a dependency-free HTTP/1.1 + JSON layer.
//!
//! The build environment has no crates.io access, so the serving front
//! end cannot pull `hyper`/`serde_json`. This crate is the in-tree
//! substitute, in the same spirit as the `rand`/`proptest` shims next
//! door: the *smallest* std-only implementation that serves the
//! workspace's needs, not a general web framework. Unlike its
//! compat siblings it mirrors no specific crates.io API — there is no
//! single de-facto std-only HTTP crate to be drop-in-compatible with —
//! so the API is its own, kept deliberately tiny:
//!
//! * [`json`]: a JSON tree ([`json::Json`]), a strict recursive-descent
//!   parser with a nesting-depth cap ([`json::parse`], also the
//!   parser behind `tools/`), the same parser decoding a request's
//!   `params.points` straight into points ([`json::parse_request`]),
//!   and a deterministic serializer (`Display`; `BTreeMap` objects
//!   render in key order).
//! * [`http`]: a bounded, thread-per-connection HTTP/1.1 server
//!   ([`http::Server`]) with keep-alive and graceful stop, plus the
//!   blocking client ([`http::request`]) the tests and the load smoke
//!   use.
//!
//! Everything here is synchronous and bounded: request heads and bodies
//! have explicit size limits, malformed input is answered with a 4xx
//! (never a panic or a hang), and all output is deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod http;
pub mod json;
