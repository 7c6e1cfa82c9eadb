//! # pnp-serve
//!
//! Tuning-as-a-service on top of the model registry (ISSUE 7, SERVING.md):
//!
//! * [`engine`] — registry-driven cold start (load + fit-check every cached
//!   grid, restore one shared [`pnp_core::TuneService`] per machine) and
//!   batched inference over the in-tree `pnp_openmp` thread pool.
//! * [`protocol`] — the length-prefixed JSON wire protocol: frame I/O plus
//!   the [`protocol::Request`]/[`protocol::Response`] envelopes around
//!   `pnp_core::serving`'s tune types.
//! * [`server`] — TCP (and stdio) serving with the cross-connection
//!   batching dispatcher, admission control and per-request deadlines
//!   (DESIGN.md §17), and the blocking [`server::Client`].
//!
//! Two binaries ship with the crate: `pnp_serve` (the daemon) and
//! `pnp_load` (the load generator behind `BENCH_serve.json`). The
//! prediction math itself lives in `pnp_core::serving` next to the training
//! pipelines, which is what makes served predictions bit-identical to the
//! offline predict path (DESIGN.md §14) — this crate only adds I/O,
//! batching, and operations around it.

pub mod engine;
pub mod protocol;
pub mod server;

pub use engine::{EngineConfig, ServeEngine, StartupReport};
pub use protocol::{
    read_frame, read_message, write_frame, write_message, RejectReason, Request, Response,
    ServeStats, MAX_FRAME, PROTOCOL_VERSION,
};
pub use server::{serve, serve_stdio, Client, Clock, ServeConfig, DEFAULT_MAX_BATCH};
