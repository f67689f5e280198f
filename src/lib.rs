//! # gdf — gate delay fault ATPG for non-scan sequential circuits
//!
//! A from-scratch Rust reproduction of *van Brakel, Gläser, Kerkhoff,
//! Vierhaus: "Gate Delay Fault Test Generation for Non-Scan Circuits",
//! DATE 1995*. This facade crate re-exports the whole workspace:
//!
//! * [`netlist`] — circuits, the ISCAS'89 `.bench` parser, the unified
//!   fault universe, SCOAP measures and the benchmark suite;
//! * [`algebra`] — the 8-valued robust delay algebra (paper Tables 1–2),
//!   the 5-valued static D-algebra and 3-valued logic;
//! * [`sim`] — good-machine simulation, FAUSIM and TDsim;
//! * [`tdgen`] — the combinational two-frame robust delay-fault generator;
//! * [`semilet`] — FOGBUSTER propagation / initialization and standalone
//!   sequential stuck-at ATPG;
//! * [`core`] — the **unified engine API**: one builder over the
//!   extended-FOGBUSTER driver, the enhanced-scan baseline and the
//!   sequential stuck-at backend, with streaming observation and
//!   deterministic fault-parallel orchestration — plus the **session
//!   layer** (`core::session`, `core::artifact`): persistent run
//!   artifacts, checkpoint/resume that is byte-identical to an
//!   uninterrupted run, resumable multi-circuit campaigns, and
//!   standalone re-grading of saved pattern sets. The `gdf` binary
//!   (`gdf run` / `resume` / `grade` / `campaign` / `report`) drives all
//!   of it from the command line over `.bench` files and JSON artifacts;
//! * [`serve`] — the **job server**: a hand-rolled HTTP/1.1 service on
//!   `std::net` with a bounded job queue, a fixed worker pool,
//!   streaming progress events and checkpoint-backed crash recovery
//!   (`gdf serve`, with `gdf submit` / `status` / `fetch` / `cancel` as
//!   its remote controls). It drains gracefully on `SIGTERM`: stop
//!   accepting, checkpoint running jobs, persist the queue, exit 0;
//! * [`fleet`] — the **distributed campaign coordinator**: shards one
//!   campaign across N `gdf-serve` nodes by circuit and fault-universe
//!   range, with a persistent schema-versioned plan (`fleet.json`),
//!   health probing over `GET /metrics`, work stealing from dead or slow
//!   nodes, and a deterministic merge whose artifacts are byte-identical
//!   in canonical encoding to a single-node run (`gdf campaign --fleet`,
//!   `gdf fleet status`);
//! * [`store`] — the **content-addressed artifact store**: objects keyed
//!   by a 128-bit digest of their canonical encoding, refcounted named
//!   handles, mark-and-sweep `gc()`, and the **exact result cache**
//!   keyed by `(circuit digest, RunConfig digest)` that lets `gdf serve`
//!   answer duplicate submissions instantly and the fleet coordinator
//!   skip already-computed shards — plus **bloom-gated campaign
//!   compaction** (`gdf compact`) emitting one global compacted pattern
//!   document verified by re-grading;
//! * [`obs`] — **observability**: the unified metrics registry
//!   (counters, gauges, log-bucketed histograms with exact quantiles,
//!   one Prometheus text encoder behind `GET /metrics`), digest-derived
//!   structured tracing propagated across nodes via `X-Gdf-Trace`
//!   (`gdf trace export --chrome` converts a job trace for
//!   chrome://tracing), engine profiling hooks (`core::phase`) feeding
//!   per-phase histograms and per-job `profile` blocks, and the
//!   `gdf top` / `gdf fleet top` live dashboards. Strictly a side
//!   channel: canonical artifact bytes are identical with it on or off;
//! * [`tenant`] — **multi-tenant admission control**: the
//!   schema-versioned `tenants.json` bearer-token registry with
//!   constant-time token comparison, per-tenant quotas (max queued, max
//!   running, requests/second via a hand-rolled token bucket), priority
//!   classes, and a weighted deficit round-robin scheduler with
//!   deterministic tie-breaks. `gdf serve --tenants FILE` turns it on;
//!   without a registry the server runs open, in one FIFO lane. Over-
//!   quota submissions get `429 + Retry-After` (the tenant's problem),
//!   saturation keeps `503` (the server's problem), and per-tenant
//!   `gdf_tenant_*` metrics join `/metrics` and `gdf top`. The
//!   `bench_serve` bin load-tests the whole stack with thousands of
//!   concurrent clients.
//!
//! ## Quickstart
//!
//! Every backend is constructed through `Atpg::builder` and driven
//! through the [`core::AtpgEngine`] trait:
//!
//! ```
//! use gdf::core::{Atpg, Backend};
//! use gdf::netlist::suite;
//!
//! let circuit = suite::s27();
//! let mut engine = Atpg::builder(&circuit)
//!     .backend(Backend::NonScan) // or EnhancedScan / StuckAt
//!     .seed(0x1995)
//!     .build();
//! let run = engine.run();
//! println!("{}", run.report.row);
//! assert!(run.report.row.tested > 0);
//! ```
//!
//! The builder also takes `.model(…)` (robust / non-robust),
//! `.universe(…)`, `.limits(…)` (all search budgets, paper defaults),
//! `.observer(…)` (streaming per-fault records, progress, cooperative
//! cancellation), `.time_budget(…)`, and `.parallelism(n)` — fault-level
//! parallel generation whose results are **identical to a serial run**
//! for the same seed:
//!
//! ```
//! use gdf::core::{Atpg, Backend};
//! use gdf::netlist::suite;
//!
//! let circuit = suite::s27();
//! let serial = Atpg::builder(&circuit).build().run();
//! let parallel = Atpg::builder(&circuit).parallelism(4).build().run();
//! assert_eq!(serial.records, parallel.records);
//! assert_eq!(serial.sequences, parallel.sequences);
//! ```
//!
//! The pre-engine entry points remain available:
//! `core::DelayAtpg::new(&circuit).run()` is the serial non-scan run
//! with default limits (see the `MIGRATION` section in `CHANGES.md` for
//! the full old-to-new mapping).

pub use gdf_algebra as algebra;
pub use gdf_core as core;
pub use gdf_fleet as fleet;
pub use gdf_netlist as netlist;
pub use gdf_obs as obs;
pub use gdf_semilet as semilet;
pub use gdf_serve as serve;
pub use gdf_sim as sim;
pub use gdf_store as store;
pub use gdf_tdgen as tdgen;
pub use gdf_tenant as tenant;
