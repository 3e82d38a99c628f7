//! `iddq serve` — a hardened fault-simulation service.
//!
//! A long-running daemon exposing the workspace's simulation and
//! analysis engines over a JSON-lines TCP protocol, built for graceful
//! failure: bounded admission, per-request deadlines, tier degradation
//! under pressure, panic-isolated workers, and job-keyed checkpoints
//! that survive a crash.
//!
//! # Protocol
//!
//! One request is one JSON object on one line; one response is one JSON
//! object on one line. Responses to *work* ops are written by worker
//! threads and may arrive out of order when a client pipelines — the
//! client-chosen `id` is echoed verbatim for correlation. Admin ops
//! (`ping`, `metrics`, `drain`) are answered inline on the connection
//! thread so they work even when the worker pool is saturated.
//!
//! | op | kind | needs | result highlights |
//! |----|------|-------|--------------------|
//! | `ping` | admin | — | liveness |
//! | `metrics` | admin | — | counters, queue depth, cache stats (`cache.aliases`: resident name and upload aliases; `cache.netlists_built`: named generations plus inline parses) |
//! | `drain` | admin | — | stop admitting, finish accepted work |
//! | `sim` | work | `circuit` \| `bench` | packed-pattern checksum, throughput |
//! | `faults` | work | `circuit` \| `bench` | fault coverage, detection digest, lane width |
//! | `stats` | work | `circuit` \| `bench` | structure + tiered analysis footprint |
//! | `sleep` | work | — | diagnostic worker occupancy |
//!
//! Common request fields: `id`, `seed`, `deadline_ms`, and for `faults`
//! a durable `job` key plus `vectors`/`bridges`/`drop`; `sim` takes
//! `patterns`; `stats` takes `tier` (`timing` | `gatesep`, the default;
//! `separation` is an alias of `gatesep`). Netlists come as a named
//! synthetic profile (`circuit`: `c*` names are ISCAS-85-like
//! combinational circuits, `s*` names ISCAS-89-like sequential ones,
//! generated at the request's `seed`, default 42) or inline `.bench`
//! text (`bench`). Work responses annotate `cache_hit` (served from the
//! in-memory artifact cache).
//!
//! # Artifact cache
//!
//! Compiled bundles are keyed by structural fingerprint. A named
//! request's `(circuit, seed)`, and an inline upload's whole `bench`
//! text, are also aliases of that fingerprint, so their hit path is
//! alias → lookup: no generation, no parse and no tier plan. A miss
//! generates (or parses) the netlist, looks it up by fingerprint, and
//! only then plans the tier and builds. A text that fails to parse
//! builds nothing, so it is parsed (and its error reported) on every
//! request.
//!
//! # Fault sweeps
//!
//! A `faults` job is an
//! [`iddq_logicsim::fault_sweep::SweepJob`] without an explicit width,
//! the same job `iddq faults --lanes auto` runs, so the rule lives in
//! `iddq-logicsim` and the CLI shares it: a fresh job runs at the width
//! [`LaneWidth::for_sweep`](iddq_netlist::LaneWidth::for_sweep) picks
//! from its `vectors` and `frames`, and a keyed job that resumes a
//! checkpoint runs at the checkpoint's recorded width, so a job
//! checkpointed at any width (by the daemon or by `iddq faults
//! --checkpoint`) still finishes bit-identically. The response reports
//! the width as `lanes`.
//!
//! # Client retry
//!
//! [`Client::call_with_retry`] with a [`RetryPolicy`] retries
//! `overloaded` responses (only — transport errors and typed errors are
//! surfaced immediately) with seeded-jitter exponential backoff that
//! honors the server's `retry_after_ms` hint as a floor.
//! `RetryPolicy::new(0, seed)` never retries — exactly the plain `call`
//! behaviour. The CLI flag is `--retries N` (default 3) on
//! `iddq serve --call`.
//!
//! # Chaos harness
//!
//! [`run_chaos`] (CLI: `iddq chaos`, `--smoke` for the CI leg) replays
//! hundreds of seeded fault-injection schedules — crash/restart loops
//! over checkpointed sweeps under injected ENOSPC / torn-write /
//! failed-rename / corrupt-read faults — asserting every completed run
//! is bit-identical to an uninterrupted one. All randomness is seeded:
//! a reported violation names the seed that reproduces it.
//!
//! # Failure semantics
//!
//! Every failure is a *typed response on the same connection* — the
//! server never tears a connection down on bad input and never lets a
//! request kill the process:
//!
//! * **`status: "error"`** — carries `error.kind` (`parse` | `invalid` |
//!   `checkpoint` | `internal` | `io`), the 1-based `error.line` within
//!   the connection, and a message. Malformed JSON, oversized lines
//!   (which are discarded without buffering), contract violations, and
//!   caught worker panics all land here.
//! * **`status: "overloaded"`** — admission control shed the request:
//!   the bounded queue was full or the server is draining. Carries
//!   `retry_after_ms`, an EWMA-based backoff hint scaled by queue depth.
//! * **`status: "partial"`** — the request's `deadline_ms` (or the
//!   server's global budget, or a kill) fired mid-run. The result holds
//!   everything completed plus `coverage` (fraction of planned work) and
//!   `stop_reason`. For `faults`, `result.grid_coverage` is the fraction
//!   of the (fault-shard × pattern-batch) grid that was fully swept.
//! * **Degraded tier** — under memory or deadline pressure a `stats`
//!   request is served at a *lower* analysis tier
//!   (`gatesep → timing`), never refused: the response
//!   annotates `tier`, `requested_tier`, `degraded` and
//!   `degrade_reason`. Only a cache miss is planned: a bundle already
//!   resident at (or above) the requested tier is served as it is, with
//!   `degraded: false`, whatever the deadline.
//!
//! # Operations runbook
//!
//! * **Start**: `iddq serve --addr 127.0.0.1:7171 --state-dir DIR`.
//!   Port `0` picks a free port (printed on stdout). `--workers`,
//!   `--queue`, `--cache-mb` size the pool, admission queue and artifact
//!   cache.
//! * **Health**: send `{"op":"ping"}`; watch `{"op":"metrics"}` for
//!   `shed`, `partial`, `degraded`, `panics_caught`, `worker_restarts`
//!   and cache hit rates. `iddq serve --call '<json>' --addr ...` is the
//!   one-shot CLI client.
//! * **Drain**: send `{"op":"drain"}` (or SIGINT-equivalent shutdown in
//!   the embedding process). The server stops admitting (new work is
//!   shed with `overloaded`), finishes every accepted job, then exits.
//! * **Crash recovery**: fault sweeps submitted with a `job` key write a
//!   fingerprinted checkpoint to `<state-dir>/<job>.ckpt.json` after
//!   every slice (atomic rename, never torn). After a crash or kill,
//!   resubmit the same request with the same `job` key against the same
//!   state directory: the server validates the checkpoint fingerprint —
//!   which binds the netlist structure, fault list, vectors, lane width
//!   and thread/shard grid — resumes the unswept grid cells only, and
//!   the finished result is bit-identical to an uninterrupted run
//!   (`result.digest` is the witness). A checkpoint from a different
//!   configuration is rejected with a typed `checkpoint` error, never
//!   silently resumed. Completed jobs delete their checkpoint.
//! * **Worker death**: panics are caught per-request; a worker that dies
//!   anyway is replaced by the supervisor without dropping the queue
//!   (`worker_restarts` counts replacements).
//! # Crate layout
//!
//! * [`protocol`] — wire types, request validation, typed errors.
//! * [`cache`] — netlist-fingerprint-keyed artifact cache (memory-ceiling
//!   LRU).
//! * [`server`] — listener, admission queue, workers, handlers.
//! * [`client`] — minimal blocking client plus bounded-retry policy.
//! * [`chaos`] — seeded fault-injection schedules over the serving path.
//! * [`smoke`] — the `--smoke` end-to-end scenario CI runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod protocol;
pub mod server;
pub mod smoke;

pub use cache::{ArtifactCache, Artifacts, CacheStats};
pub use chaos::{run_chaos, sweep_scenario, ChaosOptions, ChaosReport};
pub use client::{Client, RetryPolicy};
pub use protocol::{detection_digest, parse_request, Request, RequestError};
pub use server::{fault_universe, random_vectors, server_sweep_options, Server, ServerConfig};
pub use smoke::{run_smoke, SmokeReport};
