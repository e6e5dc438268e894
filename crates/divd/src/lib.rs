//! `divd` — the durable campaign daemon.
//!
//! Long-running service form of the `divlab campaign` command: clients
//! submit campaign specs over HTTP, a bounded fair queue feeds a worker
//! pool running the shared campaign engine, and every state transition
//! is journalled to a WAL-style oplog (`div-oplog`) so a `kill -9` at
//! any instant loses at most the uncommitted tail.  On restart the
//! daemon replays the oplog, re-queues unfinished work and resumes
//! interrupted campaigns from their journalled trial outcomes — the
//! resumed report is byte-identical to an uninterrupted run's.
//!
//! | Method | Path                     | Purpose                              |
//! |--------|--------------------------|--------------------------------------|
//! | POST   | `/campaigns`             | submit a spec (`429` when queue full)|
//! | GET    | `/campaigns`             | one-line listing of every job        |
//! | GET    | `/campaigns/{id}`        | job status                           |
//! | GET    | `/campaigns/{id}/results`| stream per-trial outcomes (live)     |
//! | GET    | `/campaigns/{id}/report` | final campaign report                |
//! | DELETE | `/campaigns/{id}`        | cancel (partial report kept)         |
//! | GET    | `/status`                | daemon gauges (queue depth, …)       |
//! | GET    | `/healthz`               | liveness                             |
//! | POST   | `/admin/drain`           | graceful drain (same path as SIGTERM)|
//!
//! See `DESIGN.md` §10 for the oplog format, the replay algorithm and
//! the crash matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod daemon;
pub mod job;

pub use daemon::{Daemon, DaemonConfig};
pub use div_bench::spec::CampaignSpec as JobSpec;
pub use job::JobState;
