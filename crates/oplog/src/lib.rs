//! Durable operation log for the DIV lab services.
//!
//! Two building blocks, both dependency-free:
//!
//! * [`atomic_write`] — the one audited durability sequence for whole-file
//!   replacement: write a temp sibling, `fsync` it, atomically rename it
//!   over the destination, then `fsync` the parent directory so the
//!   rename itself survives a crash.  Checkpoint manifests, analysis
//!   reports and oplog seals all go through this helper.
//! * [`Oplog`] — an append-only operation log with WAL-style crash
//!   recovery.  Operations are grouped into **bundles**: a bundle either
//!   fully commits (length-prefixed, checksummed frame + `fsync`) or is
//!   discarded on replay.  A `kill -9` at any instant loses at most the
//!   uncommitted tail; [`Oplog::open`] detects the torn tail, reports it,
//!   and truncates the file back to its last valid frame before new
//!   appends.  A failed append is rolled back the same way at once, so
//!   one failed commit never hides later ones.
//! * [`read_range`] — reads back the bundles between two recorded
//!   offsets ([`Oplog::len`], [`Bundle::offset`]), decoded and
//!   checksum-checked exactly as replay does, so a reader can keep a
//!   byte range instead of the ops themselves.
//!
//! # Frame format
//!
//! The file starts with a 16-byte header, `b"div-oplog v1\n\0\0\0"`.
//! Every frame after it is
//!
//! ```text
//! magic  u32le  0x4F564944 ("DIVO")
//! kind   u8     1 = bundle, 2 = seal
//! seq    u64le  1-based, strictly incrementing by 1
//! len    u32le  payload length in bytes (≤ 16 MiB)
//! crc    u32le  CRC-32 (IEEE) over kind ‖ seq ‖ len ‖ payload
//! payload [len bytes]   UTF-8 op lines, `\n`-separated (empty for seal)
//! ```
//!
//! Replay walks frames from the header; the first violation — truncated
//! header, bad magic, unknown kind, out-of-order seq, oversized len,
//! short payload, or checksum mismatch — ends the valid prefix.  Nothing
//! after it is applied, so a half-written bundle can never half-apply.
//!
//! # Seals
//!
//! [`Oplog::seal`] appends a seal frame, fsyncs, and records a sidecar
//! (`<log>.seal`, written with [`atomic_write`]) naming the sealed
//! length.  A graceful shutdown seals its log; the next [`Oplog::open`]
//! verifies the sidecar against what replay actually found, reports the
//! verdict in [`Replay::seal_intact`], and removes the sidecar before
//! appends resume.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod crc32;
mod log;

pub use atomic::atomic_write;
pub use crc32::crc32;
pub use log::{
    escape_op, read_range, unescape_op, Bundle, Oplog, Replay, TornTail, MAX_PAYLOAD_BYTES,
};
