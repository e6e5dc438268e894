//! Append-only bundle log with torn-tail recovery.

use std::fs::{self, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::atomic::atomic_write;
use crate::crc32::crc32;

/// 16-byte file header; everything after it is frames.
const HEADER: &[u8; 16] = b"div-oplog v1\n\0\0\0";

/// Per-frame magic, `"DIVO"` little-endian.
const MAGIC: u32 = 0x4F56_4944;

/// Frame kinds.
const KIND_BUNDLE: u8 = 1;
const KIND_SEAL: u8 = 2;

/// Fixed frame head: magic(4) kind(1) seq(8) len(4) crc(4).
const FRAME_HEAD: usize = 21;

/// Largest payload a frame may carry (16 MiB); larger is corruption.
pub const MAX_PAYLOAD_BYTES: u32 = 16 * 1024 * 1024;

/// One committed bundle: the ops that were appended atomically together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bundle {
    /// The frame's sequence number (1-based).
    pub seq: u64,
    /// The operations, unescaped.
    pub ops: Vec<String>,
    /// Byte offset of the bundle's frame in the log file.
    pub offset: u64,
    /// Byte offset just past the frame: where the next frame starts.
    pub end: u64,
}

/// Description of a discarded torn tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// Byte offset of the first invalid frame.
    pub offset: u64,
    /// How many bytes were discarded.
    pub bytes: u64,
    /// Why the frame was rejected.
    pub reason: String,
}

/// The result of replaying a log: the valid prefix, fully decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Every fully committed bundle, in append order.
    pub bundles: Vec<Bundle>,
    /// Whether the last valid frame is a seal.
    pub sealed: bool,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// The sequence number the next appended frame must carry.
    pub next_seq: u64,
    /// The discarded tail, when the file did not end at a frame boundary.
    pub torn: Option<TornTail>,
    /// When a seal sidecar was present at [`Oplog::open`]: whether it
    /// matched what replay actually found (`None` for pure byte replays
    /// and for logs without a sidecar).
    pub seal_intact: Option<bool>,
}

impl Replay {
    /// Replays raw log bytes — a pure function, used by recovery tests to
    /// probe every truncation point without touching the filesystem.
    ///
    /// An empty input is a valid empty log (a log file that was created
    /// but never even got its header written).
    pub fn from_bytes(bytes: &[u8]) -> Replay {
        let mut replay = Replay {
            bundles: Vec::new(),
            sealed: false,
            valid_len: 0,
            next_seq: 1,
            torn: None,
            seal_intact: None,
        };
        if bytes.is_empty() {
            return replay;
        }
        let torn = |offset: u64, reason: &str| TornTail {
            offset,
            bytes: bytes.len() as u64 - offset,
            reason: reason.to_string(),
        };
        if bytes.len() < HEADER.len() || &bytes[..HEADER.len()] != HEADER {
            replay.torn = Some(torn(0, "bad file header"));
            return replay;
        }
        let mut off = HEADER.len();
        replay.valid_len = off as u64;
        // A clean end lies at a frame boundary.
        while off < bytes.len() {
            match decode_frame(bytes, off, Some(replay.next_seq)) {
                Ok(frame) => {
                    replay.sealed = frame.ops.is_none();
                    if let Some(ops) = frame.ops {
                        replay.bundles.push(Bundle {
                            seq: frame.seq,
                            ops,
                            offset: off as u64,
                            end: frame.end as u64,
                        });
                    }
                    replay.next_seq = frame.seq + 1;
                    off = frame.end;
                    replay.valid_len = off as u64;
                }
                Err(reason) => {
                    replay.torn = Some(torn(off as u64, reason));
                    break;
                }
            }
        }
        replay
    }
}

/// Reads the bundles in `start..end` of the log at `path`: a byte range
/// that begins and ends at frame boundaries, such as two values of
/// [`Oplog::len`] or a [`Bundle`]'s `offset` and `end`.  Frames are
/// decoded and checked exactly as replay checks them; seal frames inside
/// the range are skipped, so a range may span a restart.
///
/// # Errors
///
/// Propagates I/O failures opening or reading the file, and returns
/// [`io::ErrorKind::InvalidData`] when the range runs past the end of the
/// file or does not hold whole, valid, consecutively numbered frames.
pub fn read_range(path: &Path, start: u64, end: u64) -> io::Result<Vec<Bundle>> {
    let invalid = |why: String| io::Error::new(io::ErrorKind::InvalidData, why);
    let len = end
        .checked_sub(start)
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| invalid(format!("bad oplog range {start}..{end}")))?;
    let mut file = fs::File::open(path)?;
    // Checked before allocating, so a bogus range costs no memory.
    if end > file.metadata()?.len() {
        return Err(invalid(format!(
            "oplog range {start}..{end} ends past the log"
        )));
    }
    file.seek(SeekFrom::Start(start))?;
    let mut bytes = vec![0; len];
    file.read_exact(&mut bytes)?;
    let mut bundles = Vec::new();
    let mut off = 0;
    let mut next_seq = None;
    while off < bytes.len() {
        let frame = decode_frame(&bytes, off, next_seq)
            .map_err(|why| invalid(format!("oplog frame at byte {}: {why}", start + off as u64)))?;
        if let Some(ops) = frame.ops {
            bundles.push(Bundle {
                seq: frame.seq,
                ops,
                offset: start + off as u64,
                end: start + frame.end as u64,
            });
        }
        next_seq = Some(frame.seq + 1);
        off = frame.end;
    }
    Ok(bundles)
}

/// One decoded frame.
struct Frame {
    seq: u64,
    /// The bundle's ops; `None` for a seal.
    ops: Option<Vec<String>>,
    /// Offset just past the frame.
    end: usize,
}

/// Decodes and checks the frame at `off`, which must carry `expect_seq`
/// when that is known.  The error names the first violation: the reason
/// replay reports for a torn tail.
fn decode_frame(bytes: &[u8], off: usize, expect_seq: Option<u64>) -> Result<Frame, &'static str> {
    if bytes.len() - off < FRAME_HEAD {
        return Err("truncated frame head");
    }
    let field = |at: usize, n: usize| &bytes[off + at..off + at + n];
    let magic = u32::from_le_bytes(field(0, 4).try_into().unwrap());
    let kind = bytes[off + 4];
    let seq = u64::from_le_bytes(field(5, 8).try_into().unwrap());
    let len = u32::from_le_bytes(field(13, 4).try_into().unwrap());
    let crc = u32::from_le_bytes(field(17, 4).try_into().unwrap());
    if magic != MAGIC {
        return Err("bad frame magic");
    }
    if kind != KIND_BUNDLE && kind != KIND_SEAL {
        return Err("unknown frame kind");
    }
    if expect_seq.is_some_and(|want| seq != want) {
        return Err("out-of-order sequence number");
    }
    if len > MAX_PAYLOAD_BYTES {
        return Err("oversized frame");
    }
    let body = off + FRAME_HEAD;
    let end = body + len as usize;
    if end > bytes.len() {
        return Err("truncated frame payload");
    }
    let payload = &bytes[body..end];
    if crc != frame_crc(kind, seq, payload) {
        return Err("checksum mismatch");
    }
    if kind == KIND_SEAL {
        return Ok(Frame {
            seq,
            ops: None,
            end,
        });
    }
    let text = std::str::from_utf8(payload).map_err(|_| "malformed bundle payload")?;
    // Each op line is newline-*terminated* (not merely separated), so
    // zero ops and one empty op encode differently: `""` vs `"\n"`.
    let ops = if text.is_empty() {
        Vec::new()
    } else {
        let body = text.strip_suffix('\n').ok_or("malformed bundle payload")?;
        body.split('\n').map(unescape_op).collect()
    };
    Ok(Frame {
        seq,
        ops: Some(ops),
        end,
    })
}

/// CRC over the covered frame fields: kind ‖ seq ‖ len ‖ payload.
fn frame_crc(kind: u8, seq: u64, payload: &[u8]) -> u32 {
    let mut covered = Vec::with_capacity(13 + payload.len());
    covered.push(kind);
    covered.extend_from_slice(&seq.to_le_bytes());
    covered.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    covered.extend_from_slice(payload);
    crc32(&covered)
}

/// Encodes one frame.
fn encode_frame(kind: u8, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEAD + payload.len());
    frame.extend_from_slice(&MAGIC.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(&seq.to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&frame_crc(kind, seq, payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Backslash-escapes an op so it fits on one payload line.
pub fn escape_op(op: &str) -> String {
    op.replace('\\', "\\\\")
        .replace('\n', "\\n")
        .replace('\r', "\\r")
}

/// Inverse of [`escape_op`].
pub fn unescape_op(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// The file operations an append needs: a trait so that tests can make
/// a write or a sync fail part-way.
trait LogFile: Write {
    fn sync_data(&mut self) -> io::Result<()>;
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    fn seek_to(&mut self, pos: u64) -> io::Result<()>;
}

impl LogFile for fs::File {
    fn sync_data(&mut self) -> io::Result<()> {
        fs::File::sync_data(self)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        fs::File::set_len(self, len)
    }

    fn seek_to(&mut self, pos: u64) -> io::Result<()> {
        self.seek(SeekFrom::Start(pos)).map(drop)
    }
}

/// The append end of a log: the file, positioned at `len`, the length
/// of its committed prefix.
#[derive(Debug)]
struct Tail<F> {
    file: F,
    len: u64,
    next_seq: u64,
    /// Set when a failed append could not be rolled back; every later
    /// append is refused, since it would land after bytes replay rejects.
    broken: bool,
}

impl<F: LogFile> Tail<F> {
    /// Appends one frame and fsyncs it; returns its sequence number.  On
    /// any failure the file is cut back to `len` and the cursor put
    /// there, so the next append reuses the same sequence number and
    /// offset and the file stays a valid log.
    fn append(&mut self, kind: u8, payload: &[u8]) -> io::Result<u64> {
        if self.broken {
            return Err(io::Error::other(
                "oplog refuses appends: an earlier failed append could not be rolled back",
            ));
        }
        let seq = self.next_seq;
        let frame = encode_frame(kind, seq, payload);
        let appended = self
            .file
            .write_all(&frame)
            .and_then(|()| self.file.sync_data());
        if let Err(e) = appended {
            let len = self.len;
            if self
                .file
                .set_len(len)
                .and_then(|()| self.file.seek_to(len))
                .is_err()
            {
                self.broken = true;
            }
            return Err(e);
        }
        self.next_seq = seq + 1;
        self.len += frame.len() as u64;
        Ok(seq)
    }
}

/// An open, appendable operation log.
///
/// Created by [`Oplog::open`], which replays the existing file (if any),
/// truncates a torn tail, and positions the writer after the last valid
/// frame.  [`Oplog::commit`] appends one atomic bundle and fsyncs before
/// returning — once it returns, the bundle survives any crash.
#[derive(Debug)]
pub struct Oplog {
    tail: Tail<fs::File>,
    path: PathBuf,
}

impl Oplog {
    /// Opens (or creates) the log at `path`, replaying existing frames.
    ///
    /// A torn tail — from a crash mid-append — is truncated away after
    /// being reported in [`Replay::torn`].  A seal sidecar left by a
    /// graceful shutdown is verified against the replay
    /// ([`Replay::seal_intact`]) and removed, so the reopened log accepts
    /// appends again.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures reading, truncating or creating the file.
    pub fn open(path: &Path) -> io::Result<(Oplog, Replay)> {
        let existed = path.exists();
        let bytes = if existed { fs::read(path)? } else { Vec::new() };
        let mut replay = Replay::from_bytes(&bytes);

        let seal_path = seal_sidecar(path);
        if seal_path.exists() {
            let recorded = fs::read_to_string(&seal_path)?;
            let recorded_len: Option<u64> = recorded
                .strip_prefix("sealed len ")
                .and_then(|r| r.trim().parse().ok());
            replay.seal_intact = Some(replay.sealed && recorded_len == Some(replay.valid_len));
            fs::remove_file(&seal_path)?;
        }

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut len = replay.valid_len;
        if len < HEADER.len() as u64 {
            // Brand-new file, or one whose very header never made it to
            // disk: (re)write the header from scratch.
            file.set_len(0)?;
            file.seek(SeekFrom::Start(0))?;
            file.write_all(HEADER)?;
            file.sync_all()?;
            len = HEADER.len() as u64;
        } else if bytes.len() as u64 > len {
            file.set_len(len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(len))?;
        if !existed {
            // Make the new directory entry itself durable.
            #[cfg(unix)]
            {
                let parent = match path.parent() {
                    Some(p) if !p.as_os_str().is_empty() => p,
                    _ => Path::new("."),
                };
                fs::File::open(parent)?.sync_all()?;
            }
        }
        Ok((
            Oplog {
                tail: Tail {
                    file,
                    len,
                    next_seq: replay.next_seq,
                    broken: false,
                },
                path: path.to_path_buf(),
            },
            replay,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sequence number the next commit will use.
    pub fn next_seq(&self) -> u64 {
        self.tail.next_seq
    }

    /// Length in bytes of the committed log: the offset at which the next
    /// commit's frame starts, and so, read after a commit, the end of
    /// that commit's frame.  [`read_range`] reads between two such values.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u64 {
        self.tail.len
    }

    /// Appends one atomic bundle and fsyncs; returns its sequence number.
    ///
    /// # Errors
    ///
    /// Fails if the encoded payload exceeds [`MAX_PAYLOAD_BYTES`] or on
    /// I/O failure.  A failed commit leaves nothing behind: the file is
    /// cut back to its committed length and the sequence counter is
    /// unchanged, so a retried commit reuses the same frame slot.  If
    /// that rollback fails too, every later commit fails.
    pub fn commit(&mut self, ops: &[String]) -> io::Result<u64> {
        let payload = ops
            .iter()
            .map(|op| {
                let mut line = escape_op(op);
                line.push('\n');
                line
            })
            .collect::<String>()
            .into_bytes();
        if payload.len() as u64 > MAX_PAYLOAD_BYTES as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("bundle payload {} bytes exceeds cap", payload.len()),
            ));
        }
        self.tail.append(KIND_BUNDLE, &payload)
    }

    /// Seals the log: appends a seal frame, fsyncs, and records the
    /// sealed length in an atomic sidecar.  Consumes the writer — a
    /// sealed log accepts no further appends from this process.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the append or the sidecar write.
    pub fn seal(mut self) -> io::Result<()> {
        self.tail.append(KIND_SEAL, &[])?;
        atomic_write(
            &seal_sidecar(&self.path),
            format!("sealed len {}\n", self.tail.len).as_bytes(),
        )
    }
}

/// The seal sidecar path for a log (`<log>.seal`).
fn seal_sidecar(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "oplog".into());
    name.push(".seal");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_log(label: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::env::temp_dir().join(format!(
            "div-oplog-{label}-{}-{}.oplog",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn ops(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn round_trips_bundles_across_reopen() {
        let path = temp_log("roundtrip");
        {
            let (mut log, replay) = Oplog::open(&path).unwrap();
            assert!(replay.bundles.is_empty());
            assert_eq!(log.commit(&ops(&["submit 1 alice spec"])).unwrap(), 1);
            assert_eq!(log.commit(&ops(&["schedule 1", "trial 1 0 x"])).unwrap(), 2);
        }
        let (mut log, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles.len(), 2);
        assert_eq!(replay.bundles[0].ops, ops(&["submit 1 alice spec"]));
        assert_eq!(replay.bundles[1].ops, ops(&["schedule 1", "trial 1 0 x"]));
        assert!(replay.torn.is_none());
        assert!(!replay.sealed);
        assert_eq!(log.commit(&ops(&["cancel 1"])).unwrap(), 3);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn ops_with_newlines_and_backslashes_round_trip() {
        let path = temp_log("escape");
        let weird = ops(&["a\nb", "c\\nd", "tr\\ail\\", "\r\n", ""]);
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&weird).unwrap();
        }
        let (_, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles[0].ops, weird);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn empty_bundle_round_trips() {
        let path = temp_log("empty");
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&[]).unwrap();
            log.commit(&ops(&["next"])).unwrap();
        }
        let (_, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles.len(), 2);
        assert!(replay.bundles[0].ops.is_empty());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let path = temp_log("torn");
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&ops(&["one"])).unwrap();
            log.commit(&ops(&["two"])).unwrap();
        }
        // Simulate a crash mid-append: lop 3 bytes off the second frame.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let (mut log, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles.len(), 1, "only the intact bundle survives");
        let torn = replay.torn.expect("tail reported");
        assert_eq!(torn.reason, "truncated frame payload");
        // The file was truncated back to the valid prefix, and the next
        // commit reuses the discarded frame's sequence slot.
        assert_eq!(fs::read(&path).unwrap().len() as u64, replay.valid_len);
        assert_eq!(log.commit(&ops(&["two again"])).unwrap(), 2);
        let (_, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles.len(), 2);
        assert!(replay.torn.is_none());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupted_byte_invalidates_only_the_tail() {
        let path = temp_log("corrupt");
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&ops(&["one"])).unwrap();
            log.commit(&ops(&["two"])).unwrap();
            log.commit(&ops(&["three"])).unwrap();
        }
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte inside the second frame.
        let second_start = {
            let replayed = Replay::from_bytes(&bytes);
            assert_eq!(replayed.bundles.len(), 3);
            // Frame one's payload is "one\n" (newline-terminated).
            HEADER.len() + FRAME_HEAD + "one\n".len()
        };
        bytes[second_start + FRAME_HEAD + 1] ^= 0xFF;
        let replay = Replay::from_bytes(&bytes);
        assert_eq!(replay.bundles.len(), 1);
        assert_eq!(replay.torn.unwrap().reason, "checksum mismatch");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn seal_and_verified_reopen() {
        let path = temp_log("seal");
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&ops(&["one"])).unwrap();
            log.seal().unwrap();
        }
        assert!(seal_sidecar(&path).exists());
        let (mut log, replay) = Oplog::open(&path).unwrap();
        assert!(replay.sealed);
        assert_eq!(replay.seal_intact, Some(true));
        assert!(!seal_sidecar(&path).exists(), "sidecar consumed on open");
        // Appends resume after the seal; replay is then no longer sealed.
        log.commit(&ops(&["post-seal"])).unwrap();
        let (_, replay) = Oplog::open(&path).unwrap();
        assert!(!replay.sealed);
        assert_eq!(replay.bundles.len(), 2);
        assert_eq!(replay.seal_intact, None, "no sidecar on second open");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn seal_sidecar_mismatch_is_reported() {
        let path = temp_log("seal-mismatch");
        {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&ops(&["one"])).unwrap();
            log.seal().unwrap();
        }
        // A log that lost its seal frame no longer matches the sidecar.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (_, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.seal_intact, Some(false));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_header_resets_the_log() {
        let path = temp_log("badheader");
        fs::write(&path, b"not an oplog at all").unwrap();
        let (mut log, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.torn.unwrap().reason, "bad file header");
        assert!(replay.bundles.is_empty());
        log.commit(&ops(&["fresh"])).unwrap();
        let (_, replay) = Oplog::open(&path).unwrap();
        assert_eq!(replay.bundles.len(), 1);
        assert!(replay.torn.is_none());
        fs::remove_file(&path).ok();
    }

    /// An in-memory log file whose writes stop after `write_budget`
    /// more bytes, and whose next sync (or every `set_len`) can fail.
    #[derive(Debug, Default)]
    struct Flaky {
        bytes: Vec<u8>,
        pos: usize,
        write_budget: Option<usize>,
        fail_sync: bool,
        fail_set_len: bool,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = match self.write_budget {
                Some(0) => return Err(io::Error::other("no space left")),
                Some(budget) => budget.min(buf.len()),
                None => buf.len(),
            };
            if let Some(budget) = &mut self.write_budget {
                *budget -= n;
            }
            let end = self.pos + n;
            if self.bytes.len() < end {
                self.bytes.resize(end, 0);
            }
            self.bytes[self.pos..end].copy_from_slice(&buf[..n]);
            self.pos = end;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl LogFile for Flaky {
        fn sync_data(&mut self) -> io::Result<()> {
            if std::mem::take(&mut self.fail_sync) {
                return Err(io::Error::other("fsync failed"));
            }
            Ok(())
        }

        fn set_len(&mut self, len: u64) -> io::Result<()> {
            if self.fail_set_len {
                return Err(io::Error::other("truncate failed"));
            }
            self.bytes.resize(len as usize, 0);
            Ok(())
        }

        fn seek_to(&mut self, pos: u64) -> io::Result<()> {
            self.pos = pos as usize;
            Ok(())
        }
    }

    fn flaky_tail() -> Tail<Flaky> {
        Tail {
            file: Flaky {
                bytes: HEADER.to_vec(),
                pos: HEADER.len(),
                ..Flaky::default()
            },
            len: HEADER.len() as u64,
            next_seq: 1,
            broken: false,
        }
    }

    fn replayed_ops(bytes: &[u8]) -> Vec<Vec<String>> {
        let replay = Replay::from_bytes(bytes);
        assert!(replay.torn.is_none(), "{:?}", replay.torn);
        replay.bundles.into_iter().map(|b| b.ops).collect()
    }

    #[test]
    fn failed_appends_roll_back_and_later_commits_survive() {
        let mut tail = flaky_tail();
        assert_eq!(tail.append(KIND_BUNDLE, b"one\n").unwrap(), 1);
        let committed = tail.file.bytes.clone();

        // A short write: the frame stops after five bytes.
        tail.file.write_budget = Some(5);
        assert!(tail.append(KIND_BUNDLE, b"two\n").is_err());
        tail.file.write_budget = None;
        assert_eq!(tail.file.bytes, committed, "the partial frame is cut away");
        assert_eq!(tail.file.pos, committed.len(), "the cursor is rewound");

        // A whole frame written, then its fsync fails.
        tail.file.fail_sync = true;
        assert!(tail.append(KIND_BUNDLE, b"two\n").is_err());
        assert_eq!(tail.file.bytes, committed, "the unsynced frame is cut away");

        // The next commit reuses the slot, and replay keeps every frame.
        assert_eq!(tail.append(KIND_BUNDLE, b"three\n").unwrap(), 2);
        assert_eq!(tail.append(KIND_BUNDLE, b"four\n").unwrap(), 3);
        assert_eq!(tail.len, tail.file.bytes.len() as u64);
        assert_eq!(
            replayed_ops(&tail.file.bytes),
            [ops(&["one"]), ops(&["three"]), ops(&["four"])]
        );
    }

    #[test]
    fn a_failed_rollback_refuses_every_later_append() {
        let mut tail = flaky_tail();
        tail.append(KIND_BUNDLE, b"one\n").unwrap();
        tail.file.write_budget = Some(5);
        tail.file.fail_set_len = true;
        assert!(tail.append(KIND_BUNDLE, b"two\n").is_err());
        // The file works again, but the partial frame is still there:
        // anything appended after it would be lost on replay.
        tail.file.write_budget = None;
        tail.file.fail_set_len = false;
        let err = tail.append(KIND_BUNDLE, b"three\n").unwrap_err();
        assert!(err.to_string().contains("refuses appends"), "{err}");
        assert_eq!(tail.next_seq, 2);
    }

    #[test]
    fn read_range_returns_exactly_the_bundles_between_two_offsets() {
        let path = temp_log("range");
        let (mut log, _) = Oplog::open(&path).unwrap();
        log.commit(&ops(&["one"])).unwrap();
        let start = log.len();
        log.commit(&ops(&["two", "two\nlines"])).unwrap();
        log.commit(&[]).unwrap();
        log.commit(&ops(&["four"])).unwrap();
        let end = log.len();
        log.commit(&ops(&["five"])).unwrap();

        let replay = Replay::from_bytes(&fs::read(&path).unwrap());
        let got = read_range(&path, start, end).unwrap();
        assert_eq!(got, replay.bundles[1..4]);
        assert_eq!((got[0].offset, got[2].end), (start, end));
        assert_eq!(got[0].ops, ops(&["two", "two\nlines"]));
        assert!(read_range(&path, start, start).unwrap().is_empty());
        // Off a frame boundary, past the end, or backwards: typed errors.
        for (from, to) in [(start + 1, end), (start, log.len() + 1), (end, start)] {
            let err = read_range(&path, from, to).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "{from}..{to}: {err}"
            );
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_reports_a_flipped_byte_as_invalid_data() {
        let path = temp_log("range-flip");
        let (mut log, _) = Oplog::open(&path).unwrap();
        let start = log.len();
        log.commit(&ops(&["one"])).unwrap();
        let mid = log.len();
        log.commit(&ops(&["two"])).unwrap();
        let end = log.len();
        drop(log);
        let mut bytes = fs::read(&path).unwrap();
        bytes[mid as usize + FRAME_HEAD + 1] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let err = read_range(&path, start, end).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The frame before the damage still reads.
        assert_eq!(read_range(&path, start, mid).unwrap()[0].ops, ops(&["one"]));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn read_range_reads_a_sealed_log_and_spans_a_restart() {
        let path = temp_log("range-seal");
        let start = HEADER.len() as u64;
        let first_end = {
            let (mut log, _) = Oplog::open(&path).unwrap();
            log.commit(&ops(&["one"])).unwrap();
            let end = log.len();
            log.seal().unwrap();
            end
        };
        assert_eq!(
            read_range(&path, start, first_end).unwrap()[0].ops,
            ops(&["one"])
        );

        let (mut log, _) = Oplog::open(&path).unwrap();
        log.commit(&ops(&["two"])).unwrap();
        let got = read_range(&path, start, log.len()).unwrap();
        let seqs: Vec<u64> = got.iter().map(|b| b.seq).collect();
        assert_eq!(seqs, [1, 3], "the seal frame (seq 2) is skipped");
        assert_eq!(got[1].ops, ops(&["two"]));
        fs::remove_file(&path).ok();
        fs::remove_file(seal_sidecar(&path)).ok();
    }

    #[test]
    fn oversized_commit_is_rejected_cleanly() {
        let path = temp_log("oversize");
        let (mut log, _) = Oplog::open(&path).unwrap();
        let huge = vec!["x".repeat(MAX_PAYLOAD_BYTES as usize + 1)];
        assert!(log.commit(&huge).is_err());
        // The failed commit wrote nothing: the log still accepts appends
        // with the same sequence number.
        assert_eq!(log.commit(&ops(&["small"])).unwrap(), 1);
        fs::remove_file(&path).ok();
    }
}
