//! Durable storage behind the decided log and checkpoints.
//!
//! [`Storage`] is the write-side persistence trait the [`DecidedLog`]
//! (`crate::log`) writes through: decided batches as they are appended and
//! stable checkpoints as quorums certify them. Two backends exist:
//!
//! * [`MemStorage`] — the pre-existing behaviour: nothing is persisted and a
//!   crashed replica is reborn amnesiac (it must state-transfer everything).
//! * [`Journal`] — an append-only, segmented, CRC-framed write-ahead journal.
//!   A rebooting replica replays it back into the last stable checkpoint plus
//!   the decided suffix ([`Journal::open`] → [`Recovered`]) instead of
//!   starting empty, which is what keeps Lazarus-style continuous
//!   reconfiguration cheap once service state is no longer tiny.
//!
//! # Journal format
//!
//! A journal is a directory of segment files named `journal-<index>.seg`,
//! replayed in index order. Each segment is a sequence of CRC-framed
//! records:
//!
//! ```text
//! frame      := len:u32be  crc32:u32be  body            (crc over body)
//! body       := tag:u8  payload
//! batch      := 0x01  seq:u64be  count:u32be  request*
//! request    := client:u64be  op:u64be  len:u32be  payload  tag:32B
//! checkpoint := 0x02  seq:u64be  digest:32B  len:u64be  snapshot
//! ```
//!
//! Recovery stops at the first malformed frame (short header, impossible
//! length, CRC mismatch, unparseable body, or a checkpoint whose snapshot
//! does not hash to its recorded digest) and reports it as a *torn tail*:
//! everything before the tear is trusted, everything after is discarded.
//! After recovery the journal always appends into a **fresh** segment, so a
//! torn tail never needs in-place repair.
//!
//! When a checkpoint becomes stable the journal *compacts*: the checkpoint
//! record is written to a fresh segment and every older segment is deleted —
//! batches at or below a stable checkpoint are reconstructible from the
//! snapshot and thus dead weight.
//!
//! # Determinism
//!
//! The testbed byte-compares metrics output across runs, so nothing here
//! reports wall-clock time. Sync and compaction costs are *virtual*: a
//! deterministic function of the bytes involved (see
//! [`fsync_virtual_us`] / [`compaction_virtual_us`] /
//! [`Recovered::virtual_recovery_us`]), modelling a ~150 MB/s journal
//! device.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

use bytes::Bytes;

use crate::crypto::{AuthTag, Digest};
use crate::log::Checkpoint;
use crate::messages::{Batch, Request};
use crate::obs::JournalObs;
use crate::types::{ClientId, SeqNo};

/// Write-side persistence behind the decided log.
///
/// Implementations must tolerate being called on every decided slot — the
/// journal batches O-S syncs rather than fsyncing per record.
pub trait Storage: Send + std::fmt::Debug {
    /// Persists the decided batch for `seq`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error; the log degrades to in-memory
    /// operation and counts the failure rather than panicking.
    fn append_batch(&mut self, seq: SeqNo, batch: &Batch) -> io::Result<()>;

    /// Persists a newly *stable* checkpoint plus the decided batches still
    /// retained above it, and releases everything the checkpoint supersedes
    /// (journal compaction). The suffix must be re-persisted here because
    /// compaction may destroy the segments its batches were first written
    /// to.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn commit_checkpoint(
        &mut self,
        checkpoint: &Checkpoint,
        suffix: &[(SeqNo, Batch)],
    ) -> io::Result<()>;

    /// Flushes buffered writes to the device.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    fn sync(&mut self) -> io::Result<()>;
}

/// The in-memory backend: persists nothing (the pre-journal behaviour).
#[derive(Debug, Default, Clone, Copy)]
pub struct MemStorage;

impl Storage for MemStorage {
    fn append_batch(&mut self, _seq: SeqNo, _batch: &Batch) -> io::Result<()> {
        Ok(())
    }

    fn commit_checkpoint(
        &mut self,
        _checkpoint: &Checkpoint,
        _suffix: &[(SeqNo, Batch)],
    ) -> io::Result<()> {
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Record tag: a decided batch.
const TAG_BATCH: u8 = 0x01;
/// Record tag: a stable checkpoint.
const TAG_CHECKPOINT: u8 = 0x02;
/// Upper bound on a single record body (guards length fields on recovery).
const MAX_RECORD: u64 = 1 << 30;

/// Virtual cost model: fixed fsync latency floor in µs.
const FSYNC_BASE_US: u64 = 120;
/// Virtual cost model: journal device throughput in bytes/µs (~150 MB/s).
const JOURNAL_BYTES_PER_US: u64 = 150;
/// Virtual cost model: fixed compaction floor in µs.
const COMPACT_BASE_US: u64 = 200;
/// Virtual cost model: reclaim throughput in bytes/µs (unlink + metadata).
const COMPACT_BYTES_PER_US: u64 = 300;
/// Virtual cost model: replay floor in µs (directory scan, file opens).
const RECOVER_BASE_US: u64 = 250;
/// Virtual cost model: replay throughput in bytes/µs (~180 MB/s read+parse).
const RECOVER_BYTES_PER_US: u64 = 180;

/// Deterministic virtual duration of syncing `bytes` to the journal device.
#[must_use]
pub fn fsync_virtual_us(bytes: u64) -> u64 {
    FSYNC_BASE_US + bytes / JOURNAL_BYTES_PER_US
}

/// Deterministic virtual duration of compacting away `reclaimed` bytes.
#[must_use]
pub fn compaction_virtual_us(reclaimed: u64) -> u64 {
    COMPACT_BASE_US + reclaimed / COMPACT_BYTES_PER_US
}

/// Configuration of a [`Journal`].
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding the segment files (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Whether to `fsync` on [`Storage::sync`] (checkpoint commits always
    /// sync). Off is useful for mass simulation on tmpfs.
    pub fsync: bool,
}

impl JournalConfig {
    /// Defaults: 4 MiB segments, fsync on.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> JournalConfig {
        JournalConfig { dir: dir.into(), segment_bytes: 4 << 20, fsync: true }
    }
}

/// What [`Journal::open`] replayed from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The newest durable stable checkpoint, if any was recorded.
    pub stable: Option<Checkpoint>,
    /// Decided batches above the stable checkpoint, by slot.
    pub entries: BTreeMap<u64, Batch>,
    /// True when replay stopped at a malformed frame (torn final write).
    pub torn_tail: bool,
    /// Valid bytes replayed across all segments.
    pub bytes_scanned: u64,
    /// Valid records applied.
    pub records: u64,
}

impl Recovered {
    /// An empty recovery (fresh journal).
    #[must_use]
    pub fn empty() -> Recovered {
        Recovered {
            stable: None,
            entries: BTreeMap::new(),
            torn_tail: false,
            bytes_scanned: 0,
            records: 0,
        }
    }

    /// True when nothing durable was found.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stable.is_none() && self.entries.is_empty()
    }

    /// Deterministic virtual duration of this replay (drives the testbed's
    /// `bft_recovery_duration_us` gauge — never wall time).
    #[must_use]
    pub fn virtual_recovery_us(&self) -> u64 {
        RECOVER_BASE_US + self.bytes_scanned / RECOVER_BYTES_PER_US
    }
}

/// The append-only segmented journal backend.
///
/// See the module docs for the on-disk format; construct via
/// [`Journal::open`], which also performs recovery.
#[derive(Debug)]
pub struct Journal {
    cfg: JournalConfig,
    /// Currently open segment, if any (opened lazily on first write).
    file: Option<File>,
    /// Index the *next* created segment will use.
    next_index: u64,
    /// Indices of live segment files, ascending (last = the open one).
    segments: Vec<u64>,
    /// Bytes written to the open segment.
    seg_len: u64,
    /// Bytes written since the last sync.
    unsynced: u64,
    obs: Option<JournalObs>,
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("journal-{index:08}.seg"))
}

fn segment_index(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("journal-")?.strip_suffix(".seg")?;
    rest.parse().ok()
}

/// Sorted indices of the segment files present in `dir`.
fn scan_segments(dir: &Path) -> io::Result<Vec<u64>> {
    let mut found = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(idx) = entry.file_name().to_str().and_then(segment_index) {
            found.push(idx);
        }
    }
    found.sort_unstable();
    Ok(found)
}

impl Journal {
    /// Opens (creating if needed) the journal at `cfg.dir` and replays it.
    ///
    /// Appends after recovery always go to a fresh segment, so a torn tail
    /// in the old ones is never extended.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and read errors. A *torn* journal is
    /// not an error — it is reported via [`Recovered::torn_tail`].
    pub fn open(cfg: JournalConfig) -> io::Result<(Journal, Recovered)> {
        fs::create_dir_all(&cfg.dir)?;
        let segments = scan_segments(&cfg.dir)?;
        let mut recovered = Recovered::empty();
        'segments: for &idx in &segments {
            let data = fs::read(segment_path(&cfg.dir, idx))?;
            let mut off = 0usize;
            while off < data.len() {
                match decode_frame(&data[off..]) {
                    Some((record, consumed)) => {
                        apply_record(&mut recovered, record);
                        recovered.records += 1;
                        recovered.bytes_scanned += consumed as u64;
                        off += consumed;
                    }
                    None => {
                        // Malformed frame: the rest of *this segment* is an
                        // untrusted tail (torn final write or corruption).
                        // Later segments were started fresh after the torn
                        // one was recovered, so their replay continues.
                        recovered.torn_tail = true;
                        continue 'segments;
                    }
                }
            }
        }
        if let Some(stable) = &recovered.stable {
            let floor = stable.seq.0;
            recovered.entries.retain(|&s, _| s > floor);
        }
        let next_index = segments.last().map_or(0, |&i| i + 1);
        let journal =
            Journal { cfg, file: None, next_index, segments, seg_len: 0, unsynced: 0, obs: None };
        Ok((journal, recovered))
    }

    /// Attaches metric handles (fsync / compaction histograms).
    pub fn attach_obs(&mut self, obs: JournalObs) {
        self.obs = Some(obs);
    }

    /// Number of live segment files.
    #[must_use]
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// The journal directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }

    /// Rolls to a brand-new segment (the current one, if any, is synced
    /// first and left behind).
    fn roll(&mut self) -> io::Result<()> {
        self.sync()?;
        let path = segment_path(&self.cfg.dir, self.next_index);
        let file = OpenOptions::new().create_new(true).append(true).open(path)?;
        self.file = Some(file);
        self.segments.push(self.next_index);
        self.next_index += 1;
        self.seg_len = 0;
        Ok(())
    }

    fn write_record(&mut self, body: &[u8]) -> io::Result<()> {
        if self.file.is_none() || self.seg_len >= self.cfg.segment_bytes {
            self.roll()?;
        }
        let frame = encode_frame(body);
        match self.file.as_mut() {
            Some(file) => file.write_all(&frame)?,
            None => return Err(io::Error::other("journal segment failed to open")),
        }
        self.seg_len += frame.len() as u64;
        self.unsynced += frame.len() as u64;
        Ok(())
    }
}

impl Storage for Journal {
    fn append_batch(&mut self, seq: SeqNo, batch: &Batch) -> io::Result<()> {
        self.write_record(&encode_batch_body(seq, batch))
    }

    fn commit_checkpoint(
        &mut self,
        checkpoint: &Checkpoint,
        suffix: &[(SeqNo, Batch)],
    ) -> io::Result<()> {
        // The checkpoint starts a fresh segment so compaction can delete
        // every older one wholesale. Batches decided after the checkpoint
        // slot may live in those older segments, so they are re-persisted
        // into the fresh segment alongside it.
        // A checkpoint larger than `segment_bytes` makes the suffix roll
        // again, so this commit may span several segments: all of them
        // (index >= `first`) are live.
        self.file = None;
        let first = self.next_index;
        self.write_record(&encode_checkpoint_body(checkpoint))?;
        for (seq, batch) in suffix {
            self.write_record(&encode_batch_body(*seq, batch))?;
        }
        self.sync()?;
        let mut reclaimed = 0u64;
        for &idx in self.segments.iter().filter(|&&i| i < first) {
            let path = segment_path(&self.cfg.dir, idx);
            reclaimed += fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path)?;
        }
        self.segments.retain(|&i| i >= first);
        if let Some(obs) = &self.obs {
            obs.compaction(compaction_virtual_us(reclaimed));
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.unsynced == 0 {
            return Ok(());
        }
        if self.cfg.fsync {
            if let Some(file) = self.file.as_ref() {
                file.sync_data()?;
            }
        }
        if let Some(obs) = &self.obs {
            obs.fsync(fsync_virtual_us(self.unsynced));
        }
        self.unsynced = 0;
        Ok(())
    }
}

/// Simulates a torn final write: truncates up to `max_bytes` from the end
/// of the newest non-empty segment in `dir`. Returns the bytes torn off
/// (0 when the journal is empty).
///
/// # Errors
///
/// Propagates filesystem errors (a missing directory tears nothing).
pub fn tear_tail(dir: &Path, max_bytes: u64) -> io::Result<u64> {
    if !dir.exists() {
        return Ok(0);
    }
    let segments = scan_segments(dir)?;
    for &idx in segments.iter().rev() {
        let path = segment_path(dir, idx);
        let len = fs::metadata(&path)?.len();
        if len == 0 {
            continue;
        }
        let torn = max_bytes.min(len);
        let file = OpenOptions::new().write(true).open(&path)?;
        file.set_len(len - torn)?;
        file.sync_data()?;
        return Ok(torn);
    }
    Ok(0)
}

// ---------------------------------------------------------------------------
// Record encoding / decoding
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE 802.3, reflected) over `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

fn encode_frame(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(body).to_be_bytes());
    out.extend_from_slice(body);
    out
}

fn encode_batch_body(seq: SeqNo, batch: &Batch) -> Vec<u8> {
    let requests = batch.requests();
    let payload: usize = requests.iter().map(|r| 52 + r.payload.len()).sum();
    let mut out = Vec::with_capacity(13 + payload);
    out.push(TAG_BATCH);
    out.extend_from_slice(&seq.0.to_be_bytes());
    out.extend_from_slice(&(requests.len() as u32).to_be_bytes());
    for r in requests {
        out.extend_from_slice(&r.client.0.to_be_bytes());
        out.extend_from_slice(&r.op.to_be_bytes());
        out.extend_from_slice(&(r.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&r.payload);
        out.extend_from_slice(&r.tag.0);
    }
    out
}

fn encode_checkpoint_body(checkpoint: &Checkpoint) -> Vec<u8> {
    let mut out = Vec::with_capacity(49 + checkpoint.snapshot.len());
    out.push(TAG_CHECKPOINT);
    out.extend_from_slice(&checkpoint.seq.0.to_be_bytes());
    out.extend_from_slice(&checkpoint.digest.0);
    out.extend_from_slice(&(checkpoint.snapshot.len() as u64).to_be_bytes());
    out.extend_from_slice(&checkpoint.snapshot);
    out
}

/// A decoded journal record.
enum Record {
    Batch(SeqNo, Batch),
    Checkpoint(Checkpoint),
}

/// A bounds-checked little parse cursor (recovery must never panic on
/// corrupt input).
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.take(8)?;
        Some(u64::from_be_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    fn exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Decodes one frame at the start of `data`; `Some((record, consumed))` on
/// success, `None` for any malformation (the torn-tail signal).
fn decode_frame(data: &[u8]) -> Option<(Record, usize)> {
    if data.len() < 8 {
        return None;
    }
    let len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
    let crc = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    if len == 0 || len as u64 > MAX_RECORD || data.len() < 8 + len {
        return None;
    }
    let body = &data[8..8 + len];
    if crc32(body) != crc {
        return None;
    }
    let record = decode_body(body)?;
    Some((record, 8 + len))
}

fn decode_body(body: &[u8]) -> Option<Record> {
    let mut cur = Cursor::new(body);
    match cur.u8()? {
        TAG_BATCH => {
            let seq = SeqNo(cur.u64()?);
            let count = cur.u32()? as usize;
            let mut requests = Vec::with_capacity(count.min(4096));
            for _ in 0..count {
                let client = ClientId(cur.u64()?);
                let op = cur.u64()?;
                let plen = cur.u32()? as usize;
                let payload = Bytes::copy_from_slice(cur.take(plen)?);
                let mut tag = [0u8; 32];
                tag.copy_from_slice(cur.take(32)?);
                requests.push(Request { client, op, payload, tag: AuthTag(tag) });
            }
            cur.exhausted().then(|| Record::Batch(seq, Batch::new(requests)))
        }
        TAG_CHECKPOINT => {
            let seq = SeqNo(cur.u64()?);
            let mut digest = [0u8; 32];
            digest.copy_from_slice(cur.take(32)?);
            let digest = Digest(digest);
            let slen = cur.u64()?;
            if slen > MAX_RECORD {
                return None;
            }
            let snapshot = Bytes::copy_from_slice(cur.take(slen as usize)?);
            if !cur.exhausted() || Digest::of(&snapshot) != digest {
                // A CRC-valid checkpoint whose snapshot does not hash to its
                // recorded digest was written wrong — untrusted tail.
                return None;
            }
            Some(Record::Checkpoint(Checkpoint { seq, snapshot, digest }))
        }
        _ => None,
    }
}

fn apply_record(recovered: &mut Recovered, record: Record) {
    match record {
        Record::Batch(seq, batch) => {
            // Idempotent: a duplicated segment re-inserts identical batches.
            recovered.entries.insert(seq.0, batch);
        }
        Record::Checkpoint(checkpoint) => {
            let newer = recovered.stable.as_ref().is_none_or(|s| checkpoint.seq >= s.seq);
            if newer {
                let floor = checkpoint.seq.0;
                recovered.entries.retain(|&s, _| s > floor);
                recovered.stable = Some(checkpoint);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Keyring;
    use crate::crypto::Principal;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lazarus_journal_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn request(client: u64, op: u64, payload: &[u8]) -> Request {
        let ring = Keyring::new(b"storage-test");
        Request {
            client: ClientId(client),
            op,
            payload: Bytes::copy_from_slice(payload),
            tag: ring.sign(
                Principal::Client(client),
                &Request::auth_bytes(ClientId(client), op, payload),
            ),
        }
    }

    fn batch(seed: u64) -> Batch {
        Batch::new(vec![
            request(seed, seed, &seed.to_be_bytes()),
            request(seed + 1, seed, b"payload"),
        ])
    }

    fn checkpoint(seq: u64, state: &[u8]) -> Checkpoint {
        let snapshot = Bytes::copy_from_slice(state);
        let digest = Digest::of(&snapshot);
        Checkpoint { seq: SeqNo(seq), snapshot, digest }
    }

    #[test]
    fn checkpoint_larger_than_a_segment_survives_its_own_compaction() {
        let dir = temp_dir("bigckpt");
        let cfg = JournalConfig { segment_bytes: 1024, fsync: false, ..JournalConfig::new(&dir) };
        let stable = checkpoint(2, &[7u8; 4096]);
        let suffix: Vec<(SeqNo, Batch)> = (3..=5u64).map(|s| (SeqNo(s), batch(s))).collect();
        let committed = {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            for s in 1..=5u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            // The 4 KiB checkpoint fills its fresh segment past the roll
            // threshold, so the first suffix record rolls again.
            journal.commit_checkpoint(&stable, &suffix).expect("commit");
            assert!(journal.segment_count() >= 2, "the commit spans several segments");
            journal.segments.clone()
        };
        assert_eq!(scan_segments(&dir).expect("scan"), committed, "only this commit's segments");
        assert!(committed.iter().all(|&i| i >= 1), "the pre-checkpoint segment was compacted");
        let (_, recovered) = Journal::open(cfg).expect("reopen");
        assert_eq!(recovered.stable, Some(stable), "the suffix kept its base");
        let entries: Vec<u64> = recovered.entries.keys().copied().collect();
        assert_eq!(entries, vec![3, 4, 5]);
        assert!(!recovered.torn_tail);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_journal_recovers_empty() {
        let dir = temp_dir("empty");
        let (journal, recovered) = Journal::open(JournalConfig::new(&dir)).expect("open");
        assert!(recovered.is_empty());
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.records, 0);
        assert_eq!(journal.segment_count(), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn batches_and_checkpoint_round_trip() {
        let dir = temp_dir("roundtrip");
        let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            for s in 1..=5u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            journal
                .commit_checkpoint(
                    &checkpoint(3, b"state@3"),
                    &[(SeqNo(4), batch(4)), (SeqNo(5), batch(5))],
                )
                .expect("checkpoint");
            for s in 4..=6u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            journal.sync().expect("sync");
        }
        let (_, recovered) = Journal::open(cfg).expect("reopen");
        assert!(!recovered.torn_tail);
        let stable = recovered.stable.expect("stable checkpoint");
        assert_eq!(stable.seq, SeqNo(3));
        assert_eq!(&stable.snapshot[..], b"state@3");
        // Entries at or below the checkpoint are gone; the suffix survives.
        assert_eq!(recovered.entries.keys().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
        assert_eq!(recovered.entries[&4], batch(4));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_deletes_older_segments() {
        let dir = temp_dir("compact");
        let cfg = JournalConfig { segment_bytes: 64, fsync: false, ..JournalConfig::new(&dir) };
        let (mut journal, _) = Journal::open(cfg).expect("open");
        for s in 1..=20u64 {
            journal.append_batch(SeqNo(s), &batch(s)).expect("append");
        }
        assert!(journal.segment_count() > 1, "tiny segments must have rolled");
        journal.commit_checkpoint(&checkpoint(20, b"state@20"), &[]).expect("checkpoint");
        assert_eq!(journal.segment_count(), 1, "compaction keeps only the checkpoint segment");
        let on_disk = scan_segments(&dir).expect("scan");
        assert_eq!(on_disk.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_survives() {
        let dir = temp_dir("torn");
        let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            for s in 1..=4u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            journal.sync().expect("sync");
        }
        let torn = tear_tail(&dir, 5).expect("tear");
        assert_eq!(torn, 5);
        let (_, recovered) = Journal::open(cfg).expect("reopen");
        assert!(recovered.torn_tail);
        assert_eq!(recovered.entries.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_crc_ends_replay() {
        let dir = temp_dir("crc");
        let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            for s in 1..=3u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            journal.sync().expect("sync");
        }
        // Flip one byte in the middle record's body.
        let seg = segment_path(&dir, 0);
        let mut data = fs::read(&seg).expect("read");
        let first_len = u32::from_be_bytes([data[0], data[1], data[2], data[3]]) as usize;
        let second_body = 8 + first_len + 8;
        data[second_body + 3] ^= 0xFF;
        fs::write(&seg, &data).expect("write back");
        let (_, recovered) = Journal::open(cfg).expect("reopen");
        assert!(recovered.torn_tail);
        assert_eq!(recovered.entries.keys().copied().collect::<Vec<_>>(), vec![1]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_segment_is_idempotent() {
        let dir = temp_dir("dup");
        let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            for s in 1..=3u64 {
                journal.append_batch(SeqNo(s), &batch(s)).expect("append");
            }
            journal.sync().expect("sync");
        }
        // An operator restored a backup alongside the original: the same
        // records replay twice.
        fs::copy(segment_path(&dir, 0), segment_path(&dir, 7)).expect("copy");
        let (journal, recovered) = Journal::open(cfg).expect("reopen");
        assert!(!recovered.torn_tail);
        assert_eq!(recovered.entries.keys().copied().collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(recovered.entries[&2], batch(2));
        assert_eq!(journal.segment_count(), 2);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_with_wrong_digest_is_untrusted() {
        let dir = temp_dir("badck");
        fs::create_dir_all(&dir).expect("mkdir");
        // Hand-craft a checkpoint record whose digest does not match.
        let mut body = vec![TAG_CHECKPOINT];
        body.extend_from_slice(&9u64.to_be_bytes());
        body.extend_from_slice(&Digest::of(b"something else").0);
        body.extend_from_slice(&5u64.to_be_bytes());
        body.extend_from_slice(b"state");
        fs::write(segment_path(&dir, 0), encode_frame(&body)).expect("write");
        let (_, recovered) = Journal::open(JournalConfig::new(&dir)).expect("open");
        assert!(recovered.torn_tail);
        assert!(recovered.stable.is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appends_after_recovery_go_to_a_fresh_segment() {
        let dir = temp_dir("fresh");
        let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        {
            let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
            journal.append_batch(SeqNo(1), &batch(1)).expect("append");
            journal.sync().expect("sync");
        }
        tear_tail(&dir, 3).expect("tear");
        {
            let (mut journal, recovered) = Journal::open(cfg.clone()).expect("reopen");
            assert!(recovered.torn_tail);
            journal.append_batch(SeqNo(2), &batch(2)).expect("append");
            journal.sync().expect("sync");
        }
        // The torn segment was not extended; the new record lives in a new
        // file and replays (the torn record stays lost).
        let (_, recovered) = Journal::open(cfg).expect("re-reopen");
        assert_eq!(recovered.entries.keys().copied().collect::<Vec<_>>(), vec![2]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest::proptest! {
        /// Satellite: recovery never panics and always yields a valid
        /// prefix, whatever byte the tail is cut at — torn final record,
        /// torn frame header, or a clean boundary.
        #[test]
        fn recovery_survives_any_truncation(
            n_batches in 1usize..6,
            with_checkpoint in 0u8..2,
            cut_back in 0u64..400,
        ) {
            let with_checkpoint = with_checkpoint == 1;
            let dir = temp_dir("prop_trunc");
            let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
            {
                let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
                for s in 1..=n_batches as u64 {
                    journal.append_batch(SeqNo(s), &batch(s)).expect("append");
                }
                if with_checkpoint {
                    let suffix: Vec<(SeqNo, Batch)> =
                        (2..=n_batches as u64).map(|s| (SeqNo(s), batch(s))).collect();
                    journal.commit_checkpoint(&checkpoint(1, b"s@1"), &suffix).expect("ck");
                }
                journal.sync().expect("sync");
            }
            tear_tail(&dir, cut_back).expect("tear");
            let (_, recovered) = Journal::open(cfg).expect("reopen");
            // Whatever survived is a prefix of what was written, with
            // correct content per slot.
            for (&seq, b) in &recovered.entries {
                proptest::prop_assert!(seq >= 1 && seq <= n_batches as u64);
                proptest::prop_assert_eq!(b.clone(), batch(seq));
            }
            if let Some(stable) = &recovered.stable {
                proptest::prop_assert_eq!(stable.seq, SeqNo(1));
                proptest::prop_assert_eq!(Digest::of(&stable.snapshot), stable.digest);
            }
            fs::remove_dir_all(&dir).ok();
        }

        /// Satellite: replaying a journal with an arbitrarily duplicated
        /// segment recovers exactly the same state as the original.
        #[test]
        fn duplicated_segments_change_nothing(
            n_batches in 1usize..6,
            dup_at in 10u64..20,
        ) {
            let dir = temp_dir("prop_dup");
            let cfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
            {
                let (mut journal, _) = Journal::open(cfg.clone()).expect("open");
                for s in 1..=n_batches as u64 {
                    journal.append_batch(SeqNo(s), &batch(s)).expect("append");
                }
                journal.sync().expect("sync");
            }
            let (_, base) = Journal::open(cfg.clone()).expect("reopen");
            fs::copy(segment_path(&dir, 0), segment_path(&dir, dup_at)).expect("copy");
            let (_, doubled) = Journal::open(cfg).expect("reopen dup");
            proptest::prop_assert_eq!(!doubled.torn_tail, true);
            proptest::prop_assert_eq!(
                base.entries.keys().copied().collect::<Vec<_>>(),
                doubled.entries.keys().copied().collect::<Vec<_>>()
            );
            fs::remove_dir_all(&dir).ok();
        }
    }
}
