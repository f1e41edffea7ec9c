//! `TIB2`: the segmented, checksummed on-disk trace store (DESIGN.md
//! §5i, docs/FORMATS.md §TIB2).
//!
//! PR 4's [`CompactTrace`] made replay memory 16 bytes per action —
//! but the whole trace still has to be resident. The paper's §6.5
//! headline (LU class D, 1024 ranks, a 32.5 GiB trace) needs the
//! opposite shape: an on-disk form that can be *paged, not parsed*,
//! where replay touches O(ranks + resident segments) bytes however
//! long the trace is. `TIB2` is that form: the struct-of-arrays
//! columns of [`CompactTrace`], cut into fixed-action-count segments,
//! each independently decodable and independently checksummed.
//!
//! Robustness is the other half of the contract. Every segment read is
//! fail-closed — the FNV-1a-64 checksum recorded in the footer is
//! verified before a single action is decoded, and a mismatch is a
//! typed [`StoreError::SegmentDamaged`] naming rank, segment and byte
//! offset. The footer itself is length-framed and checksummed by the
//! fixed-size trailer, so *any* bit flip anywhere in the file lands in
//! some checksum's domain: segment damage is attributable (and
//! survivable at segment granularity in `--degraded` replay), footer
//! or trailer damage fails the open. There is no byte in a `TIB2` file
//! whose corruption goes undetected.
//!
//! ## Layout
//!
//! ```text
//! head     "TIB2" u32:version
//! segments rank-major; each:
//!            header   u32:rank u32:seg_index u32:n_actions u32:payload_len
//!            payload  n x u32:tag | n x u32:peer | n x f64:vol
//!                     u32:n_aux | n_aux x f64:aux
//! footer   Enc{ nranks, per rank: nsegs,
//!               per seg: u64:offset u32:n_actions u32:payload_len u64:fnv }
//! trailer  u64:footer_len u64:footer_fnv "TIB2-END"
//! ```
//!
//! All integers little-endian; volumes are `f64::to_bits` (`NaN`
//! encodes an unannotated receive, exactly as in [`CompactTrace`]).
//! The `reduce`/`allReduce` peer slot indexes the *segment-local* side
//! table, so a segment decodes with no context beyond its own bytes.
//! A segment's checksum domain is its header plus payload; the
//! `footer_fnv` of the trailer doubles as the store's content
//! fingerprint (checkpoints taken against a store embed it — see
//! `tit-replay --store --checkpoint`).
//!
//! Writing is streaming ([`Tib2Writer`] holds one open segment, so a
//! generator can emit a multi-GiB store without ever materializing the
//! trace) and atomic when pointed at an [`crate::atomicio::AtomicFile`].
//! Reading ([`Tib2Store`]) keeps only the footer index resident and
//! serves segments by positioned reads (`read_at`), which is how the
//! replay layer's segment cache bounds residency under
//! [`crate::membudget::MemBudget`].

use crate::action::Action;
use crate::checkpoint::{fnv1a, Dec, Enc};
use crate::compact::{decode_parts, encode_parts, tag, CompactError, CompactTrace, NO_PEER};
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// File magic, first 4 bytes.
const MAGIC: [u8; 4] = *b"TIB2";
/// Format version after the magic.
const VERSION: u32 = 1;
/// End-of-file magic, last 8 bytes of the trailer.
const END_MAGIC: [u8; 8] = *b"TIB2-END";
/// head = magic + version.
const HEAD_LEN: u64 = 8;
/// trailer = footer_len + footer_fnv + end magic.
const TRAILER_LEN: u64 = 24;
/// Per-segment header: rank, seg_index, n_actions, payload_len.
const SEG_HEADER_LEN: usize = 16;

/// Default actions per segment (~64 KiB of payload): large enough that
/// the 40-byte footer entry is noise, small enough that a damaged
/// segment costs a sliver of the trace and residency is fine-grained.
pub const DEFAULT_SEG_ACTIONS: usize = 4096;

/// Why a `TIB2` store could not be opened or a segment could not be
/// served. Every variant is fail-closed: no partially-verified bytes
/// ever reach the replay kernel.
#[derive(Debug)]
pub enum StoreError {
    /// The file could not be read at all.
    Io {
        /// The store file involved.
        path: PathBuf,
        /// The underlying I/O failure.
        source: io::Error,
    },
    /// The head magic is not `TIB2` — not a store, or its first bytes
    /// were overwritten.
    BadMagic {
        /// The four bytes found where the magic belongs.
        found: [u8; 4],
    },
    /// The head carries a version this reader does not speak.
    BadVersion {
        /// The version found.
        found: u32,
    },
    /// The footer or trailer is truncated, fails its own checksum, or
    /// decodes to an inconsistent index. Nothing in the file can be
    /// trusted; `--degraded` replay cannot salvage a store whose index
    /// is gone.
    FooterDamaged {
        /// What was wrong.
        detail: String,
    },
    /// One segment failed verification: checksum mismatch, short read,
    /// a header that contradicts the footer, or structurally invalid
    /// columns. Names exactly which bytes are untrustworthy; every
    /// other segment remains servable.
    SegmentDamaged {
        /// Rank owning the segment.
        rank: usize,
        /// Segment index within the rank.
        segment: usize,
        /// Byte offset of the segment header in the file.
        offset: u64,
        /// What was wrong (checksum expected/found, short read, ...).
        detail: String,
    },
    /// A rank or segment index beyond what the footer declares.
    OutOfRange {
        /// Requested rank.
        rank: usize,
        /// Requested segment index.
        segment: usize,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store {}: {source}", path.display())
            }
            StoreError::BadMagic { found } => {
                write!(f, "not a TIB2 store (magic {found:02x?})")
            }
            StoreError::BadVersion { found } => {
                write!(f, "TIB2 version {found} not supported (this reader speaks {VERSION})")
            }
            StoreError::FooterDamaged { detail } => {
                write!(f, "TIB2 footer damaged: {detail}")
            }
            StoreError::SegmentDamaged { rank, segment, offset, detail } => {
                write!(
                    f,
                    "TIB2 segment damaged: rank {rank} segment {segment} \
                     at offset {offset}: {detail}"
                )
            }
            StoreError::OutOfRange { rank, segment } => {
                write!(f, "rank {rank} segment {segment} is out of range for this store")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// One decoded segment: interned action columns whose
/// `reduce`/`allReduce` side-table indices are segment-local. This is
/// the unit of residency the memory governor accounts for, one rank of
/// a [`CompactTrace`], and the chunk every replay cursor reads.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentColumns {
    pub(crate) tags: Vec<u32>,
    pub(crate) peers: Vec<u32>,
    pub(crate) vols: Vec<f64>,
    pub(crate) aux: Vec<f64>,
}

impl Default for SegmentColumns {
    fn default() -> Self {
        Self::new()
    }
}

impl SegmentColumns {
    /// An empty segment.
    pub fn new() -> Self {
        SegmentColumns { tags: Vec::new(), peers: Vec::new(), vols: Vec::new(), aux: Vec::new() }
    }

    /// An empty segment with room for `n` actions.
    pub(crate) fn with_capacity(n: usize) -> Self {
        SegmentColumns {
            tags: Vec::with_capacity(n),
            peers: Vec::with_capacity(n),
            vols: Vec::with_capacity(n),
            aux: Vec::new(),
        }
    }

    /// Actions held.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True when no actions are held.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Interns one rank's action list, with no spare capacity.
    pub fn from_actions(actions: &[Action]) -> Result<Self, CompactError> {
        let mut c = SegmentColumns::with_capacity(actions.len());
        for a in actions {
            c.push(a)?;
        }
        c.shrink_to_fit();
        Ok(c)
    }

    /// Appends one action (segment-local side table).
    pub fn push(&mut self, a: &Action) -> Result<(), CompactError> {
        let (t, peer, vol) = encode_parts(a, &mut self.aux)?;
        self.tags.push(t);
        self.peers.push(peer);
        self.vols.push(vol);
        Ok(())
    }

    /// Drops every action but keeps the allocations, so a reused chunk
    /// refills without reallocating.
    pub fn clear(&mut self) {
        self.tags.clear();
        self.peers.clear();
        self.vols.clear();
        self.aux.clear();
    }

    /// Releases spare capacity: [`SegmentColumns::heap_bytes`] is then
    /// exactly the column bytes.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.tags.shrink_to_fit();
        self.peers.shrink_to_fit();
        self.vols.shrink_to_fit();
        self.aux.shrink_to_fit();
    }

    /// Decodes the `i`-th action.
    ///
    /// # Panics
    /// On an out-of-range `i`. Segments read from a store are
    /// structurally validated (tags and side-table indices), so decode
    /// itself cannot fail on them.
    pub fn action(&self, i: usize) -> Action {
        decode_parts(self.tags[i], self.peers[i], self.vols[i], &self.aux)
    }

    /// Heap bytes behind the decoded columns — what a resident segment
    /// charges against the memory budget.
    pub fn heap_bytes(&self) -> usize {
        self.tags.capacity() * 4
            + self.peers.capacity() * 4
            + self.vols.capacity() * 8
            + self.aux.capacity() * 8
    }

    /// On-disk payload length of this segment.
    fn payload_len(&self) -> usize {
        16 * self.len() + 4 + 8 * self.aux.len()
    }

    /// Serializes header + payload for segment `seg_index` of `rank`.
    fn serialize(&self, rank: u32, seg_index: u32) -> Vec<u8> {
        let n = self.len();
        let mut buf = Vec::with_capacity(SEG_HEADER_LEN + self.payload_len());
        buf.extend_from_slice(&rank.to_le_bytes());
        buf.extend_from_slice(&seg_index.to_le_bytes());
        buf.extend_from_slice(&(n as u32).to_le_bytes());
        buf.extend_from_slice(&(self.payload_len() as u32).to_le_bytes());
        for &t in &self.tags {
            buf.extend_from_slice(&t.to_le_bytes());
        }
        for &p in &self.peers {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        for &v in &self.vols {
            buf.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        buf.extend_from_slice(&(self.aux.len() as u32).to_le_bytes());
        for &a in &self.aux {
            buf.extend_from_slice(&a.to_bits().to_le_bytes());
        }
        buf
    }
}

/// Footer entry for one segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegMeta {
    /// Byte offset of the segment header in the file.
    pub offset: u64,
    /// Actions the segment holds.
    pub n_actions: u32,
    /// Payload bytes after the 16-byte segment header.
    pub payload_len: u32,
    /// FNV-1a-64 over header + payload.
    pub checksum: u64,
}

impl SegMeta {
    /// Estimated heap bytes of the decoded segment (columns only) —
    /// the residency charge the replay cache books *before* reading,
    /// so the budget can refuse without paying the allocation first.
    pub fn decoded_bytes(&self) -> u64 {
        // payload_len = 16 n + 4 + 8 n_aux, and decoded columns cost
        // exactly 16 n + 8 n_aux: the payload length minus the aux
        // count word is the in-memory size.
        u64::from(self.payload_len.saturating_sub(4))
    }
}

/// What [`Tib2Writer::finish`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tib2Summary {
    /// Ranks written.
    pub ranks: usize,
    /// Total actions across all ranks.
    pub actions: u64,
    /// Total segments.
    pub segments: u64,
    /// Total file bytes, head through trailer.
    pub bytes: u64,
    /// The store's content fingerprint (the trailer's `footer_fnv`).
    pub fingerprint: u64,
}

/// Streaming segmented writer: holds one open segment, so memory is
/// O(`seg_actions`) however large the trace — a generator can emit a
/// class-D-scale store directly (`tit-gen --tib2`). Point it at an
/// [`crate::atomicio::AtomicFile`] and commit after [`finish`] for the
/// all-or-nothing on-disk contract.
///
/// [`finish`]: Tib2Writer::finish
#[derive(Debug)]
pub struct Tib2Writer<W: Write> {
    out: W,
    pos: u64,
    seg_actions: usize,
    cur: SegmentColumns,
    index: Vec<Vec<SegMeta>>,
    actions: u64,
}

impl<W: Write> Tib2Writer<W> {
    /// Starts a store on `out` (writes the head immediately) cutting
    /// segments every `seg_actions` actions (0 means
    /// [`DEFAULT_SEG_ACTIONS`]).
    pub fn new(mut out: W, seg_actions: usize) -> io::Result<Self> {
        out.write_all(&MAGIC)?;
        out.write_all(&VERSION.to_le_bytes())?;
        let seg_actions = if seg_actions == 0 { DEFAULT_SEG_ACTIONS } else { seg_actions };
        Ok(Tib2Writer {
            out,
            pos: HEAD_LEN,
            seg_actions,
            cur: SegmentColumns::new(),
            index: Vec::new(),
            actions: 0,
        })
    }

    /// Opens the next rank's stream (flushing the previous rank's open
    /// segment). Ranks are written in order; empty ranks are legal and
    /// cost one footer word.
    pub fn begin_rank(&mut self) -> io::Result<()> {
        if !self.index.is_empty() {
            self.flush_segment()?;
        }
        self.index.push(Vec::new());
        Ok(())
    }

    /// Appends one action to the current rank, cutting a segment when
    /// full. Opens rank 0 implicitly if no rank is open.
    pub fn push(&mut self, a: &Action) -> io::Result<()> {
        if self.index.is_empty() {
            self.index.push(Vec::new());
        }
        self.cur.push(a).map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        self.actions += 1;
        if self.cur.len() >= self.seg_actions {
            self.flush_segment()?;
        }
        Ok(())
    }

    fn flush_segment(&mut self) -> io::Result<()> {
        if self.cur.is_empty() {
            return Ok(());
        }
        // panics: flush_segment only runs with a rank open
        let rank = self.index.len() - 1;
        let seg_index = self.index[rank].len();
        let bytes = self.cur.serialize(rank as u32, seg_index as u32);
        let checksum = fnv1a(&bytes);
        self.out.write_all(&bytes)?;
        self.index[rank].push(SegMeta {
            offset: self.pos,
            n_actions: self.cur.len() as u32,
            payload_len: self.cur.payload_len() as u32,
            checksum,
        });
        self.pos += bytes.len() as u64;
        self.cur = SegmentColumns::new();
        Ok(())
    }

    /// Flushes the open segment, writes footer and trailer, and hands
    /// the sink back (so an `AtomicFile` can be committed).
    pub fn finish(mut self) -> io::Result<(W, Tib2Summary)> {
        self.flush_segment()?;
        let mut e = Enc::new();
        e.usize(self.index.len());
        for segs in &self.index {
            e.usize(segs.len());
            for m in segs {
                e.u64(m.offset);
                e.u32(m.n_actions);
                e.u32(m.payload_len);
                e.u64(m.checksum);
            }
        }
        let footer = e.finish();
        let footer_fnv = fnv1a(&footer);
        self.out.write_all(&footer)?;
        self.out.write_all(&(footer.len() as u64).to_le_bytes())?;
        self.out.write_all(&footer_fnv.to_le_bytes())?;
        self.out.write_all(&END_MAGIC)?;
        self.out.flush()?;
        let segments = self.index.iter().map(Vec::len).sum::<usize>() as u64;
        let summary = Tib2Summary {
            ranks: self.index.len(),
            actions: self.actions,
            segments,
            bytes: self.pos + footer.len() as u64 + TRAILER_LEN,
            fingerprint: footer_fnv,
        };
        Ok((self.out, summary))
    }
}

/// Writes a fully-resident [`CompactTrace`] as a `TIB2` store,
/// atomically (tmp + fsync + rename; see [`crate::atomicio`]).
pub fn write_compact_atomic(
    dest: &Path,
    trace: &CompactTrace,
    seg_actions: usize,
) -> io::Result<Tib2Summary> {
    let af = crate::atomicio::AtomicFile::create(dest)?;
    let mut w = Tib2Writer::new(io::BufWriter::new(af), seg_actions)?;
    for rank in 0..trace.num_processes() {
        w.begin_rank()?;
        for a in trace.iter_rank(rank) {
            w.push(&a)?;
        }
    }
    let (out, summary) = w.finish()?;
    out.into_inner().map_err(|e| io::Error::other(e.to_string()))?.commit()?;
    Ok(summary)
}

/// Converts a per-process text trace directory into a `TIB2` store.
/// Parsing fans out over `jobs` workers
/// ([`for_each_rank`](crate::ingest::for_each_rank)); the store
/// itself is written serially in rank order, so the output bytes are
/// identical for every `jobs` value.
pub fn convert_dir_atomic(
    dir: &Path,
    nproc: usize,
    dest: &Path,
    seg_actions: usize,
    jobs: usize,
) -> io::Result<Tib2Summary> {
    let trace = crate::ingest::load_compact_exact(dir, nproc, jobs)
        .map_err(|e| io::Error::new(e.source.kind(), e.to_string()))?;
    write_compact_atomic(dest, &trace, seg_actions)
}

/// An opened, index-verified `TIB2` store.
///
/// `open` validates head, trailer and footer fail-closed; after it
/// returns, only the per-rank segment index (40 bytes per segment) is
/// resident. Segments are served by positioned reads — [`Tib2Store`]
/// is `Sync`, so one store handle feeds every replay worker without
/// locking.
#[derive(Debug)]
pub struct Tib2Store {
    file: File,
    path: PathBuf,
    index: Vec<Vec<SegMeta>>,
    rank_actions: Vec<u64>,
    footer_fnv: u64,
    file_len: u64,
}

impl Tib2Store {
    /// Opens and verifies a store's framing: head magic and version,
    /// trailer magic, footer length, footer checksum, and index sanity
    /// (every segment in bounds, payload lengths structurally
    /// consistent). Segment *content* is verified lazily, per read.
    pub fn open(path: &Path) -> Result<Tib2Store, StoreError> {
        let ioerr = |source| StoreError::Io { path: path.to_path_buf(), source };
        let mut file = File::open(path).map_err(ioerr)?;
        let file_len = file.metadata().map_err(ioerr)?.len();
        if file_len < HEAD_LEN + TRAILER_LEN {
            return Err(StoreError::FooterDamaged {
                detail: format!("file is {file_len} bytes — too short for head and trailer"),
            });
        }
        let mut head = [0u8; 8];
        file.read_exact(&mut head).map_err(ioerr)?;
        if head[..4] != MAGIC {
            // panics: the slice is exactly 4 bytes
            return Err(StoreError::BadMagic { found: head[..4].try_into().unwrap() });
        }
        // panics: the slice is exactly 4 bytes
        let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.seek(SeekFrom::End(-(TRAILER_LEN as i64))).map_err(ioerr)?;
        file.read_exact(&mut trailer).map_err(ioerr)?;
        if trailer[16..24] != END_MAGIC {
            return Err(StoreError::FooterDamaged {
                detail: "end magic missing (truncated or overwritten tail)".to_string(),
            });
        }
        // panics: the slices are exactly 8 bytes
        let footer_len = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
        let footer_fnv = u64::from_le_bytes(trailer[8..16].try_into().unwrap()); // panics: 8-byte slice
        if footer_len > file_len - HEAD_LEN - TRAILER_LEN {
            return Err(StoreError::FooterDamaged {
                detail: format!(
                    "footer length {footer_len} exceeds the file ({file_len} bytes)"
                ),
            });
        }
        let footer_start = file_len - TRAILER_LEN - footer_len;
        let mut footer = vec![0u8; footer_len as usize];
        file.read_exact_at(&mut footer, footer_start).map_err(ioerr)?;
        let actual = fnv1a(&footer);
        if actual != footer_fnv {
            return Err(StoreError::FooterDamaged {
                detail: format!(
                    "footer checksum mismatch: trailer says {footer_fnv:#018x}, \
                     footer hashes to {actual:#018x}"
                ),
            });
        }
        let index = decode_footer(&footer, footer_start)?;
        let rank_actions =
            index.iter().map(|segs| segs.iter().map(|m| u64::from(m.n_actions)).sum()).collect();
        Ok(Tib2Store { file, path: path.to_path_buf(), index, rank_actions, footer_fnv, file_len })
    }

    /// Reads just the content fingerprint (the trailer's `footer_fnv`)
    /// without decoding the footer — the cheap revalidation probe a
    /// handle cache runs on every hit to notice a store replaced on
    /// disk. Validates the end magic only; a full [`Tib2Store::open`]
    /// still decides whether the store is usable.
    pub fn read_fingerprint(path: &Path) -> Result<u64, StoreError> {
        let ioerr = |source| StoreError::Io { path: path.to_path_buf(), source };
        let file = File::open(path).map_err(ioerr)?;
        let file_len = file.metadata().map_err(ioerr)?.len();
        if file_len < HEAD_LEN + TRAILER_LEN {
            return Err(StoreError::FooterDamaged {
                detail: format!("file is {file_len} bytes — too short for head and trailer"),
            });
        }
        let mut trailer = [0u8; TRAILER_LEN as usize];
        file.read_exact_at(&mut trailer, file_len - TRAILER_LEN).map_err(ioerr)?;
        if trailer[16..24] != END_MAGIC {
            return Err(StoreError::FooterDamaged {
                detail: "end magic missing (truncated or overwritten tail)".to_string(),
            });
        }
        // panics: the slice is exactly 8 bytes
        Ok(u64::from_le_bytes(trailer[8..16].try_into().unwrap()))
    }

    /// The store file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total file size in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// Ranks in the store.
    pub fn num_ranks(&self) -> usize {
        self.index.len()
    }

    /// Segments of one rank (0 for out-of-range ranks).
    pub fn num_segments(&self, rank: usize) -> usize {
        self.index.get(rank).map_or(0, Vec::len)
    }

    /// Actions of one rank, from the footer index alone.
    pub fn rank_actions(&self, rank: usize) -> u64 {
        self.rank_actions.get(rank).copied().unwrap_or(0)
    }

    /// Total actions across all ranks, from the footer index alone.
    pub fn num_actions(&self) -> u64 {
        self.rank_actions.iter().sum()
    }

    /// Footer entry of one segment.
    pub fn segment_meta(&self, rank: usize, seg: usize) -> Option<&SegMeta> {
        self.index.get(rank)?.get(seg)
    }

    /// The store's content fingerprint: the footer's FNV-1a-64 (which
    /// transitively covers every segment checksum). Checkpoints taken
    /// against a store embed this, so resume refuses a swapped or
    /// rewritten store.
    pub fn fingerprint(&self) -> u64 {
        self.footer_fnv
    }

    /// Reads, verifies and decodes one segment — fail-closed: the
    /// checksum is checked over the raw bytes before any decoding, the
    /// embedded header must agree with the footer, and the decoded
    /// columns are structurally validated (known tags, side-table
    /// indices in range) so later [`SegmentColumns::action`] calls
    /// cannot fail.
    pub fn read_segment(&self, rank: usize, seg: usize) -> Result<SegmentColumns, StoreError> {
        let meta = *self.segment_meta(rank, seg).ok_or(StoreError::OutOfRange { rank, segment: seg })?;
        let damaged = |detail: String| StoreError::SegmentDamaged {
            rank,
            segment: seg,
            offset: meta.offset,
            detail,
        };
        let total = SEG_HEADER_LEN + meta.payload_len as usize;
        let mut buf = vec![0u8; total];
        self.file.read_exact_at(&mut buf, meta.offset).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                damaged(format!("short read ({total} bytes wanted)"))
            } else {
                StoreError::Io { path: self.path.clone(), source: e }
            }
        })?;
        let actual = fnv1a(&buf);
        if actual != meta.checksum {
            return Err(damaged(format!(
                "checksum mismatch: footer says {:#018x}, segment hashes to {actual:#018x}",
                meta.checksum
            )));
        }
        let u32_at = |i: usize| {
            // panics: `buf` holds at least the 16-byte header
            u32::from_le_bytes(buf[i..i + 4].try_into().unwrap())
        };
        if u32_at(0) != rank as u32
            || u32_at(4) != seg as u32
            || u32_at(8) != meta.n_actions
            || u32_at(12) != meta.payload_len
        {
            return Err(damaged(format!(
                "segment header (rank {} seg {} n {} len {}) contradicts the footer",
                u32_at(0),
                u32_at(4),
                u32_at(8),
                u32_at(12)
            )));
        }
        decode_payload(&buf[SEG_HEADER_LEN..], meta.n_actions as usize).map_err(damaged)
    }

    /// Verifies one segment without keeping the decoded columns.
    pub fn verify_segment(&self, rank: usize, seg: usize) -> Result<(), StoreError> {
        self.read_segment(rank, seg).map(|_| ())
    }
}

/// Decodes and sanity-checks the footer index.
fn decode_footer(footer: &[u8], footer_start: u64) -> Result<Vec<Vec<SegMeta>>, StoreError> {
    let bad = |detail: String| StoreError::FooterDamaged { detail };
    let mut d = Dec::new(footer);
    let nranks = d.usize().map_err(bad)?;
    // 2 footer words minimum per rank; refuses absurd counts before
    // allocating.
    if nranks > footer.len() {
        return Err(bad(format!("{nranks} ranks cannot fit a {}-byte footer", footer.len())));
    }
    let mut index = Vec::with_capacity(nranks);
    for rank in 0..nranks {
        let nsegs = d.usize().map_err(bad)?;
        if nsegs > footer.len() {
            return Err(bad(format!(
                "rank {rank}: {nsegs} segments cannot fit a {}-byte footer",
                footer.len()
            )));
        }
        let mut segs = Vec::with_capacity(nsegs);
        for seg in 0..nsegs {
            let offset = d.u64().map_err(bad)?;
            let n_actions = d.u32().map_err(bad)?;
            let payload_len = d.u32().map_err(bad)?;
            let checksum = d.u64().map_err(bad)?;
            let n = u64::from(n_actions);
            // payload = 16 n + 4 + 8 n_aux must hold for some n_aux.
            let fixed = 16 * n + 4;
            if u64::from(payload_len) < fixed || (u64::from(payload_len) - fixed) % 8 != 0 {
                return Err(bad(format!(
                    "rank {rank} segment {seg}: payload length {payload_len} is \
                     inconsistent with {n_actions} actions"
                )));
            }
            let end = offset
                .checked_add(SEG_HEADER_LEN as u64)
                .and_then(|v| v.checked_add(u64::from(payload_len)));
            if offset < HEAD_LEN || end.is_none_or(|e| e > footer_start) {
                return Err(bad(format!(
                    "rank {rank} segment {seg}: offset {offset} (+{payload_len}) \
                     falls outside the segment region"
                )));
            }
            segs.push(SegMeta { offset, n_actions, payload_len, checksum });
        }
        index.push(segs);
    }
    d.expect_done().map_err(bad)?;
    Ok(index)
}

/// Decodes a verified payload into columns, validating every tag and
/// side-table index so decode-on-replay is infallible.
fn decode_payload(payload: &[u8], n: usize) -> Result<SegmentColumns, String> {
    let need = 16 * n + 4;
    if payload.len() < need {
        return Err(format!("payload holds {} bytes, {need} needed", payload.len()));
    }
    let u32_at = |i: usize| {
        // panics: bounds checked above / below before every call
        u32::from_le_bytes(payload[i..i + 4].try_into().unwrap())
    };
    let f64_at = |i: usize| {
        // panics: bounds checked above / below before every call
        f64::from_bits(u64::from_le_bytes(payload[i..i + 8].try_into().unwrap()))
    };
    let tags: Vec<u32> = (0..n).map(|i| u32_at(4 * i)).collect();
    let peers: Vec<u32> = (0..n).map(|i| u32_at(4 * n + 4 * i)).collect();
    let vols: Vec<f64> = (0..n).map(|i| f64_at(8 * n + 8 * i)).collect();
    let n_aux = u32_at(16 * n) as usize;
    if payload.len() != need + 8 * n_aux {
        return Err(format!(
            "payload holds {} bytes, {} needed for {n_aux} side-table entries",
            payload.len(),
            need + 8 * n_aux
        ));
    }
    let aux: Vec<f64> = (0..n_aux).map(|i| f64_at(16 * n + 4 + 8 * i)).collect();
    for i in 0..n {
        let t = tags[i];
        if tag::keyword(t).is_none() {
            return Err(format!("entry {i}: unknown tag {t}"));
        }
        if (t == tag::REDUCE || t == tag::ALLREDUCE) && peers[i] as usize >= n_aux {
            return Err(format!(
                "entry {i}: side-table index {} out of range ({n_aux} entries)",
                peers[i]
            ));
        }
        if t != tag::RECV && t != tag::IRECV && vols[i].is_nan() {
            return Err(format!("entry {i}: NaN volume on a non-receive"));
        }
        if (t == tag::SEND || t == tag::ISEND || t == tag::RECV || t == tag::IRECV
            || t == tag::COMM_SIZE)
            && peers[i] == NO_PEER
        {
            return Err(format!("entry {i}: missing peer on tag {t}"));
        }
    }
    Ok(SegmentColumns { tags, peers, vols, aux })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TiTrace;

    fn sample_trace(np: usize, per_rank: usize) -> CompactTrace {
        let mut t = TiTrace::new(np);
        for rank in 0..np {
            t.push(rank, Action::CommSize { nproc: np });
            for i in 0..per_rank {
                match i % 5 {
                    0 => t.push(rank, Action::Compute { flops: 1e6 + i as f64 }),
                    1 => t.push(rank, Action::Send { dst: (rank + 1) % np, bytes: 64.0 }),
                    2 => t.push(
                        rank,
                        Action::Recv { src: (rank + np - 1) % np, bytes: None },
                    ),
                    3 => t.push(rank, Action::AllReduce { vcomm: 8.0, vcomp: i as f64 }),
                    _ => t.push(rank, Action::Barrier),
                }
            }
        }
        CompactTrace::from_trace(&t).unwrap()
    }

    /// Every rank's actions, read back segment by segment.
    fn read_back(store: &Tib2Store) -> TiTrace {
        let mut t = TiTrace::new(store.num_ranks());
        for rank in 0..store.num_ranks() {
            for seg in 0..store.num_segments(rank) {
                let cols = store.read_segment(rank, seg).unwrap();
                for i in 0..cols.len() {
                    t.push(rank, cols.action(i));
                }
            }
        }
        t
    }

    fn write_tmp(trace: &CompactTrace, seg_actions: usize) -> (tempdir::TempDir, PathBuf) {
        let dir = tempdir::TempDir::new();
        let path = dir.path().join("trace.tib2");
        write_compact_atomic(&path, trace, seg_actions).unwrap();
        (dir, path)
    }

    /// Minimal self-cleaning temp dir (std-only; no tempfile crate).
    mod tempdir {
        use std::path::{Path, PathBuf};
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDir(PathBuf);
        static SEQ: AtomicU64 = AtomicU64::new(0);

        impl TempDir {
            pub fn new() -> TempDir {
                let n = SEQ.fetch_add(1, Ordering::Relaxed);
                let p = std::env::temp_dir()
                    .join(format!("tib2-test-{}-{n}", std::process::id()));
                std::fs::create_dir_all(&p).unwrap();
                TempDir(p)
            }
            pub fn path(&self) -> &Path {
                &self.0
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }


    #[test]
    fn round_trip_multi_segment() {
        let trace = sample_trace(4, 1000);
        let (dir, path) = write_tmp(&trace, 64);
        let store = Tib2Store::open(&path).unwrap();
        assert_eq!(store.num_ranks(), 4);
        assert_eq!(store.num_actions() as usize, trace.num_actions());
        assert!(store.num_segments(0) > 1, "expected multiple segments");
        let back = read_back(&store);
        // NaN vols (unannotated receives) defeat derived equality;
        // compare the decoded trace and the re-serialized bytes.
        assert_eq!(back, trace.to_trace());
        let reser = dir.path().join("reser.tib2");
        write_compact_atomic(&reser, &CompactTrace::from_trace(&back).unwrap(), 64).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), std::fs::read(&reser).unwrap());
    }

    #[test]
    fn writer_output_is_deterministic() {
        let trace = sample_trace(3, 500);
        let (_d, path_a) = write_tmp(&trace, 100);
        let (_d2, path_b) = write_tmp(&trace, 100);
        assert_eq!(std::fs::read(&path_a).unwrap(), std::fs::read(&path_b).unwrap());
    }

    #[test]
    fn empty_ranks_survive() {
        let mut t = TiTrace::new(4);
        t.push(2, Action::Barrier);
        let trace = CompactTrace::from_trace(&t).unwrap();
        let (_d, path) = write_tmp(&trace, 8);
        let store = Tib2Store::open(&path).unwrap();
        assert_eq!(store.num_ranks(), 4);
        assert_eq!(store.num_segments(0), 0);
        assert_eq!(store.rank_actions(2), 1);
        assert_eq!(read_back(&store), t);
    }

    #[test]
    fn flipped_payload_bit_is_segment_damage() {
        let trace = sample_trace(2, 300);
        let (_d, path) = write_tmp(&trace, 64);
        let mut bytes = std::fs::read(&path).unwrap();
        let store = Tib2Store::open(&path).unwrap();
        let m = *store.segment_meta(1, 2).unwrap();
        bytes[m.offset as usize + SEG_HEADER_LEN + 5] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let store = Tib2Store::open(&path).unwrap();
        match store.read_segment(1, 2) {
            Err(StoreError::SegmentDamaged { rank, segment, offset, detail }) => {
                assert_eq!((rank, segment, offset), (1, 2, m.offset));
                assert!(detail.contains("checksum mismatch"), "{detail}");
            }
            other => panic!("expected SegmentDamaged, got {other:?}"),
        }
        // Sibling segments still verify.
        store.read_segment(1, 0).unwrap();
        store.read_segment(0, 0).unwrap();
        let segs = (0..2).flat_map(|r| (0..store.num_segments(r)).map(move |g| (r, g)));
        let damaged: Vec<_> = segs.filter(|&(r, g)| store.verify_segment(r, g).is_err()).collect();
        assert_eq!(damaged, [(1, 2)]);
    }

    #[test]
    fn flipped_footer_bit_fails_open() {
        let trace = sample_trace(2, 100);
        let (_d, path) = write_tmp(&trace, 32);
        let len = std::fs::metadata(&path).unwrap().len() as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        // 40 bytes into the trailer-relative footer region.
        bytes[len - TRAILER_LEN as usize - 40] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match Tib2Store::open(&path) {
            Err(StoreError::FooterDamaged { detail }) => {
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("expected FooterDamaged, got {other:?}"),
        }
    }

    #[test]
    fn truncation_fails_open() {
        let trace = sample_trace(2, 100);
        let (_d, path) = write_tmp(&trace, 32);
        let bytes = std::fs::read(&path).unwrap();
        for keep in [bytes.len() - 1, bytes.len() - TRAILER_LEN as usize, 9, 0] {
            std::fs::write(&path, &bytes[..keep]).unwrap();
            assert!(
                matches!(
                    Tib2Store::open(&path),
                    Err(StoreError::FooterDamaged { .. } | StoreError::BadMagic { .. })
                ),
                "truncation to {keep} bytes must fail the open"
            );
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let trace = sample_trace(1, 10);
        let (_d, path) = write_tmp(&trace, 8);
        let mut bytes = std::fs::read(&path).unwrap();
        let good = bytes.clone();
        bytes[0] = b'X';
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Tib2Store::open(&path), Err(StoreError::BadMagic { .. })));
        bytes = good;
        bytes[4] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Tib2Store::open(&path),
            Err(StoreError::BadVersion { found: 99 })
        ));
    }

    #[test]
    fn out_of_range_is_typed() {
        let trace = sample_trace(2, 10);
        let (_d, path) = write_tmp(&trace, 8);
        let store = Tib2Store::open(&path).unwrap();
        assert!(matches!(
            store.read_segment(5, 0),
            Err(StoreError::OutOfRange { rank: 5, segment: 0 })
        ));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample_trace(2, 50);
        let mut t = a.to_trace();
        t.push(1, Action::Barrier);
        let b = CompactTrace::from_trace(&t).unwrap();
        let (_d1, pa) = write_tmp(&a, 16);
        let (_d2, pb) = write_tmp(&b, 16);
        let fa = Tib2Store::open(&pa).unwrap().fingerprint();
        let fb = Tib2Store::open(&pb).unwrap().fingerprint();
        assert_ne!(fa, fb);
    }

    #[test]
    fn decoded_bytes_matches_heap() {
        let trace = sample_trace(1, 200);
        let (_d, path) = write_tmp(&trace, 64);
        let store = Tib2Store::open(&path).unwrap();
        let m = *store.segment_meta(0, 0).unwrap();
        let seg = store.read_segment(0, 0).unwrap();
        assert_eq!(m.decoded_bytes() as usize, seg.heap_bytes());
    }
}
