//! Trace containers and file IO.
//!
//! The paper stores one trace file per process
//! (`SG_process<N>.trace`, Figure 2) or, for small runs, a single merged
//! file (Figure 1). Both layouts are supported, in-memory and streaming.
//! Streaming matters: Section 6.5 acquires a 32.5 GiB trace, far beyond
//! what should be resident during replay.

use crate::action::{Action, Pid};
use crate::codec::{format_action_into, parse_line_bytes, ParseError};
use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Conventional per-process trace file name (`SG_process<N>.trace`).
pub fn process_trace_filename(rank: Pid) -> String {
    format!("SG_process{rank}.trace")
}

/// An in-memory time-independent trace: one action list per process.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TiTrace {
    /// `actions[rank]` is the ordered action list of process `rank`.
    pub actions: Vec<Vec<Action>>,
}

impl TiTrace {
    /// An empty trace for `nproc` processes.
    pub fn new(nproc: usize) -> Self {
        TiTrace { actions: vec![Vec::new(); nproc] }
    }

    /// Number of processes.
    pub fn num_processes(&self) -> usize {
        self.actions.len()
    }

    /// Total number of actions across all processes.
    pub fn num_actions(&self) -> usize {
        self.actions.iter().map(Vec::len).sum()
    }

    /// Appends an action to `rank`'s list, growing the process set if
    /// needed.
    pub fn push(&mut self, rank: Pid, action: Action) {
        if rank >= self.actions.len() {
            self.actions.resize(rank + 1, Vec::new());
        }
        self.actions[rank].push(action);
    }

    /// Parses a merged trace (one file, lines of all processes).
    pub fn from_reader<R: BufRead>(r: R) -> Result<Self, ParseError> {
        let mut t = TiTrace::default();
        let mut lines = ByteLines::new(r);
        while let Some((pid, a)) = lines.next_action()? {
            t.push(pid, a);
        }
        Ok(t)
    }

    /// Loads a merged trace file.
    pub fn load_merged(path: &Path) -> std::io::Result<Self> {
        let f = File::open(path)?;
        Self::from_reader(BufReader::with_capacity(1 << 20, f))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Writes the merged single-file layout.
    pub fn write_merged<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let mut buf = String::with_capacity(64);
        for (rank, actions) in self.actions.iter().enumerate() {
            for a in actions {
                buf.clear();
                format_action_into(&mut buf, rank, a);
                buf.push('\n');
                w.write_all(buf.as_bytes())?;
            }
        }
        Ok(())
    }

    /// Merges adjacent `compute` actions per process (summing volumes).
    ///
    /// Extraction from TAU traces cannot distinguish two back-to-back
    /// CPU bursts — the `PAPI_FP_OPS` counter is only sampled at MPI
    /// boundaries — so extracted traces are always in this coalesced
    /// form; replay timing is unaffected (durations add).
    pub fn coalesce_computes(&mut self) {
        for actions in &mut self.actions {
            let mut out: Vec<Action> = Vec::with_capacity(actions.len());
            for a in actions.drain(..) {
                match (out.last_mut(), a) {
                    (
                        Some(Action::Compute { flops: acc }),
                        Action::Compute { flops },
                    ) => *acc += flops,
                    (_, a) => out.push(a),
                }
            }
            *actions = out;
        }
    }

    /// Saves one `SG_process<N>.trace` per process under `dir`; returns
    /// the paths.
    pub fn save_per_process(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut paths = Vec::with_capacity(self.actions.len());
        for (rank, actions) in self.actions.iter().enumerate() {
            let mut w = ProcessTraceWriter::create(dir, rank)?;
            for a in actions {
                w.write(a)?;
            }
            w.finish()?;
            paths.push(dir.join(process_trace_filename(rank)));
        }
        Ok(paths)
    }
}

/// Streaming writer for one process's trace file.
///
/// Used by the extraction stage so multi-GiB traces never live in memory.
pub struct ProcessTraceWriter {
    rank: Pid,
    w: BufWriter<File>,
    buf: String,
    actions_written: u64,
}

impl ProcessTraceWriter {
    /// Creates `dir/SG_process<rank>.trace`.
    pub fn create(dir: &Path, rank: Pid) -> std::io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let f = File::create(dir.join(process_trace_filename(rank)))?;
        Ok(ProcessTraceWriter {
            rank,
            w: BufWriter::with_capacity(1 << 20, f),
            buf: String::with_capacity(64),
            actions_written: 0,
        })
    }

    /// Appends one action.
    pub fn write(&mut self, action: &Action) -> std::io::Result<()> {
        self.buf.clear();
        format_action_into(&mut self.buf, self.rank, action);
        self.buf.push('\n');
        self.actions_written += 1;
        self.w.write_all(self.buf.as_bytes())
    }

    /// Number of actions written so far.
    pub fn actions_written(&self) -> u64 {
        self.actions_written
    }

    /// Flushes and closes the file.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.w.flush()
    }
}

/// The byte-line reader under every text trace loader. It reads `r`
/// through the reader's fixed-size buffer (never the whole stream):
/// a line that lies inside the buffer is parsed in place, and only a
/// line that straddles a refill is gathered into one reused `Vec`. Lines
/// are numbered from 1 and parsed with the byte tokenizer, so a line is
/// checked for UTF-8 only when it holds a non-ASCII byte.
pub(crate) struct ByteLines<R> {
    r: R,
    /// A line gathered across buffer refills.
    line: Vec<u8>,
    /// Bytes of the buffer the previous in-place line still occupies.
    pending: usize,
    line_no: usize,
}

impl<R: BufRead> ByteLines<R> {
    pub(crate) fn new(r: R) -> Self {
        ByteLines { r, line: Vec::new(), pending: 0, line_no: 0 }
    }

    /// The next line, `\n` included when present; `None` at end of
    /// stream.
    fn next_line(&mut self) -> io::Result<Option<&[u8]>> {
        self.r.consume(std::mem::take(&mut self.pending));
        self.line.clear();
        loop {
            let buf = match self.r.fill_buf() {
                Ok(buf) => buf,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            let (newline, n) = (buf.iter().position(|&b| b == b'\n'), buf.len());
            match newline {
                Some(k) if self.line.is_empty() => {
                    self.pending = k + 1;
                    break;
                }
                Some(k) => {
                    self.line.extend_from_slice(&buf[..=k]);
                    self.r.consume(k + 1);
                    return Ok(Some(&self.line));
                }
                None if n == 0 => return Ok((!self.line.is_empty()).then_some(&self.line[..])),
                None => {
                    self.line.extend_from_slice(buf);
                    self.r.consume(n);
                }
            }
        }
        // The line lies inside the buffer: `fill_buf` hands back the
        // bytes it already holds, and the line is consumed on the next
        // call.
        Ok(self.r.fill_buf()?.get(..self.pending))
    }

    /// The next `(pid, action)`, skipping blank and comment lines:
    /// `Ok(Ok(None))` at end of stream, `Ok(Err)` for a defective line,
    /// `Err` when reading line `line_no + 1` failed.
    fn read_action(&mut self) -> io::Result<Result<Option<(Pid, Action)>, ParseError>> {
        loop {
            let line_no = self.line_no + 1;
            let Some(line) = self.next_line()? else { return Ok(Ok(None)) };
            let parsed = parse_line_bytes(line, line_no);
            self.line_no = line_no;
            if !matches!(parsed, Ok(None)) {
                return Ok(parsed);
            }
        }
    }

    /// The 1-based number of the line the last action came from.
    pub(crate) fn line(&self) -> usize {
        self.line_no
    }

    /// [`ByteLines::read_action`] for whole-stream loads, which report a
    /// read failure as the parse error of the line it hit.
    pub(crate) fn next_action(&mut self) -> Result<Option<(Pid, Action)>, ParseError> {
        self.read_action().unwrap_or_else(|e| {
            Err(ParseError { line: self.line_no + 1, message: format!("io error: {e}") })
        })
    }
}

/// Streaming reader over one process's trace file.
pub struct ProcessTraceReader {
    lines: ByteLines<BufReader<File>>,
}

impl ProcessTraceReader {
    /// Opens `path` (a per-process or merged trace file).
    pub fn open(path: &Path) -> std::io::Result<Self> {
        Ok(ProcessTraceReader {
            lines: ByteLines::new(BufReader::with_capacity(1 << 16, File::open(path)?)),
        })
    }

    /// Reads the next `(pid, action)`; `Ok(None)` at end of file. A
    /// defective line (invalid UTF-8 included) is an `InvalidData`
    /// error naming the line.
    pub fn next_action(&mut self) -> std::io::Result<Option<(Pid, Action)>> {
        self.read_action()?.map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// [`next_action`](Self::next_action) keeping a defective line
    /// apart from a failed read: `Ok(Err)` is the parse error of one
    /// line (the next call reads on past it), `Err` an I/O error.
    pub fn read_action(&mut self) -> io::Result<Result<Option<(Pid, Action)>, ParseError>> {
        self.lines.read_action()
    }

    /// Reads the rest of the file, counting its non-blank lines
    /// (comments included). It reads the file directly rather than
    /// through `ByteLines::next_line`, which then keeps one caller and
    /// stays inlined in the parse loop.
    pub fn count_nonblank_lines(&mut self) -> io::Result<u64> {
        let r = &mut self.lines.r;
        r.consume(std::mem::take(&mut self.lines.pending));
        let (mut n, mut line) = (0, Vec::new());
        while r.read_until(b'\n', &mut line)? > 0 {
            n += u64::from(!line.iter().all(u8::is_ascii_whitespace));
            line.clear();
        }
        Ok(n)
    }

    /// The 1-based number of the line the last action came from.
    pub fn line(&self) -> usize {
        self.lines.line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_trace() -> TiTrace {
        // Figure 1's ring, one loop iteration.
        let mut t = TiTrace::new(4);
        t.push(0, Action::Compute { flops: 1e6 });
        t.push(0, Action::Send { dst: 1, bytes: 1e6 });
        t.push(0, Action::Recv { src: 3, bytes: None });
        for p in 1..4 {
            t.push(p, Action::Recv { src: p - 1, bytes: None });
            t.push(p, Action::Compute { flops: 1e6 });
            t.push(p, Action::Send { dst: (p + 1) % 4, bytes: 1e6 });
        }
        t
    }

    #[test]
    fn merged_roundtrip() {
        let t = ring_trace();
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        let t2 = TiTrace::from_reader(&buf[..]).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn merged_matches_figure_1_text() {
        let t = ring_trace();
        let mut buf = Vec::new();
        t.write_merged(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("p0 compute 1000000\n"));
        assert!(text.contains("p0 send p1 1000000\n"));
        assert!(text.contains("p0 recv p3\n"));
        assert!(text.contains("p3 send p0 1000000\n"));
    }

    #[test]
    fn per_process_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("titr-test-{}", std::process::id()));
        let t = ring_trace();
        let paths = t.save_per_process(&dir).unwrap();
        assert_eq!(paths.len(), 4);
        assert!(paths[2].file_name().unwrap().to_str().unwrap() == "SG_process2.trace");
        let t2 = crate::ingest::load_exact(&dir, 4, 1).unwrap();
        assert_eq!(t, t2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn streaming_writer_reader_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("titr-stream-{}", std::process::id()));
        let mut w = ProcessTraceWriter::create(&dir, 3).unwrap();
        let actions = [
            Action::CommSize { nproc: 8 },
            Action::Compute { flops: 5e8 },
            Action::Isend { dst: 0, bytes: 1024.0 },
            Action::Wait,
        ];
        for a in &actions {
            w.write(a).unwrap();
        }
        assert_eq!(w.actions_written(), 4);
        w.finish().unwrap();
        let mut r =
            ProcessTraceReader::open(&dir.join(process_trace_filename(3))).unwrap();
        let mut got = Vec::new();
        while let Some((pid, a)) = r.next_action().unwrap() {
            assert_eq!(pid, 3);
            got.push(a);
        }
        assert_eq!(got, actions);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn coalesce_merges_adjacent_computes_only() {
        let mut t = TiTrace::new(1);
        t.push(0, Action::Compute { flops: 10.0 });
        t.push(0, Action::Compute { flops: 5.0 });
        t.push(0, Action::Barrier);
        t.push(0, Action::Compute { flops: 1.0 });
        t.push(0, Action::Compute { flops: 2.0 });
        t.coalesce_computes();
        assert_eq!(
            t.actions[0],
            vec![
                Action::Compute { flops: 15.0 },
                Action::Barrier,
                Action::Compute { flops: 3.0 }
            ]
        );
    }

    #[test]
    fn push_grows_process_set() {
        let mut t = TiTrace::default();
        t.push(5, Action::Barrier);
        assert_eq!(t.num_processes(), 6);
        assert_eq!(t.num_actions(), 1);
    }

    #[test]
    fn load_missing_dir_errors() {
        let dir = std::env::temp_dir().join("titr-definitely-missing-xyz");
        assert!(crate::ingest::load_exact(&dir, 1, 1).is_err());
    }
}
