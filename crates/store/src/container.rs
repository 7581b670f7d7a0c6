//! The container file format: magic, version, a checksummed TOC, and
//! named page-aligned column segments.
//!
//! # File layout (version 1)
//!
//! ```text
//! offset 0                                     page boundary (4096)
//! ┌──────────────┬─────────────┬──────┬────────┬─────────┬──────┬─────
//! │ fixed header │  TOC block  │ zero │ segment│  zero   │ seg- │ ...
//! │   56 bytes   │  (toc_len)  │ pad  │   0    │  pad    │ ment │
//! └──────────────┴─────────────┴──────┴────────┴─────────┴──────┴─────
//! ```
//!
//! Fixed header (56 bytes):
//!
//! | offset | bytes | contents                                       |
//! |--------|-------|------------------------------------------------|
//! | 0      | 4     | magic `"FSTC"` ([`STORE_MAGIC`])               |
//! | 4      | 1     | version ([`STORE_VERSION`], currently `1`)     |
//! | 5      | 3     | zero                                           |
//! | 8      | 8     | declared total file length, u64 little-endian  |
//! | 16     | 8     | TOC block byte length, u64 little-endian       |
//! | 24     | 32    | double-SHA-256 of the TOC block                |
//!
//! The TOC block is a `CompactSize` segment count followed by one entry
//! per segment: `name` (`CompactSize`-length-prefixed UTF-8), `offset`
//! (u64), `len` (u64), and the segment's own double-SHA-256 checksum
//! (32 bytes). Every segment offset is a multiple of [`PAGE`] (4096);
//! the gaps between TOC, segments, and the declared end of file are zero
//! padding. Segments are laid out in TOC order, ascending, without
//! overlap.
//!
//! # Why a declared length and two checksum layers
//!
//! The declared `file_len` makes truncation ([`StoreError::Truncated`])
//! and appended garbage ([`StoreError::TrailingBytes`]) two *different*
//! diagnoses. The TOC checksum protects the metadata that all other reads
//! depend on; per-segment checksums are verified lazily on each segment
//! read, so opening a store costs O(TOC) — not O(file) — and a reader
//! that never touches a corrupt column never pays for it, while any read
//! of the corrupt column itself fails loudly
//! ([`StoreError::SegmentChecksumMismatch`]).

use fistful_chain::encode::{DecodeError, Reader, Writer};
use fistful_crypto::sha256::sha256d;
use std::io::{Read, Seek, SeekFrom};
use std::path::Path;

/// The four magic bytes opening every container file.
pub const STORE_MAGIC: [u8; 4] = *b"FSTC";

/// The current container-format version.
pub const STORE_VERSION: u8 = 1;

/// Segment alignment: every segment starts on a 4096-byte page boundary,
/// so a future `mmap`-based reader can hand out page-aligned column
/// slices directly.
pub const PAGE: u64 = 4096;

/// Byte length of the fixed header.
pub const HEADER_LEN: u64 = 56;

/// Maximum number of segments a TOC may declare. Real artifact files hold
/// a few dozen; anything larger is corrupt input.
pub const MAX_SEGMENTS: u64 = 1 << 16;

/// Maximum byte length of a segment name.
pub const MAX_NAME_LEN: usize = 256;

/// Errors from writing, opening, or reading a container file and the
/// artifacts stored in it. Each corruption class gets its own variant so a
/// bad file is diagnosed, not just refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The first four bytes were not [`STORE_MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a format this build cannot read.
    UnsupportedVersion(u8),
    /// The file ended before its declared length (header, TOC, or a
    /// segment extends past the end).
    Truncated,
    /// The file is longer than its declared length.
    TrailingBytes,
    /// The double-SHA-256 of the TOC block did not match the header.
    TocChecksumMismatch,
    /// The double-SHA-256 of the named segment did not match its TOC
    /// entry.
    SegmentChecksumMismatch(String),
    /// Two TOC entries claim overlapping byte ranges.
    OverlappingSegments(String, String),
    /// A segment's offset is not a multiple of [`PAGE`], or lies inside
    /// the header/TOC region.
    MisalignedSegment(String),
    /// Two TOC entries share a name.
    DuplicateSegment(String),
    /// A reader asked for a segment the TOC does not list.
    MissingSegment(String),
    /// The named segment's payload, as read by an artifact's
    /// `read_store`, failed structural decoding; the name is `TOC` when
    /// the TOC block itself did.
    Decode(String, DecodeError),
    /// The segments decoded but violated a semantic invariant of the
    /// artifact being loaded (wrong column width, disagreeing lengths,
    /// out-of-range references).
    Inconsistent(&'static str),
    /// An I/O error from the underlying file.
    Io(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic(m) => write!(f, "bad store magic {m:02x?}"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store version {v} (supported: {STORE_VERSION})")
            }
            StoreError::Truncated => write!(f, "store file truncated"),
            StoreError::TrailingBytes => write!(f, "trailing bytes after declared store length"),
            StoreError::TocChecksumMismatch => write!(f, "store TOC checksum mismatch"),
            StoreError::SegmentChecksumMismatch(name) => {
                write!(f, "segment {name:?} checksum mismatch")
            }
            StoreError::OverlappingSegments(a, b) => {
                write!(f, "segments {a:?} and {b:?} overlap")
            }
            StoreError::MisalignedSegment(name) => {
                write!(f, "segment {name:?} is not page-aligned")
            }
            StoreError::DuplicateSegment(name) => write!(f, "duplicate segment {name:?}"),
            StoreError::MissingSegment(name) => write!(f, "missing segment {name:?}"),
            StoreError::Decode(name, e) => write!(f, "store decode of {name}: {e}"),
            StoreError::Inconsistent(what) => write!(f, "inconsistent store artifact: {what}"),
            StoreError::Io(e) => write!(f, "store i/o: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Decode(_, e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            StoreError::Truncated
        } else {
            StoreError::Io(e.to_string())
        }
    }
}

/// One TOC entry.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SegmentEntry {
    name: String,
    offset: u64,
    len: u64,
    checksum: [u8; 32],
}

/// Builds a container file segment by segment, then writes it in one
/// shot.
///
/// Segments are laid out in insertion order, each on a [`PAGE`] boundary.
/// The builder owns the segment bytes until [`write_to`](Self::write_to)
/// or [`to_bytes`](Self::to_bytes) assembles the file, so the caller can
/// hand over columns as it produces them.
#[derive(Default)]
pub struct StoreWriter {
    segments: Vec<(String, Vec<u8>)>,
}

impl StoreWriter {
    /// An empty builder.
    pub fn new() -> StoreWriter {
        StoreWriter::default()
    }

    /// Adds a named segment. Panics on a duplicate or oversized name —
    /// segment names are compile-time constants of the artifact codecs,
    /// so a collision is a programming error, not input corruption.
    pub fn segment(&mut self, name: &str, bytes: Vec<u8>) {
        assert!(
            name.len() <= MAX_NAME_LEN && !name.is_empty(),
            "segment name must be 1..={MAX_NAME_LEN} bytes"
        );
        assert!(
            self.segments.iter().all(|(n, _)| n != name),
            "duplicate segment name {name:?}"
        );
        self.segments.push((name.to_string(), bytes));
    }

    /// Number of segments added so far.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Assembles the complete container file.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Lay out segments first: offsets depend only on the TOC length,
        // which depends on names and counts — not on segment contents —
        // so compute the TOC size with placeholder offsets, then fill in
        // the real ones.
        let toc_len = {
            let mut toc = Writer::new();
            toc.compact_size(self.segments.len() as u64);
            for (name, bytes) in &self.segments {
                toc.string(name);
                toc.u64(0);
                toc.u64(bytes.len() as u64);
                toc.bytes(&[0u8; 32]);
            }
            toc.len() as u64
        };
        let first_page = (HEADER_LEN + toc_len).div_ceil(PAGE) * PAGE;
        let mut offsets = Vec::with_capacity(self.segments.len());
        let mut cursor = first_page;
        for (_, bytes) in &self.segments {
            offsets.push(cursor);
            cursor += (bytes.len() as u64).div_ceil(PAGE) * PAGE;
        }
        let file_len = cursor;

        let mut toc = Writer::new();
        toc.compact_size(self.segments.len() as u64);
        for ((name, bytes), &offset) in self.segments.iter().zip(&offsets) {
            toc.string(name);
            toc.u64(offset);
            toc.u64(bytes.len() as u64);
            toc.bytes(&sha256d(bytes).0);
        }
        let toc = toc.into_bytes();
        debug_assert_eq!(toc.len() as u64, toc_len);

        let mut w = Writer::new();
        w.bytes(&STORE_MAGIC);
        w.u8(STORE_VERSION);
        w.bytes(&[0u8; 3]);
        w.u64(file_len);
        w.u64(toc_len);
        w.bytes(&sha256d(&toc).0);
        w.bytes(&toc);
        w.pad_to(PAGE as usize);
        for (_, bytes) in &self.segments {
            w.bytes(bytes);
            w.pad_to(PAGE as usize);
        }
        let out = w.into_bytes();
        debug_assert_eq!(out.len() as u64, file_len);
        out
    }

    /// Writes the container file to `path`, returning the bytes written.
    pub fn write_to(&self, path: &Path) -> Result<u64, StoreError> {
        let bytes = self.to_bytes();
        std::fs::write(path, &bytes)?;
        Ok(bytes.len() as u64)
    }
}

/// The readable side of `Read + Seek`, boxed so a [`Store`] can wrap a
/// file on disk or an in-memory buffer behind one type.
trait ReadSeek: Read + Seek + Send {}
impl<T: Read + Seek + Send> ReadSeek for T {}

/// An opened container file: the validated TOC plus a seekable source.
///
/// [`Store::open`] reads and verifies only the header and TOC — O(number
/// of segments), independent of file size. Segment reads
/// ([`bytes`](Self::bytes), [`u32s`](Self::u32s), [`u64s`](Self::u64s))
/// seek to the page-aligned offset, `read_exact` into one pre-sized
/// buffer, and verify the segment checksum — no per-element decode
/// anywhere on the open path.
pub struct Store {
    src: Box<dyn ReadSeek>,
    entries: Vec<SegmentEntry>,
}

impl Store {
    /// Opens and validates a container file on disk.
    pub fn open(path: &Path) -> Result<Store, StoreError> {
        let file = std::fs::File::open(path)?;
        Store::from_source(Box::new(file))
    }

    /// Opens a container held in memory (tests, corruption probes).
    pub fn open_bytes(bytes: Vec<u8>) -> Result<Store, StoreError> {
        Store::from_source(Box::new(std::io::Cursor::new(bytes)))
    }

    fn from_source(mut src: Box<dyn ReadSeek>) -> Result<Store, StoreError> {
        let actual_len = src.seek(SeekFrom::End(0))?;
        src.seek(SeekFrom::Start(0))?;
        let mut header = [0u8; HEADER_LEN as usize];
        src.read_exact(&mut header)?;
        let magic: [u8; 4] = header[..4].try_into().expect("4 bytes");
        if magic != STORE_MAGIC {
            return Err(StoreError::BadMagic(magic));
        }
        if header[4] != STORE_VERSION {
            return Err(StoreError::UnsupportedVersion(header[4]));
        }
        let file_len = u64::from_le_bytes(header[8..16].try_into().expect("8 bytes"));
        let toc_len = u64::from_le_bytes(header[16..24].try_into().expect("8 bytes"));
        let toc_checksum: [u8; 32] = header[24..56].try_into().expect("32 bytes");
        if actual_len < file_len {
            return Err(StoreError::Truncated);
        }
        if actual_len > file_len {
            return Err(StoreError::TrailingBytes);
        }
        if HEADER_LEN.checked_add(toc_len).map_or(true, |end| end > file_len) {
            return Err(StoreError::Truncated);
        }
        let mut toc = vec![0u8; toc_len as usize];
        src.read_exact(&mut toc)?;
        if sha256d(&toc).0 != toc_checksum {
            return Err(StoreError::TocChecksumMismatch);
        }

        // Decode and validate the entries.
        let entries = decode_whole("TOC", &toc, |r| {
            let count = r.compact_size()?;
            if count > MAX_SEGMENTS {
                return Err(DecodeError::OversizedCount(count));
            }
            let mut entries = Vec::with_capacity(count as usize);
            for _ in 0..count {
                let name = r.string()?;
                let offset = r.u64()?;
                let len = r.u64()?;
                let mut checksum = [0u8; 32];
                checksum.copy_from_slice(r.take(32)?);
                entries.push(SegmentEntry { name, offset, len, checksum });
            }
            Ok(entries)
        })?;
        let data_start = (HEADER_LEN + toc_len).div_ceil(PAGE) * PAGE;
        for e in &entries {
            if e.offset % PAGE != 0 || e.offset < data_start {
                return Err(StoreError::MisalignedSegment(e.name.clone()));
            }
            if e.offset.checked_add(e.len).map_or(true, |end| end > file_len) {
                return Err(StoreError::Truncated);
            }
        }
        let mut by_offset: Vec<&SegmentEntry> = entries.iter().collect();
        by_offset.sort_by_key(|e| e.offset);
        for pair in by_offset.windows(2) {
            if pair[0].offset + pair[0].len > pair[1].offset {
                return Err(StoreError::OverlappingSegments(
                    pair[0].name.clone(),
                    pair[1].name.clone(),
                ));
            }
        }
        let mut names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        if let Some(dup) = names.windows(2).find(|w| w[0] == w[1]) {
            return Err(StoreError::DuplicateSegment(dup[0].to_string()));
        }
        Ok(Store { src, entries })
    }

    /// Segment names, in file order.
    pub fn segment_names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|e| e.name.as_str())
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.entries.len()
    }

    /// True if the TOC lists `name`.
    pub fn has(&self, name: &str) -> bool {
        self.entries.iter().any(|e| e.name == name)
    }

    /// Byte length of segment `name`, if present.
    pub fn segment_len(&self, name: &str) -> Option<u64> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.len)
    }

    /// Reads segment `name` into one pre-sized buffer and verifies its
    /// checksum.
    pub fn bytes(&mut self, name: &str) -> Result<Vec<u8>, StoreError> {
        let entry = self
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| StoreError::MissingSegment(name.to_string()))?
            .clone();
        self.src.seek(SeekFrom::Start(entry.offset))?;
        let mut buf = vec![0u8; entry.len as usize];
        self.src.read_exact(&mut buf)?;
        if sha256d(&buf).0 != entry.checksum {
            return Err(StoreError::SegmentChecksumMismatch(entry.name));
        }
        Ok(buf)
    }

    /// Reads segment `name` as a column of little-endian u32s.
    pub fn u32s(&mut self, name: &str) -> Result<Vec<u32>, StoreError> {
        let bytes = self.bytes(name)?;
        if bytes.len() % 4 != 0 {
            return Err(StoreError::Inconsistent("u32 column length is not a multiple of 4"));
        }
        decode_whole(name, &bytes, |r| r.u32_vec(bytes.len() / 4))
    }

    /// Reads segment `name` as a column of little-endian u64s.
    pub fn u64s(&mut self, name: &str) -> Result<Vec<u64>, StoreError> {
        let bytes = self.bytes(name)?;
        if bytes.len() % 8 != 0 {
            return Err(StoreError::Inconsistent("u64 column length is not a multiple of 8"));
        }
        decode_whole(name, &bytes, |r| r.u64_vec(bytes.len() / 8))
    }

    /// Reads segment `name` and decodes all of it with `f`. A decode
    /// error, or bytes `f` leaves unread, is a [`StoreError::Decode`]
    /// naming the segment.
    pub fn decode<T>(
        &mut self,
        name: &str,
        f: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
    ) -> Result<T, StoreError> {
        let bytes = self.bytes(name)?;
        decode_whole(name, &bytes, f)
    }
}

/// Decodes all of `bytes` with `f`, naming `what` in any decode error.
fn decode_whole<T>(
    what: &str,
    bytes: &[u8],
    f: impl FnOnce(&mut Reader<'_>) -> Result<T, DecodeError>,
) -> Result<T, StoreError> {
    let mut r = Reader::new(bytes);
    f(&mut r)
        .and_then(|value| r.finish().map(|()| value))
        .map_err(|e| StoreError::Decode(what.to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreWriter {
        let mut w = StoreWriter::new();
        w.segment("alpha", vec![1, 2, 3, 4, 5]);
        w.segment("beta/u32", (0u32..1500).flat_map(|v| v.to_le_bytes()).collect());
        w.segment("gamma", Vec::new()); // empty segments are legal
        w
    }

    #[test]
    fn round_trips_and_reads_back() {
        let bytes = sample().to_bytes();
        assert_eq!(&bytes[..4], &STORE_MAGIC);
        assert_eq!(bytes.len() as u64 % PAGE, 0);
        let mut store = Store::open_bytes(bytes).unwrap();
        assert_eq!(store.segment_count(), 3);
        assert!(store.has("alpha") && store.has("beta/u32") && store.has("gamma"));
        assert_eq!(store.segment_len("alpha"), Some(5));
        assert_eq!(store.segment_len("missing"), None);
        assert_eq!(store.bytes("alpha").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(store.u32s("beta/u32").unwrap(), (0u32..1500).collect::<Vec<_>>());
        assert_eq!(store.bytes("gamma").unwrap(), Vec::<u8>::new());
        assert!(matches!(
            store.bytes("missing"),
            Err(StoreError::MissingSegment(n)) if n == "missing"
        ));
        // A byte column is not a u32/u64 column.
        assert!(matches!(store.u32s("alpha"), Err(StoreError::Inconsistent(_))));
        assert!(matches!(store.u64s("alpha"), Err(StoreError::Inconsistent(_))));
    }

    #[test]
    fn empty_store_round_trips() {
        let bytes = StoreWriter::new().to_bytes();
        let store = Store::open_bytes(bytes).unwrap();
        assert_eq!(store.segment_count(), 0);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join(format!("fstc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.fst");
        let written = sample().write_to(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
        let mut store = Store::open(&path).unwrap();
        assert_eq!(store.bytes("alpha").unwrap(), vec![1, 2, 3, 4, 5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_are_page_aligned() {
        // Offsets are observable through corruption positions: flip one
        // byte at each declared offset and the matching segment's read —
        // and only that read — must fail.
        let good = sample().to_bytes();
        let store = Store::open_bytes(good.clone()).unwrap();
        let names: Vec<String> = store.segment_names().map(str::to_string).collect();
        for name in &names {
            let len = store.segment_len(name).unwrap();
            if len == 0 {
                continue;
            }
            // Find the segment by brute force: try flipping each page
            // start until exactly this segment's checksum breaks.
            let mut found = false;
            for page_start in (0..good.len() as u64).step_by(PAGE as usize) {
                let mut bad = good.clone();
                bad[page_start as usize] ^= 0x01;
                let Ok(mut s) = Store::open_bytes(bad) else { continue };
                if matches!(
                    s.bytes(name),
                    Err(StoreError::SegmentChecksumMismatch(n)) if &n == name
                ) {
                    found = true;
                    break;
                }
            }
            assert!(found, "segment {name} does not start on a page boundary");
        }
    }

    // ----- the corruption matrix -----

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(Store::open_bytes(bytes), Err(StoreError::BadMagic(_))));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[4] = STORE_VERSION + 1;
        assert_eq!(
            Store::open_bytes(bytes).err(),
            Some(StoreError::UnsupportedVersion(STORE_VERSION + 1))
        );
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        // Any cut — mid-header, mid-TOC, mid-segment — is Truncated (or
        // BadMagic for cuts inside the first four bytes).
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            let err = Store::open_bytes(bytes[..cut].to_vec()).err().unwrap();
            assert!(
                matches!(err, StoreError::Truncated | StoreError::BadMagic(_)),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn truncated_toc_rejected() {
        // A header that declares a TOC longer than the file.
        let mut bytes = sample().to_bytes();
        let huge = (bytes.len() as u64 + 1).to_le_bytes();
        bytes[16..24].copy_from_slice(&huge);
        assert_eq!(Store::open_bytes(bytes).err(), Some(StoreError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert_eq!(Store::open_bytes(bytes).err(), Some(StoreError::TrailingBytes));
    }

    #[test]
    fn toc_corruption_fails_toc_checksum() {
        // Flip one bit in every TOC byte: always TocChecksumMismatch,
        // before any entry is even decoded.
        let bytes = sample().to_bytes();
        let toc_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
        for i in HEADER_LEN as usize..HEADER_LEN as usize + toc_len {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                Store::open_bytes(bad).err(),
                Some(StoreError::TocChecksumMismatch),
                "byte {i}"
            );
        }
    }

    #[test]
    fn segment_corruption_fails_that_segment_only() {
        // Flip a byte inside the first segment's data: open succeeds
        // (lazy verification), the corrupt segment fails, others read
        // fine.
        let bytes = sample().to_bytes();
        let mut bad = bytes.clone();
        let first_page = {
            // First page boundary at or after header+TOC.
            let toc_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
            ((HEADER_LEN + toc_len).div_ceil(PAGE) * PAGE) as usize
        };
        bad[first_page] ^= 0x01;
        let mut store = Store::open_bytes(bad).unwrap();
        assert!(matches!(
            store.bytes("alpha"),
            Err(StoreError::SegmentChecksumMismatch(n)) if n == "alpha"
        ));
        assert!(store.bytes("beta/u32").is_ok());
    }

    /// Rebuilds a container around a hand-forged TOC (recomputing the TOC
    /// checksum and declared length honestly) so semantic TOC lies get
    /// past the checksum layer.
    fn forge(entries: &[(&str, u64, u64)], payload_pages: u64) -> Vec<u8> {
        let mut toc = Writer::new();
        toc.compact_size(entries.len() as u64);
        for (name, offset, len) in entries {
            toc.string(name);
            toc.u64(*offset);
            toc.u64(*len);
            toc.bytes(&[0u8; 32]); // checksum never reached by open()
        }
        let toc = toc.into_bytes();
        let data_start = (HEADER_LEN + toc.len() as u64).div_ceil(PAGE) * PAGE;
        let file_len = data_start + payload_pages * PAGE;
        let mut w = Writer::new();
        w.bytes(&STORE_MAGIC);
        w.u8(STORE_VERSION);
        w.bytes(&[0u8; 3]);
        w.u64(file_len);
        w.u64(toc.len() as u64);
        w.bytes(&sha256d(&toc).0);
        w.bytes(&toc);
        w.pad_to(PAGE as usize);
        let mut out = w.into_bytes();
        out.resize(file_len as usize, 0);
        out
    }

    #[test]
    fn overlapping_segments_rejected() {
        let data = PAGE; // one page past header+TOC region (forge uses 1 TOC page)
        let bytes = forge(&[("a", data, PAGE + 10), ("b", data + PAGE, 16)], 3);
        assert!(matches!(
            Store::open_bytes(bytes),
            Err(StoreError::OverlappingSegments(a, b)) if a == "a" && b == "b"
        ));
    }

    #[test]
    fn misaligned_segment_rejected() {
        // Off a page boundary.
        let bytes = forge(&[("a", PAGE + 8, 8)], 2);
        assert!(matches!(
            Store::open_bytes(bytes),
            Err(StoreError::MisalignedSegment(n)) if n == "a"
        ));
        // Page-aligned but inside the header/TOC region.
        let bytes = forge(&[("a", 0, 8)], 1);
        assert!(matches!(
            Store::open_bytes(bytes),
            Err(StoreError::MisalignedSegment(n)) if n == "a"
        ));
    }

    #[test]
    fn duplicate_segment_rejected() {
        let bytes = forge(&[("a", PAGE, 8), ("a", 2 * PAGE, 8)], 2);
        assert!(matches!(
            Store::open_bytes(bytes),
            Err(StoreError::DuplicateSegment(n)) if n == "a"
        ));
    }

    #[test]
    fn segment_past_declared_end_rejected() {
        let bytes = forge(&[("a", PAGE, PAGE * 10)], 2);
        assert_eq!(Store::open_bytes(bytes).err(), Some(StoreError::Truncated));
    }

    #[test]
    fn display_messages_are_distinct() {
        let errors = [
            StoreError::BadMagic(*b"XXXX"),
            StoreError::UnsupportedVersion(9),
            StoreError::Truncated,
            StoreError::TrailingBytes,
            StoreError::TocChecksumMismatch,
            StoreError::SegmentChecksumMismatch("s".into()),
            StoreError::OverlappingSegments("a".into(), "b".into()),
            StoreError::MisalignedSegment("s".into()),
            StoreError::DuplicateSegment("s".into()),
            StoreError::MissingSegment("s".into()),
            StoreError::Decode("TOC".into(), DecodeError::UnexpectedEnd),
            StoreError::Inconsistent("x"),
            StoreError::Io("nope".into()),
        ];
        let mut seen = std::collections::HashSet::new();
        for e in errors {
            assert!(seen.insert(e.to_string()), "duplicate message for {e:?}");
        }
    }

    #[test]
    #[should_panic(expected = "duplicate segment name")]
    fn writer_rejects_duplicate_names() {
        let mut w = StoreWriter::new();
        w.segment("a", vec![]);
        w.segment("a", vec![]);
    }
}
