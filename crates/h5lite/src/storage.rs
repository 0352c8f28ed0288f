//! Storage: the byte-level backend under the h5lite container.
//!
//! [`H5Writer`](crate::H5Writer) and [`H5Reader`](crate::H5Reader) own a
//! [`Storage`], the complete contract between the container format and
//! whatever holds its bytes:
//!
//! * **reserve** — atomically claim the next `n` bytes (the one-pass
//!   write of AMRIC §3.3: every extent is sized before any byte lands, so
//!   concurrent rank threads never contend on a file lock);
//! * **write extent / read range** — positioned I/O against offsets
//!   returned by `reserve`;
//! * **flush** — the durability point at container finish;
//! * **byte-length / truncate** — the length, used by the footer parser
//!   and the tail-rewriting downgrade tool.
//!
//! Two backends implement it:
//!
//! * [`FileStorage`] — one local POSIX file, `pwrite`/`pread` positioned
//!   I/O; the layout is pinned by the golden fixture suite.
//! * [`MemStorage`] — a shared, growable byte vector. Fast tests and a
//!   cache tier; cloning shares the underlying bytes, so a writer and a
//!   reader can hand the same container around without touching a disk.

use crate::error::{H5Error, H5Result};
use parking_lot::RwLock;
use std::fs::File;
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Byte-level backend contract under the h5lite container. All methods
/// take `&self`: a storage is shared across rank threads exactly like the
/// writer that owns it.
pub trait Storage: Send + Sync {
    /// Atomically reserve the next `bytes` bytes; returns the offset
    /// where the extent starts. Reservations are dense:
    /// every logical byte below [`Storage::reserved_len`] belongs to
    /// exactly one reserved extent.
    fn reserve(&self, bytes: u64) -> u64;

    /// Logical high-water mark of reservations (the next offset
    /// [`Storage::reserve`] would return).
    fn reserved_len(&self) -> u64;

    /// Write `bytes` at a logical offset previously returned by
    /// [`Storage::reserve`] (the write must stay inside reserved space).
    fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()>;

    /// Fill `buf` from the logical range starting at `offset`. Errors if
    /// the range extends past [`Storage::len`].
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> H5Result<()>;

    /// Total readable logical bytes. For a finished container this is the
    /// file size the footer parser works against.
    fn len(&self) -> H5Result<u64>;

    /// Whether the storage holds no bytes at all.
    fn is_empty(&self) -> H5Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Push written data to durable storage.
    fn flush(&self) -> H5Result<()>;

    /// Cut the logical length back to `len`, discarding reservations and
    /// bytes beyond it. Tail-rewriting tools (the chunk-index stripper)
    /// truncate, re-reserve, and rewrite the directory in place.
    fn truncate(&self, len: u64) -> H5Result<()>;
}

// ---------------------------------------------------------------------------
// FileStorage
// ---------------------------------------------------------------------------

/// The classic backend: one local file, positioned reads and writes.
pub struct FileStorage {
    file: File,
    /// Reservation cursor. On read-only opens this is pinned to the file
    /// length so `reserved_len`/`len` agree with the on-disk bytes.
    cursor: AtomicU64,
}

impl FileStorage {
    /// Create (truncate) a file for writing.
    pub fn create(path: impl AsRef<Path>) -> H5Result<Self> {
        Ok(FileStorage {
            file: File::create(path)?,
            cursor: AtomicU64::new(0),
        })
    }

    /// Open an existing file read-only.
    pub fn open(path: impl AsRef<Path>) -> H5Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(FileStorage {
            file,
            cursor: AtomicU64::new(len),
        })
    }

    /// Open an existing file for in-place tail rewrites (read + write,
    /// no truncation on open).
    pub fn open_rw(path: impl AsRef<Path>) -> H5Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(FileStorage {
            file,
            cursor: AtomicU64::new(len),
        })
    }
}

impl Storage for FileStorage {
    fn reserve(&self, bytes: u64) -> u64 {
        self.cursor.fetch_add(bytes, Ordering::Relaxed)
    }

    fn reserved_len(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()> {
        self.file.write_all_at(bytes, offset)?;
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> H5Result<()> {
        self.file.read_exact_at(buf, offset)?;
        Ok(())
    }

    fn len(&self) -> H5Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn flush(&self) -> H5Result<()> {
        self.file.sync_data()?;
        Ok(())
    }

    fn truncate(&self, len: u64) -> H5Result<()> {
        self.file.set_len(len)?;
        self.cursor.store(len, Ordering::SeqCst);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MemStorage
// ---------------------------------------------------------------------------

/// In-memory backend over a shared byte vector. `Clone` shares the bytes,
/// so the handle a writer filled can be opened by a reader without any
/// filesystem round trip — the fast-test and cache-tier backend.
#[derive(Clone, Default)]
pub struct MemStorage {
    data: Arc<RwLock<Vec<u8>>>,
    cursor: Arc<AtomicU64>,
}

impl MemStorage {
    /// Fresh empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Storage pre-loaded with a container image (e.g. bytes read from a
    /// file or received over the wire).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        let len = bytes.len() as u64;
        MemStorage {
            data: Arc::new(RwLock::new(bytes)),
            cursor: Arc::new(AtomicU64::new(len)),
        }
    }

    /// Copy of the current container image.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.data.read().clone()
    }
}

impl Storage for MemStorage {
    fn reserve(&self, bytes: u64) -> u64 {
        self.cursor.fetch_add(bytes, Ordering::Relaxed)
    }

    fn reserved_len(&self) -> u64 {
        self.cursor.load(Ordering::SeqCst)
    }

    fn write_at(&self, offset: u64, bytes: &[u8]) -> H5Result<()> {
        let end = offset as usize + bytes.len();
        let mut data = self.data.write();
        if data.len() < end {
            data.resize(end, 0);
        }
        data[offset as usize..end].copy_from_slice(bytes);
        Ok(())
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> H5Result<()> {
        let data = self.data.read();
        // `offset` may come from a forged chunk record: checked, so an
        // absurd one is the same short read `FileStorage` reports.
        let end = (offset as usize).checked_add(buf.len());
        let Some(end) = end.filter(|&end| end <= data.len()) else {
            return Err(H5Error::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!(
                    "read of {} bytes at {} past end of {}-byte mem storage",
                    buf.len(),
                    offset,
                    data.len()
                ),
            )));
        };
        buf.copy_from_slice(&data[offset as usize..end]);
        Ok(())
    }

    fn len(&self) -> H5Result<u64> {
        Ok(self.data.read().len() as u64)
    }

    fn flush(&self) -> H5Result<()> {
        Ok(())
    }

    fn truncate(&self, len: u64) -> H5Result<()> {
        let mut data = self.data.write();
        data.truncate(len as usize);
        self.cursor.store(len, Ordering::SeqCst);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_reserve_write_read() {
        let s = MemStorage::new();
        let a = s.reserve(4);
        let b = s.reserve(6);
        assert_eq!((a, b), (0, 4));
        assert_eq!(s.reserved_len(), 10);
        s.write_at(b, b"abcdef").unwrap();
        s.write_at(a, b"wxyz").unwrap();
        let mut buf = [0u8; 10];
        s.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"wxyzabcdef");
        assert_eq!(s.len().unwrap(), 10);
    }

    #[test]
    fn mem_storage_clone_shares_bytes() {
        let s = MemStorage::new();
        let off = s.reserve(3);
        s.write_at(off, b"one").unwrap();
        let view = s.clone();
        let mut buf = [0u8; 3];
        view.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"one");
        // Reservations are shared too: the clone sees the cursor.
        assert_eq!(view.reserve(1), 3);
        assert_eq!(s.reserved_len(), 4);
    }

    #[test]
    fn mem_storage_short_read_is_typed_io_error() {
        let s = MemStorage::from_bytes(vec![1, 2, 3]);
        let mut buf = [0u8; 4];
        assert!(matches!(s.read_at(0, &mut buf), Err(H5Error::Io(_))));
        assert!(matches!(s.read_at(3, &mut [0u8; 1]), Err(H5Error::Io(_))));
        // An offset whose end wraps the address space is a short read too.
        assert!(matches!(
            s.read_at(u64::MAX - 3, &mut buf),
            Err(H5Error::Io(_))
        ));
        s.read_at(1, &mut buf[..2]).unwrap();
        assert_eq!(&buf[..2], &[2, 3]);
    }

    #[test]
    fn mem_storage_truncate_resets_cursor() {
        let s = MemStorage::new();
        let off = s.reserve(8);
        s.write_at(off, &[7u8; 8]).unwrap();
        s.truncate(3).unwrap();
        assert_eq!(s.len().unwrap(), 3);
        assert_eq!(s.reserved_len(), 3);
        assert_eq!(s.reserve(2), 3);
    }

    #[test]
    fn file_storage_roundtrip_and_truncate() {
        let mut path = std::env::temp_dir();
        path.push(format!("h5lite-storage-file-{}", std::process::id()));
        let s = FileStorage::create(&path).unwrap();
        let off = s.reserve(5);
        s.write_at(off, b"hello").unwrap();
        s.flush().unwrap();
        assert_eq!(s.len().unwrap(), 5);
        drop(s);
        let r = FileStorage::open(&path).unwrap();
        assert_eq!(r.reserved_len(), 5);
        let mut buf = [0u8; 5];
        r.read_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
        let rw = FileStorage::open_rw(&path).unwrap();
        rw.truncate(2).unwrap();
        assert_eq!(rw.len().unwrap(), 2);
        assert_eq!(rw.reserve(1), 2);
        std::fs::remove_file(&path).ok();
    }
}
