//! Flat byte-addressable memory image.
//!
//! Every simulation and interpreter run starts from a zeroed image of the
//! machine's 8 MiB, and most runs write a few pages of it. So a [`Memory`]
//! records which 4 KiB pages it wrote, and on drop zeroes only those and
//! hands its buffer to a process-wide free list, from which the next
//! [`Memory::new`] of the same size takes it instead of allocating (and
//! zeroing) a fresh one.

use sir::Width;
use std::error::Error;
use std::fmt;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Out-of-bounds access description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessError {
    pub addr: u32,
    pub bytes: u32,
    pub write: bool,
}

impl fmt::Display for AccessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} of {} bytes at {:#x} out of bounds",
            if self.write { "write" } else { "read" },
            self.bytes,
            self.addr
        )
    }
}

impl Error for AccessError {}

/// `log2` of the dirty-tracking page size (4 KiB).
const PAGE_SHIFT: usize = 12;

/// Zeroed buffers of dropped memories, reused by [`Memory::new`]. One
/// list for the process, not per thread: the worker pool spawns fresh
/// threads for every batch. It needs no cap, because a buffer is only
/// returned by a memory that was live, so the list never holds more
/// buffers of one size than were live at once.
static FREE: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// Every update of the list is one push or one `swap_remove`, so it stays
/// valid even if a holder panicked.
fn free_list() -> MutexGuard<'static, Vec<Vec<u8>>> {
    FREE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A little-endian flat memory of fixed size. Address 0 up to
/// [`crate::layout::GLOBAL_BASE`] is kept unmapped (reads/writes fault).
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    /// One bit per 4 KiB page of `bytes` that may be nonzero: every write
    /// path marks the pages it touched, and drop zeroes exactly these.
    dirty: Vec<u64>,
}

impl Memory {
    /// Creates a zeroed memory of `size` bytes, reusing the buffer of the
    /// most recently dropped memory of the same size when there is one.
    pub fn new(size: u32) -> Memory {
        let size = size as usize;
        let recycled = {
            let mut free = free_list();
            let at = free.iter().rposition(|b| b.len() == size);
            at.map(|i| free.swap_remove(i))
        };
        let pages = size.div_ceil(1 << PAGE_SHIFT);
        Memory {
            bytes: recycled.unwrap_or_else(|| vec![0; size]),
            dirty: vec![0; pages.div_ceil(64)],
        }
    }

    /// Marks the pages holding bytes `lo` and `hi` (`lo <= hi`, both in
    /// bounds, at most one page apart) as written.
    #[inline]
    fn mark(&mut self, lo: usize, hi: usize) {
        for p in [lo >> PAGE_SHIFT, hi >> PAGE_SHIFT] {
            self.dirty[p >> 6] |= 1 << (p & 63);
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u32 {
        self.bytes.len() as u32
    }

    fn check(&self, addr: u32, n: u32, write: bool) -> Result<usize, AccessError> {
        let lo = addr as usize;
        let hi = lo.checked_add(n as usize);
        if addr < crate::layout::GLOBAL_BASE || hi.is_none() || hi.unwrap() > self.bytes.len() {
            return Err(AccessError {
                addr,
                bytes: n,
                write,
            });
        }
        Ok(lo)
    }

    /// Loads a `w`-wide little-endian value (zero-extended to u64).
    ///
    /// # Errors
    /// Fails on out-of-bounds or sub-base accesses.
    #[inline]
    pub fn load(&self, addr: u32, w: Width) -> Result<u64, AccessError> {
        let lo = self.check(addr, w.bytes(), false)?;
        let b = &self.bytes;
        Ok(match w {
            Width::W1 => u64::from(b[lo]) & 1,
            Width::W8 => u64::from(b[lo]),
            Width::W16 => u64::from(u16::from_le_bytes([b[lo], b[lo + 1]])),
            Width::W32 => u64::from(u32::from_le_bytes([b[lo], b[lo + 1], b[lo + 2], b[lo + 3]])),
            Width::W64 => {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(&b[lo..lo + 8]);
                u64::from_le_bytes(buf)
            }
        })
    }

    /// Width-specialized accessors for addresses whose [`GLOBAL_BASE`]
    /// floor the caller has already validated (the simulator's predecoded
    /// engines check it on the cache path before touching memory): one
    /// slice bounds check, no `AccessError` plumbing. `None` means the
    /// access runs past the end of memory.
    ///
    /// [`GLOBAL_BASE`]: crate::layout::GLOBAL_BASE
    #[inline]
    pub fn load1(&self, addr: u32) -> Option<u8> {
        self.bytes.get(addr as usize).copied()
    }

    /// See [`Memory::load1`].
    #[inline]
    pub fn load2(&self, addr: u32) -> Option<u16> {
        let lo = addr as usize;
        let b = self.bytes.get(lo..lo + 2)?;
        Some(u16::from_le_bytes([b[0], b[1]]))
    }

    /// See [`Memory::load1`].
    #[inline]
    pub fn load4(&self, addr: u32) -> Option<u32> {
        let lo = addr as usize;
        let b = self.bytes.get(lo..lo + 4)?;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// See [`Memory::load1`].
    #[inline]
    pub fn store1(&mut self, addr: u32, v: u8) -> Option<()> {
        let lo = addr as usize;
        *self.bytes.get_mut(lo)? = v;
        self.mark(lo, lo);
        Some(())
    }

    /// See [`Memory::load1`].
    #[inline]
    pub fn store2(&mut self, addr: u32, v: u16) -> Option<()> {
        let lo = addr as usize;
        self.bytes
            .get_mut(lo..lo + 2)?
            .copy_from_slice(&v.to_le_bytes());
        self.mark(lo, lo + 1);
        Some(())
    }

    /// See [`Memory::load1`].
    #[inline]
    pub fn store4(&mut self, addr: u32, v: u32) -> Option<()> {
        let lo = addr as usize;
        self.bytes
            .get_mut(lo..lo + 4)?
            .copy_from_slice(&v.to_le_bytes());
        self.mark(lo, lo + 3);
        Some(())
    }

    /// Stores the low `w` bits of `value` little-endian.
    ///
    /// # Errors
    /// Fails on out-of-bounds or sub-base accesses.
    #[inline]
    pub fn store(&mut self, addr: u32, w: Width, value: u64) -> Result<(), AccessError> {
        let lo = self.check(addr, w.bytes(), true)?;
        let b = &mut self.bytes;
        match w {
            Width::W1 => b[lo] = (value & 1) as u8,
            Width::W8 => b[lo] = value as u8,
            Width::W16 => b[lo..lo + 2].copy_from_slice(&(value as u16).to_le_bytes()),
            Width::W32 => b[lo..lo + 4].copy_from_slice(&(value as u32).to_le_bytes()),
            Width::W64 => b[lo..lo + 8].copy_from_slice(&value.to_le_bytes()),
        }
        self.mark(lo, lo + w.bytes() as usize - 1);
        Ok(())
    }

    /// Copies `data` into memory starting at `addr` (used to install global
    /// initializers and benchmark inputs).
    ///
    /// # Panics
    /// Panics if the range is out of bounds — installation is host-side setup,
    /// not simulated execution.
    pub fn write_bytes(&mut self, addr: u32, data: &[u8]) {
        let lo = addr as usize;
        self.bytes[lo..lo + data.len()].copy_from_slice(data);
        if let Some(last) = data.len().checked_sub(1) {
            for p in lo >> PAGE_SHIFT..=(lo + last) >> PAGE_SHIFT {
                self.dirty[p >> 6] |= 1 << (p & 63);
            }
        }
    }

    /// Reads `n` bytes starting at `addr` (host-side inspection).
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn read_bytes(&self, addr: u32, n: u32) -> &[u8] {
        &self.bytes[addr as usize..(addr + n) as usize]
    }
}

impl Drop for Memory {
    /// Zeroes the written pages and returns the buffer to the free list.
    fn drop(&mut self) {
        for (w, &word) in self.dirty.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let p = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let lo = p << PAGE_SHIFT;
                let hi = (lo + (1 << PAGE_SHIFT)).min(self.bytes.len());
                self.bytes[lo..hi].fill(0);
            }
        }
        free_list().push(std::mem::take(&mut self.bytes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut m = Memory::new(0x1000);
        for (w, v) in [
            (Width::W8, 0xAB_u64),
            (Width::W16, 0xBEEF),
            (Width::W32, 0xDEAD_BEEF),
            (Width::W64, 0x0123_4567_89AB_CDEF),
        ] {
            m.store(0x200, w, v).unwrap();
            assert_eq!(m.load(0x200, w).unwrap(), v);
        }
    }

    #[test]
    fn little_endian_byte_order() {
        let mut m = Memory::new(0x1000);
        m.store(0x300, Width::W32, 0x0403_0201).unwrap();
        assert_eq!(m.read_bytes(0x300, 4), &[1, 2, 3, 4]);
    }

    #[test]
    fn null_page_faults() {
        let mut m = Memory::new(0x1000);
        assert!(m.load(0, Width::W8).is_err());
        assert!(m.store(0x10, Width::W32, 1).is_err());
    }

    #[test]
    fn out_of_bounds_faults() {
        let m = Memory::new(0x1000);
        assert!(m.load(0xFFF, Width::W32).is_err());
        assert!(m.load(u32::MAX, Width::W8).is_err());
    }

    /// Writes every page a write path can touch in its own page, so a
    /// missing mark leaves a nonzero byte behind: a straddling `store2`,
    /// `store4` and `store` mark their last byte's page alone, and pages
    /// 10 and 11 are only the middle of one `write_bytes`.
    fn dirty_everywhere(m: &mut Memory) {
        m.store1(0x1000, 0x11).unwrap();
        m.store2(0x1FFF, 0x2222).unwrap();
        m.store4(0x3FFE, 0x4444_4444).unwrap();
        m.store(0x5FFC, Width::W64, u64::MAX).unwrap();
        m.store(0x7FFE, Width::W32, 0x8888_8888).unwrap();
        m.store(0x9000, Width::W1, 1).unwrap();
        m.store(0x9010, Width::W8, 0x99).unwrap();
        m.store(0x9020, Width::W16, 0x9999).unwrap();
        m.write_bytes(0x9F80, &[0xAB; 0x2100]);
        m.store1(m.size() - 1, 0xFF).unwrap();
    }

    #[test]
    fn dropped_memory_is_recycled_zeroed() {
        // A size no other test uses (16 pages and a partial one), so this
        // test alone puts buffers of it on the process-wide free list.
        const SIZE: u32 = 0x1_0007;
        let mut m = Memory::new(SIZE);
        dirty_everywhere(&mut m);
        assert!(m.read_bytes(0, SIZE).iter().filter(|&&b| b != 0).count() > 0x2100);
        let buf = m.bytes.as_ptr();
        drop(m);

        let m = Memory::new(SIZE);
        assert_eq!(m.bytes.as_ptr(), buf, "the dropped buffer is reused");
        assert_eq!(m.size(), SIZE);
        let dirty = m.read_bytes(0, SIZE).iter().position(|&b| b != 0);
        assert_eq!(dirty, None, "a recycled memory reads zero everywhere");
        drop(m);

        // Another size never gets that buffer; it stays on the list.
        let other = Memory::new(SIZE + 1);
        assert_ne!(other.bytes.as_ptr(), buf);
        assert_eq!(other.size(), SIZE + 1);
        assert!(other.read_bytes(0, SIZE + 1).iter().all(|&b| b == 0));
        assert_eq!(Memory::new(SIZE).bytes.as_ptr(), buf);
    }

    #[test]
    fn live_memories_never_share_a_buffer() {
        const SIZE: u32 = 0x2_0003;
        let mut a = Memory::new(SIZE);
        a.store1(0x100, 1).unwrap();
        drop(a);
        let mut a = Memory::new(SIZE);
        let b = Memory::new(SIZE);
        assert_ne!(a.bytes.as_ptr(), b.bytes.as_ptr());
        a.store1(0x100, 7).unwrap();
        assert_eq!(b.load1(0x100), Some(0));
    }
}
