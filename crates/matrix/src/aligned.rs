//! Cache-line-aligned `f32` storage: the backing store of [`crate::Dense`].
//!
//! The lanes kernels load whole rows of `H`, `W` and their outputs in
//! 16-float (64-byte) `zmm` registers, and a load that straddles two cache
//! lines costs two L1 accesses. Where a `Vec`'s elements begin relative to
//! a line depends on the allocator's history (which thread's heap served
//! it, what was freed before), so with plain `Vec` storage the same kernel
//! on the same data ran at a different speed from one run to the next.
//! [`AlignedBuf`] over-allocates by up to 15 floats and starts its
//! elements at the first 64-byte boundary of its allocation, so a row
//! whose width is a multiple of 16 floats starts on a line in every run.
//!
//! Safe code only: the start is read off the allocation's address, and it
//! stays valid because the buffer moves to a new allocation only in
//! [`AlignedBuf::resize`], which derives it again. A buffer adopted from a
//! caller's `Vec` ([`AlignedBuf::from_vec`], the zero-copy message view)
//! keeps the `Vec`'s own start.

use std::ops::{Deref, DerefMut};

/// Floats per 64-byte cache line.
const LINE_FLOATS: usize = 16;

/// `f32` elements stored from a 64-byte boundary of their allocation
/// (except when adopted from a `Vec`). Dereferences to the elements.
pub(crate) struct AlignedBuf {
    /// The allocation; the elements are `buf[off..]`.
    buf: Vec<f32>,
    off: usize,
}

/// Floats from `p` to the next 64-byte boundary.
fn lead(p: *const f32) -> usize {
    (p as usize).wrapping_neg() % 64 / std::mem::size_of::<f32>()
}

impl AlignedBuf {
    /// `len` zeros from a line boundary, with the line's worth of slack
    /// that finding the boundary needs (and no other spare capacity).
    pub(crate) fn zeros(len: usize) -> Self {
        let mut buf = vec![0.0; len + LINE_FLOATS - 1];
        let off = lead(buf.as_ptr());
        buf.truncate(off + len);
        Self { buf, off }
    }

    /// No elements, in an allocation with room for `room` from a line
    /// boundary. Filling it within that room never moves it.
    fn with_room(room: usize) -> Self {
        let mut buf = Vec::with_capacity(room + LINE_FLOATS - 1);
        let off = lead(buf.as_ptr());
        buf.resize(off, 0.0);
        Self { buf, off }
    }

    /// Adopts `v` without copying: the elements start where `v`'s do.
    pub(crate) fn from_vec(v: Vec<f32>) -> Self {
        Self { buf: v, off: 0 }
    }

    /// The elements as a `Vec`; no copy when they start the allocation
    /// (always so for an adopted `Vec`).
    pub(crate) fn into_vec(mut self) -> Vec<f32> {
        self.buf.drain(..self.off);
        self.buf
    }

    /// Sets the length to `len`, zeroing the elements past the old one and
    /// keeping the others. Within the allocation's capacity nothing moves;
    /// past it the elements move to a new line-aligned allocation with at
    /// least twice the room, as a `Vec` grows.
    pub(crate) fn resize(&mut self, len: usize) {
        let room = self.buf.capacity() - self.off;
        if len <= room {
            self.buf.resize(self.off + len, 0.0);
        } else {
            let mut grown = Self::with_room(len.max(2 * room));
            grown.buf.extend_from_slice(self);
            grown.buf.resize(grown.off + len, 0.0);
            *self = grown;
        }
    }
}

impl Deref for AlignedBuf {
    type Target = [f32];

    #[inline]
    fn deref(&self) -> &[f32] {
        &self.buf[self.off..]
    }
}

impl DerefMut for AlignedBuf {
    #[inline]
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf[self.off..]
    }
}

/// A clone is line-aligned whatever the original's start.
impl Clone for AlignedBuf {
    fn clone(&self) -> Self {
        let mut c = Self::with_room(self.len());
        c.buf.extend_from_slice(self);
        c
    }
}

impl PartialEq for AlignedBuf {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on_line(b: &AlignedBuf) -> bool {
        (b.as_ptr() as usize).is_multiple_of(64)
    }

    #[test]
    fn zeros_clone_and_growth_start_on_a_line() {
        for len in [0, 1, 15, 16, 17, 1000, 100_003] {
            let mut b = AlignedBuf::zeros(len);
            assert!(on_line(&b) && b.len() == len && b.iter().all(|&v| v == 0.0));
            b.iter_mut().enumerate().for_each(|(i, v)| *v = i as f32);
            let c = b.clone();
            assert!(on_line(&c) && c == b);
            b.resize(3 * len + 40);
            assert!(on_line(&b));
            assert!(b[..len].iter().enumerate().all(|(i, &v)| v == i as f32));
            assert!(b[len..].iter().all(|&v| v == 0.0));
        }
    }

    /// Shrinking and regrowing within the capacity keeps the allocation
    /// (the workspaces' grow-once reshape) and zeroes only what regrows.
    #[test]
    fn resize_within_capacity_keeps_the_allocation() {
        let mut b = AlignedBuf::zeros(64);
        b.fill(7.0);
        let p = b.as_ptr();
        b.resize(10);
        b.resize(64);
        assert_eq!(b.as_ptr(), p);
        assert!(b[..10].iter().all(|&v| v == 7.0) && b[10..].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn adopted_vec_round_trips_without_moving() {
        let v: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let p = v.as_ptr();
        let b = AlignedBuf::from_vec(v);
        assert_eq!(b.as_ptr(), p);
        let back = b.into_vec();
        assert_eq!(back.as_ptr(), p);
        assert_eq!(back, (0..100).map(|i| i as f32).collect::<Vec<_>>());
        let mut a = AlignedBuf::zeros(5);
        a.fill(2.0);
        assert_eq!(a.into_vec(), vec![2.0; 5]);
    }
}
