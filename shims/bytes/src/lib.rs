//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it uses: the growable [`BytesMut`].
//! Semantics match the real crate for this subset.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// A unique, growable buffer of bytes.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer able to hold `capacity` bytes without
    /// reallocating.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            vec: Vec::with_capacity(capacity),
        }
    }

    /// Number of initialized bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    /// Current capacity.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.vec.capacity()
    }

    /// Clears the buffer, keeping capacity.
    #[inline]
    pub fn clear(&mut self) {
        self.vec.clear();
    }

    /// Appends `extend` to the buffer.
    #[inline]
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.vec.extend_from_slice(extend);
    }

    /// Resizes to `new_len`, filling with `value`.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    /// Truncates to `len`.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.vec.truncate(len);
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    /// Consumes the buffer, returning the backing `Vec`.
    pub fn into_vec(self) -> Vec<u8> {
        self.vec
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.vec
    }
}

impl AsMut<[u8]> for BytesMut {
    #[inline]
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

impl From<&[u8]> for BytesMut {
    #[inline]
    fn from(v: &[u8]) -> Self {
        Self { vec: v.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Self { vec: v }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.vec.extend(iter);
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for b in self.iter() {
            write!(f, "{}", std::ascii::escape_default(*b))?;
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let b = BytesMut::from(vec![1u8, 2, 3]);
        assert_eq!(&b[..], &[1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(c.into_vec(), [1, 2, 3]);
    }

    #[test]
    fn bytes_mut_grow() {
        let mut m = BytesMut::with_capacity(8);
        m.extend_from_slice(b"ab");
        m.extend_from_slice(b"cd");
        assert_eq!(m.len(), 4);
        assert_eq!(m.as_ref(), b"abcd");
    }
}
