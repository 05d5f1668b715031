//! Byte-deterministic snapshot encoding for checkpoint/resume.
//!
//! A hand-rolled little-endian encoding — no external crates, no
//! reflection, no versioned schema language. Floats are encoded via their
//! IEEE-754 bit patterns so the byte stream is exactly reproducible
//! (including NaN payloads and signed zeros), which is what makes
//! checkpoints content-addressable and resume byte-identical.
//!
//! Every checkpointed component describes its state once, in one
//! `snap(&mut self, s: &mut Snap<'_>)` method. [`Snap`] is either saving
//! or loading, and each of its primitives takes the field by `&mut`:
//! `s.u64(&mut self.holds)` writes the value when saving and assigns it
//! when loading. Because one walk serves both directions, a field added
//! to a component is saved and restored by the same line, in the same
//! order — the two halves cannot drift apart. Small value types with one
//! fixed encoding implement [`Leaf`] (a `put`/`get` pair written side by
//! side), so payloads reachable only through shared references can be
//! encoded with the same bytes.
//!
//! [`SnapWriter`] and [`SnapReader`] are the raw byte layer underneath.
//! The reader is fallible: every read, and every [`Leaf::get`], returns a
//! [`SnapError`] on truncated or malformed bytes, so one codec serves
//! untrusted input too — a store entry's header, a bag file — and a
//! corrupt length prefix fails before anything is allocated.
//!
//! [`Snap`] turns a decode error into a panic, at one boundary. A `snap`
//! method restores a live component in place through `&mut` fields, so
//! it has no partial result to return; and a checkpoint body reaches it
//! only from this build's own capture or from a store entry whose
//! checksum and header already passed, so a failure there is a bug, not
//! an input error.

use crate::{SimDuration, SimTime};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasher, Hash};

/// Append-only encoder for checkpoint bytes.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` via its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Writes an `Option<f64>` as a presence byte plus the bit pattern.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        self.put_bool(v.is_some());
        if let Some(x) = v {
            self.put_f64(x);
        }
    }

    /// Writes a short ASCII tag used to catch section misalignment early.
    pub fn put_tag(&mut self, tag: &str) {
        self.put_str(tag);
    }

    /// Writes an enum variant: its tag byte, then its payload.
    pub fn put_variant(&mut self, tag: u8, payload: &impl Leaf) {
        self.put_u8(tag);
        payload.put(self);
    }

    /// Writes a fieldless enum value as its index in `table`, one byte —
    /// the code table is written once and read back by
    /// [`SnapReader::get_code`].
    ///
    /// # Panics
    ///
    /// Panics if `v` is missing from `table` (a table that does not list
    /// every variant is a bug).
    pub fn put_code<T: PartialEq + std::fmt::Debug>(&mut self, v: &T, table: &[T]) {
        let code = table.iter().position(|t| t == v);
        self.put_u8(code.unwrap_or_else(|| panic!("{v:?} missing from its code table")) as u8);
    }
}

/// Why bytes could not be decoded. Its `Display` is the message a
/// checkpoint load panics with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The bytes end before a read completes: it needs `need` bytes at
    /// `offset` and `have` are left.
    Truncated {
        /// Bytes the read needs.
        need: usize,
        /// Where the read starts.
        offset: usize,
        /// Bytes left at `offset`.
        have: usize,
    },
    /// A code byte outside its type's table; `what` names the type.
    UnknownCode {
        /// The type being decoded, e.g. `"agent kind"`.
        what: &'static str,
        /// The code found.
        code: u64,
    },
    /// A section tag other than the expected one.
    SectionMismatch {
        /// The tag the reader expected.
        expected: String,
        /// The tag in the bytes.
        found: String,
    },
    /// Any other malformation: a bool byte other than 0 or 1, a
    /// non-UTF-8 string, a value that breaks its type's invariant.
    Corrupt(String),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Truncated { need, offset, have } => {
                write!(f, "checkpoint truncated: need {need} bytes at offset {offset}, have {have}")
            }
            SnapError::UnknownCode { what, code } => {
                write!(f, "checkpoint corrupt: unknown {what} {code}")
            }
            SnapError::SectionMismatch { expected, found } => {
                write!(f, "checkpoint section mismatch: expected {expected:?}, found {found:?}")
            }
            SnapError::Corrupt(what) => write!(f, "checkpoint corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Sequential decoder over encoded bytes. Every read returns a
/// [`SnapError`] instead of panicking, so the same reader serves
/// untrusted bytes (a store entry, a bag file) and live checkpoints.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Creates a reader over the full byte slice.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// `true` once every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, need: usize) -> Result<&'a [u8], SnapError> {
        let have = self.buf.len() - self.pos;
        if need > have {
            return Err(SnapError::Truncated { need, offset: self.pos, have });
        }
        let s = &self.buf[self.pos..self.pos + need];
        self.pos += need;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, SnapError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, SnapError> {
        self.get_u64().map(|v| v as usize)
    }

    /// Reads an element count encoded as `u64`, rejecting one larger than
    /// the bytes left (every element encodes to at least one byte), so a
    /// corrupt length fails before anything is allocated.
    pub fn get_len(&mut self) -> Result<usize, SnapError> {
        let need = self.get_usize()?;
        let have = self.buf.len() - self.pos;
        if need > have {
            return Err(SnapError::Truncated { need, offset: self.pos, have });
        }
        Ok(need)
    }

    /// Reads an `f64` from its bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapError> {
        self.get_u64().map(f64::from_bits)
    }

    /// Reads a bool byte.
    pub fn get_bool(&mut self) -> Result<bool, SnapError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapError::Corrupt(format!("bool byte {b}"))),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Corrupt("non-UTF-8 string".to_string()))
    }

    /// Reads and checks a section tag written by [`SnapWriter::put_tag`].
    pub fn expect_tag(&mut self, tag: &str) -> Result<(), SnapError> {
        let found = self.get_str()?;
        if found != tag {
            return Err(SnapError::SectionMismatch { expected: tag.to_string(), found });
        }
        Ok(())
    }

    /// Reads a one-byte code written by [`SnapWriter::put_code`] with
    /// the same `table`; `what` names the type in the error.
    pub fn get_code<T: Copy>(&mut self, what: &'static str, table: &[T]) -> Result<T, SnapError> {
        let code = self.get_u8()?;
        table
            .get(usize::from(code))
            .copied()
            .ok_or(SnapError::UnknownCode { what, code: code.into() })
    }
}

/// A value with one fixed encoding, its `put` and `get` written side by
/// side. Implemented for the primitives, [`SimTime`], [`SimDuration`],
/// sequences (a `u64` length, then the elements), options (a presence
/// bool, then the value), tuples of two to four (the fields in order)
/// and fixed-size arrays (the elements, no length); crates implement it
/// for their own value types, next to each type.
pub trait Leaf: Sized {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut SnapWriter);
    /// Reads one value written by [`Leaf::put`].
    fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError>;
}

macro_rules! leaf_primitive {
    ($($t:ty => $put:ident, $get:ident;)*) => {$(
        impl Leaf for $t {
            fn put(&self, w: &mut SnapWriter) {
                w.$put(*self);
            }
            fn get(r: &mut SnapReader<'_>) -> Result<$t, SnapError> {
                r.$get()
            }
        }
    )*};
}

leaf_primitive! {
    u8 => put_u8, get_u8;
    u32 => put_u32, get_u32;
    u64 => put_u64, get_u64;
    i64 => put_i64, get_i64;
    usize => put_usize, get_usize;
    f64 => put_f64, get_f64;
    bool => put_bool, get_bool;
}

impl Leaf for String {
    fn put(&self, w: &mut SnapWriter) {
        w.put_str(self);
    }
    fn get(r: &mut SnapReader<'_>) -> Result<String, SnapError> {
        r.get_str()
    }
}

/// Nanoseconds.
impl Leaf for SimTime {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<SimTime, SnapError> {
        r.get_u64().map(SimTime::from_nanos)
    }
}

/// Nanoseconds.
impl Leaf for SimDuration {
    fn put(&self, w: &mut SnapWriter) {
        w.put_u64(self.as_nanos());
    }
    fn get(r: &mut SnapReader<'_>) -> Result<SimDuration, SnapError> {
        r.get_u64().map(SimDuration::from_nanos)
    }
}

impl<T: Leaf> Leaf for Vec<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Vec<T>, SnapError> {
        let n = r.get_len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<T: Leaf> Leaf for VecDeque<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_usize(self.len());
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<VecDeque<T>, SnapError> {
        Vec::get(r).map(VecDeque::from)
    }
}

impl<T: Leaf> Leaf for Option<T> {
    fn put(&self, w: &mut SnapWriter) {
        w.put_bool(self.is_some());
        if let Some(x) = self {
            x.put(w);
        }
    }
    fn get(r: &mut SnapReader<'_>) -> Result<Option<T>, SnapError> {
        Ok(if r.get_bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Leaf + Default, const N: usize> Leaf for [T; N] {
    fn put(&self, w: &mut SnapWriter) {
        self.iter().for_each(|x| x.put(w));
    }
    fn get(r: &mut SnapReader<'_>) -> Result<[T; N], SnapError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for x in &mut out {
            *x = T::get(r)?;
        }
        Ok(out)
    }
}

macro_rules! leaf_tuple {
    ($($t:ident)+) => {
        #[allow(non_snake_case)]
        impl<$($t: Leaf),+> Leaf for ($($t,)+) {
            fn put(&self, w: &mut SnapWriter) {
                let ($($t,)+) = self;
                $($t.put(w);)+
            }
            fn get(r: &mut SnapReader<'_>) -> Result<($($t,)+), SnapError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

leaf_tuple!(A B);
leaf_tuple!(A B C);
leaf_tuple!(A B C D);

/// The symmetric checkpoint codec: one walk over a component's fields
/// either saves them or loads them. Each primitive takes the field by
/// `&mut`, writing its value when saving and assigning the decoded value
/// when loading, so a component's `snap` method is the one description of
/// its checkpointed state.
///
/// # Panics
///
/// Loading panics with the [`SnapError`] message if the bytes are
/// truncated or malformed, or if a `check_*` helper finds the checkpoint
/// disagreeing with the structure it is being restored onto.
#[derive(Debug)]
pub enum Snap<'a> {
    /// Saving: every primitive appends the field's current value.
    Save(SnapWriter),
    /// Loading: every primitive assigns the next decoded value.
    Load(SnapReader<'a>),
}

/// The one place a decode error becomes a panic: restoring live state
/// has no partial result to hand back (see the module docs).
fn loaded<T>(result: Result<T, SnapError>) -> T {
    result.unwrap_or_else(|e| panic!("{e}"))
}

impl Snap<'static> {
    /// A saving codec over an empty buffer.
    pub fn save() -> Snap<'static> {
        Snap::Save(SnapWriter::new())
    }
}

impl<'a> Snap<'a> {
    /// A loading codec over `bytes`.
    pub fn load(bytes: &'a [u8]) -> Snap<'a> {
        Snap::Load(SnapReader::new(bytes))
    }

    /// `true` when loading — for the few steps that only one direction
    /// takes (clearing a cache, re-deriving state from loaded fields).
    pub fn is_load(&self) -> bool {
        matches!(self, Snap::Load(_))
    }

    /// The saved bytes.
    ///
    /// # Panics
    ///
    /// Panics when loading.
    pub fn into_bytes(self) -> Vec<u8> {
        match self {
            Snap::Save(w) => w.into_bytes(),
            Snap::Load(_) => panic!("into_bytes on a loading snap"),
        }
    }

    /// `true` once a loading codec has consumed every byte (always `true`
    /// when saving).
    pub fn is_exhausted(&self) -> bool {
        match self {
            Snap::Save(_) => true,
            Snap::Load(r) => r.is_exhausted(),
        }
    }

    /// Saves or loads any [`Leaf`] value.
    pub fn leaf<T: Leaf>(&mut self, v: &mut T) {
        match self {
            Snap::Save(w) => v.put(w),
            Snap::Load(r) => *v = loaded(T::get(r)),
        }
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, v: &mut u32) {
        self.leaf(v);
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, v: &mut u64) {
        self.leaf(v);
    }

    /// A `usize`, encoded as a `u64`.
    pub fn usize(&mut self, v: &mut usize) {
        self.leaf(v);
    }

    /// An `f64` bit pattern.
    pub fn f64(&mut self, v: &mut f64) {
        self.leaf(v);
    }

    /// A bool byte.
    pub fn bool(&mut self, v: &mut bool) {
        self.leaf(v);
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &mut String) {
        self.leaf(v);
    }

    /// A virtual instant, as nanoseconds.
    pub fn time(&mut self, v: &mut SimTime) {
        self.leaf(v);
    }

    /// A virtual duration, as nanoseconds.
    pub fn dur(&mut self, v: &mut SimDuration) {
        self.leaf(v);
    }

    /// An `Option`: a presence bool, then the value through `f`. On load
    /// a present value is built from `T::default()` and filled by `f`.
    pub fn opt<T: Default>(&mut self, v: &mut Option<T>, f: impl FnOnce(&mut Self, &mut T)) {
        let mut present = v.is_some();
        self.bool(&mut present);
        if self.is_load() {
            *v = present.then(T::default);
        }
        if let Some(x) = v {
            f(self, x);
        }
    }

    /// A `Vec` of values that are not themselves [`Leaf`]: its length,
    /// then each element through `f`. On load the vector is rebuilt from
    /// `T::default()` elements.
    pub fn vec<T: Default>(&mut self, v: &mut Vec<T>, f: impl FnMut(&mut Self, &mut T)) {
        self.vec_with(v, T::default, f);
    }

    /// [`Snap::vec`] for element types without a `Default`: on load the
    /// vector is rebuilt from `blank()` elements before `f` fills them.
    pub fn vec_with<T>(
        &mut self,
        v: &mut Vec<T>,
        blank: impl FnMut() -> T,
        mut f: impl FnMut(&mut Self, &mut T),
    ) {
        let mut n = v.len();
        self.usize(&mut n);
        if self.is_load() {
            v.clear();
            v.resize_with(n, blank);
        }
        for x in v.iter_mut() {
            f(self, x);
        }
    }

    /// A hash map, saved in sorted key order so the bytes are
    /// deterministic: its length, then per entry the key and the value
    /// through `f`. On load the map is cleared and refilled, each value
    /// built from `V::default()` and filled by `f`.
    pub fn map<K, V, S>(&mut self, m: &mut HashMap<K, V, S>, mut f: impl FnMut(&mut Self, &mut V))
    where
        K: Leaf + Default + Ord + Hash,
        V: Default,
        S: BuildHasher,
    {
        let mut n = m.len();
        self.usize(&mut n);
        if self.is_load() {
            m.clear();
            for _ in 0..n {
                let (mut k, mut v) = (K::default(), V::default());
                self.leaf(&mut k);
                f(self, &mut v);
                m.insert(k, v);
            }
        } else {
            let mut entries: Vec<(&K, &mut V)> = m.iter_mut().collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            for (k, v) in entries {
                if let Snap::Save(w) = self {
                    k.put(w);
                }
                f(self, v);
            }
        }
    }

    /// A short ASCII section tag that catches misalignment early: written
    /// on save, checked on load.
    pub fn tag(&mut self, tag: &str) {
        match self {
            Snap::Save(w) => w.put_tag(tag),
            Snap::Load(r) => loaded(r.expect_tag(tag)),
        }
    }

    /// A structural count the loading side already knows (rebuilt from
    /// the same configuration): written on save; on load the saved value
    /// must equal `n`, or loading panics with `what`.
    pub fn check_len(&mut self, n: usize, what: &str) {
        let mut saved = n;
        self.usize(&mut saved);
        assert_eq!(saved, n, "{what}");
    }

    /// A structural name (a node, a stream): written on save; on load the
    /// saved string must equal `name`, or loading panics with `what`.
    pub fn check_str(&mut self, name: &str, what: &str) {
        let mut saved = name.to_string();
        self.str(&mut saved);
        assert_eq!(saved, name, "{what}");
    }

    /// A structural presence flag: writes whether `v` is present on save;
    /// on load the saved flag must match, or loading panics with `what`.
    /// Returns `v` so the caller can snap what it holds.
    pub fn check_some<T>(&mut self, v: Option<T>, what: &str) -> Option<T> {
        let mut present = v.is_some();
        self.bool(&mut present);
        assert_eq!(present, v.is_some(), "{what}");
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_primitives() {
        let mut w = SnapWriter::new();
        w.put_tag("t");
        w.put_u8(7);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX - 3);
        w.put_i64(-42);
        w.put_usize(12345);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_bool(true);
        w.put_str("hello köln");
        w.put_opt_f64(Some(2.5));
        w.put_opt_f64(None);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.expect_tag("t").unwrap();
        assert_eq!(r.get_u8(), Ok(7));
        assert_eq!(r.get_u32(), Ok(0xdead_beef));
        assert_eq!(r.get_u64(), Ok(u64::MAX - 3));
        assert_eq!(r.get_i64(), Ok(-42));
        assert_eq!(r.get_usize(), Ok(12345));
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.get_f64().unwrap().is_nan());
        assert_eq!(r.get_bool(), Ok(true));
        assert_eq!(r.get_str().unwrap(), "hello köln");
        assert_eq!(Option::<f64>::get(&mut r), Ok(Some(2.5)));
        assert_eq!(Option::<f64>::get(&mut r), Ok(None));
        assert!(r.is_exhausted());
    }

    #[test]
    fn reader_errors_are_typed() {
        let truncated = SnapError::Truncated { need: 8, offset: 0, have: 3 };
        assert_eq!(SnapReader::new(&[1, 2, 3]).get_u64(), Err(truncated));
        assert_eq!(
            SnapReader::new(&[2]).get_bool().unwrap_err().to_string(),
            "checkpoint corrupt: bool byte 2"
        );
        let table = ["a", "b"];
        let mut w = SnapWriter::new();
        w.put_code(&"b", &table);
        w.put_u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.get_code("letter", &table), Ok("b"));
        assert_eq!(
            r.get_code("letter", &table).unwrap_err().to_string(),
            "checkpoint corrupt: unknown letter 2"
        );
        // A length prefix beyond the bytes left fails before allocating.
        let mut w = SnapWriter::new();
        w.put_usize(usize::MAX);
        w.put_u32(7);
        let bytes = w.into_bytes();
        let err = SnapError::Truncated { need: usize::MAX, offset: 8, have: 4 };
        assert_eq!(Vec::<u8>::get(&mut SnapReader::new(&bytes)), Err(err));
    }

    #[test]
    fn encoding_is_byte_deterministic() {
        let encode = || {
            let mut w = SnapWriter::new();
            w.put_f64(1.0 / 3.0);
            w.put_str("stream");
            w.put_u64(99);
            w.into_bytes()
        };
        assert_eq!(encode(), encode());
    }

    /// A component exercising every `Snap` helper, described once.
    #[derive(Debug, Default, PartialEq)]
    struct Probe {
        count: u64,
        at: SimTime,
        spare: Option<f64>,
        cached: Option<(u32, String)>,
        samples: Vec<f64>,
        runs: Vec<(SimTime, f64)>,
        busy: HashMap<String, SimDuration>,
        slots: Vec<u32>,
    }

    impl Probe {
        fn snap(&mut self, s: &mut Snap<'_>) {
            s.tag("probe");
            s.u64(&mut self.count);
            s.time(&mut self.at);
            s.opt(&mut self.spare, Snap::f64);
            s.opt(&mut self.cached, |s, (n, name)| {
                s.u32(n);
                s.str(name);
            });
            s.leaf(&mut self.samples);
            s.vec(&mut self.runs, |s, (end, mem)| {
                s.time(end);
                s.f64(mem);
            });
            s.map(&mut self.busy, Snap::dur);
            s.check_len(self.slots.len(), "probe slot count mismatch");
            for slot in &mut self.slots {
                s.u32(slot);
            }
        }
    }

    fn probe() -> Probe {
        Probe {
            count: 42,
            at: SimTime::from_millis(1500),
            spare: Some(-0.25),
            cached: None,
            samples: vec![1.0, f64::MIN_POSITIVE],
            runs: vec![(SimTime::from_millis(7), 0.5)],
            busy: HashMap::from([
                ("b".to_string(), SimDuration::from_millis(2)),
                ("a".to_string(), SimDuration::from_millis(1)),
            ]),
            slots: vec![3, 4],
        }
    }

    fn save(p: &mut Probe) -> Vec<u8> {
        let mut s = Snap::save();
        p.snap(&mut s);
        s.into_bytes()
    }

    #[test]
    fn snap_writes_the_put_sequence() {
        let mut w = SnapWriter::new();
        w.put_tag("probe");
        w.put_u64(42);
        w.put_u64(1_500_000_000);
        w.put_opt_f64(Some(-0.25));
        w.put_bool(false);
        w.put_usize(2);
        w.put_f64(1.0);
        w.put_f64(f64::MIN_POSITIVE);
        w.put_usize(1);
        w.put_u64(7_000_000);
        w.put_f64(0.5);
        w.put_usize(2);
        w.put_str("a");
        w.put_u64(1_000_000);
        w.put_str("b");
        w.put_u64(2_000_000);
        w.put_usize(2);
        w.put_u32(3);
        w.put_u32(4);
        assert_eq!(save(&mut probe()), w.into_bytes());
    }

    #[test]
    fn snap_round_trips_every_helper() {
        let mut original = probe();
        original.cached = Some((9, "lidar".to_string()));
        let bytes = save(&mut original);
        // Loading overwrites whatever the fresh component held, except
        // the structural slot count, which must already agree.
        let mut restored = Probe {
            count: 1,
            spare: None,
            cached: None,
            samples: vec![9.0; 5],
            busy: HashMap::from([("stale".to_string(), SimDuration::ZERO)]),
            slots: vec![0, 0],
            ..Probe::default()
        };
        let mut s = Snap::load(&bytes);
        assert!(s.is_load());
        restored.snap(&mut s);
        assert!(s.is_exhausted());
        assert_eq!(restored, original);
    }

    #[test]
    #[should_panic(expected = "probe slot count mismatch")]
    fn check_len_mismatch_panics_with_its_message() {
        let bytes = save(&mut probe());
        let mut fewer = Probe { slots: vec![0], ..Probe::default() };
        fewer.snap(&mut Snap::load(&bytes));
    }

    #[test]
    #[should_panic(expected = "checkpoint truncated")]
    fn truncated_read_panics() {
        let mut s = Snap::save();
        s.u32(&mut 1);
        let bytes = s.into_bytes();
        s = Snap::load(&bytes);
        s.u64(&mut 0);
    }

    #[test]
    #[should_panic(expected = "section mismatch")]
    fn tag_mismatch_panics() {
        let mut s = Snap::save();
        s.tag("rng");
        let bytes = s.into_bytes();
        Snap::load(&bytes).tag("bus");
    }
}
