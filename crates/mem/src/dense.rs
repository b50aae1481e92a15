//! The table behind the frame table, the page tables and the pin-down table.
//!
//! Each is keyed by a number the simulation hands out consecutively from a
//! fixed origin — frame numbers from 1, virtual pages from the user heap's
//! base — and never re-uses, so a flat array indexed by the number is a
//! perfect hash. The array is cut into chunks of [`CHUNK`] slots: a chunk
//! is allocated by the first insert into it and freed by the remove that
//! empties it, so the table holds the live entries, a ragged chunk at each
//! end of a run, and one pointer per [`CHUNK`] numbers ever handed out.

use std::mem::size_of;

/// Slots per chunk: the chunk index costs half a byte per number ever handed
/// out, and a partly used chunk holds at most fifteen empty slots.
const CHUNK: u64 = 16;

type Chunk<T> = [Option<T>; CHUNK as usize];

/// A map from `origin..` to `T`, indexed by the key itself.
pub(crate) struct DenseTable<T> {
    chunks: Vec<Option<Box<Chunk<T>>>>,
    /// The first number the table can hold; slot 0 of chunk 0.
    origin: u64,
    len: usize,
}

impl<T> DenseTable<T> {
    /// An empty table for the numbers `origin..`.
    pub(crate) fn new(origin: u64) -> Self {
        DenseTable {
            chunks: Vec::new(),
            origin,
            len: 0,
        }
    }

    /// Chunk and slot of `n`; `None` below the origin or past what an
    /// index can address.
    fn slot(&self, n: u64) -> Option<(usize, usize)> {
        let i = n.checked_sub(self.origin)?;
        Some((usize::try_from(i / CHUNK).ok()?, (i % CHUNK) as usize))
    }

    /// The entry of `n`. A number never inserted, however large or small,
    /// is `None` and allocates nothing.
    pub(crate) fn get(&self, n: &u64) -> Option<&T> {
        let (c, s) = self.slot(*n)?;
        self.chunks.get(c)?.as_ref()?[s].as_ref()
    }

    /// The entry of `n`, mutably.
    pub(crate) fn get_mut(&mut self, n: &u64) -> Option<&mut T> {
        let (c, s) = self.slot(*n)?;
        self.chunks.get_mut(c)?.as_mut()?[s].as_mut()
    }

    /// Set the entry of `n`, which must not lie below the origin.
    pub(crate) fn insert(&mut self, n: u64, value: T) {
        let (c, s) = self.slot(n).expect("number below the table's origin");
        if c >= self.chunks.len() {
            self.chunks.resize_with(c + 1, || None);
        }
        let chunk = self.chunks[c].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        if chunk[s].replace(value).is_none() {
            self.len += 1;
        }
    }

    /// Take the entry of `n` out, freeing its chunk if that emptied it.
    pub(crate) fn remove(&mut self, n: &u64) -> Option<T> {
        let (c, s) = self.slot(*n)?;
        let entry = self.chunks.get_mut(c)?;
        let chunk = entry.as_mut()?;
        let value = chunk[s].take()?;
        if chunk.iter().all(Option::is_none) {
            *entry = None;
        }
        self.len -= 1;
        Some(value)
    }

    /// Live entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Every live entry with its number, in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let origin = self.origin;
        self.chunks
            .iter()
            .enumerate()
            .filter_map(|(c, chunk)| Some((c, chunk.as_ref()?)))
            .flat_map(move |(c, chunk)| {
                let first = origin + c as u64 * CHUNK;
                (first..)
                    .zip(chunk.iter())
                    .filter_map(|(n, v)| Some((n, v.as_ref()?)))
            })
    }

    /// Every live entry, in ascending order of number.
    pub(crate) fn values(&self) -> impl Iterator<Item = &T> {
        self.iter().map(|(_, v)| v)
    }

    /// Heap bytes the table reserves: the chunk index and the live chunks.
    pub(crate) fn bytes(&self) -> usize {
        let live = self.chunks.iter().flatten().count();
        self.chunks.capacity() * size_of::<Option<Box<Chunk<T>>>>() + live * size_of::<Chunk<T>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_outside_the_table_read_none_and_allocate_nothing() {
        let mut t = DenseTable::new(5);
        t.insert(7, 'a');
        let before = t.bytes();
        for n in [0, 4, 6, 8, 5 + CHUNK, u64::MAX / 2, u64::MAX] {
            assert_eq!(t.get(&n), None, "{n}");
            assert_eq!(t.get_mut(&n), None, "{n}");
            assert_eq!(t.remove(&n), None, "{n}");
        }
        assert_eq!((t.bytes(), t.len()), (before, 1));
        assert_eq!(t.get(&7), Some(&'a'));
    }

    #[test]
    fn a_chunk_lives_exactly_while_it_holds_an_entry() {
        let mut t = DenseTable::new(1);
        let index = size_of::<Option<Box<Chunk<u64>>>>();
        for n in 1..=2 * CHUNK {
            t.insert(n, n * 10);
        }
        let index = t.chunks.capacity() * index;
        assert_eq!(t.bytes(), index + 2 * size_of::<Chunk<u64>>());
        for n in 1..=CHUNK {
            assert_eq!(t.remove(&n), Some(n * 10));
        }
        assert_eq!(t.bytes(), index + size_of::<Chunk<u64>>());
        assert_eq!(t.len(), CHUNK as usize);
        assert!(t
            .values()
            .copied()
            .eq((CHUNK + 1..=2 * CHUNK).map(|n| n * 10)));
        assert!(t.iter().map(|(n, _)| n).eq(CHUNK + 1..=2 * CHUNK));
    }

    #[test]
    fn insert_replaces_without_counting_twice() {
        let mut t = DenseTable::new(0);
        t.insert(3, 1);
        t.insert(3, 2);
        assert_eq!((t.len(), t.get(&3)), (1, Some(&2)));
        *t.get_mut(&3).unwrap() += 1;
        assert_eq!(t.remove(&3), Some(3));
        let index = size_of::<Option<Box<Chunk<i32>>>>();
        assert_eq!((t.len(), t.bytes()), (0, t.chunks.capacity() * index));
    }
}
