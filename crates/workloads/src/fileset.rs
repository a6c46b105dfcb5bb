//! Document working sets for the caching experiments.
//!
//! Figure 6 sweeps uniform file sizes (8k/16k/32k/64k) over working sets
//! sized relative to the proxies' aggregate cache. The generator also
//! supports mixed-size sets for the ablation benches.
//!
//! Document bytes are never stored per document. Every document is a
//! contiguous window of one process-wide pseudo-random pattern: document
//! `id` starts at `(id · 131) mod 65521` and runs for its size. Serving a
//! document is then a zero-copy [`Bytes`] slice of the pattern, and
//! transfers stay verifiable end to end against [`FileSet::content_byte`].

use std::sync::OnceLock;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Length of the shared pattern every document is a window of.
const PATTERN_BYTES: usize = 128 * 1024;

/// Prime modulus of the window start (the largest prime below 2^16), so
/// ids below it get distinct starts.
const WINDOW_PRIME: usize = 65_521;

/// Largest document a [`FileSet`] can hold: the window that starts last
/// must still end inside the pattern.
pub const MAX_DOC_BYTES: usize = PATTERN_BYTES - (WINDOW_PRIME - 1);

/// The shared pattern, built on first use: splitmix64 output, so no two
/// nearby windows repeat each other.
fn pattern() -> &'static [u8] {
    static PATTERN: OnceLock<Vec<u8>> = OnceLock::new();
    PATTERN.get_or_init(|| {
        let mut state = 0x5eed_d0c5_u64;
        let mut out = Vec::with_capacity(PATTERN_BYTES);
        while out.len() < PATTERN_BYTES {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out
    })
}

/// Offset of document `id`'s window in the pattern.
fn window_start(id: usize) -> usize {
    id.wrapping_mul(131) % WINDOW_PRIME
}

/// A set of documents, identified by dense ids with per-document sizes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileSet {
    sizes: Vec<usize>,
}

impl FileSet {
    /// `count` documents, all of `size` bytes (the Figure 6 configuration).
    pub fn uniform(count: usize, size: usize) -> FileSet {
        assert!(count > 0 && size > 0);
        assert!(
            size <= MAX_DOC_BYTES,
            "document of {size} B exceeds {MAX_DOC_BYTES} B"
        );
        FileSet {
            sizes: vec![size; count],
        }
    }

    /// A heavy-tailed mix: documents cycle through the given sizes.
    pub fn cycled(count: usize, sizes: &[usize]) -> FileSet {
        assert!(count > 0 && !sizes.is_empty());
        for &size in sizes {
            assert!(
                size <= MAX_DOC_BYTES,
                "document of {size} B exceeds {MAX_DOC_BYTES} B"
            );
        }
        FileSet {
            sizes: (0..count).map(|i| sizes[i % sizes.len()]).collect(),
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Size of document `id`.
    pub fn size(&self, id: usize) -> usize {
        self.sizes[id]
    }

    /// Total bytes across all documents.
    pub fn total_bytes(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Deterministic content byte for (document, offset) — lets transfers be
    /// verified end to end without storing the working set. The one
    /// definition of document bytes; `offset` must be below [`MAX_DOC_BYTES`].
    pub fn content_byte(id: usize, offset: usize) -> u8 {
        assert!(offset < MAX_DOC_BYTES, "offset {offset} past any document");
        pattern()[window_start(id) + offset]
    }

    /// The first `n` bytes of document `id`'s content: a shared window of
    /// the pattern, with no allocation and no copy.
    pub fn content(&self, id: usize, n: usize) -> Bytes {
        assert!(n <= self.size(id));
        let start = window_start(id);
        Bytes::from_static(&pattern()[start..start + n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_set_totals() {
        let fs = FileSet::uniform(100, 8192);
        assert_eq!(fs.len(), 100);
        assert_eq!(fs.size(99), 8192);
        assert_eq!(fs.total_bytes(), 100 * 8192);
    }

    #[test]
    fn cycled_sizes_repeat() {
        let fs = FileSet::cycled(5, &[1, 2, 3]);
        assert_eq!(
            (0..5).map(|i| fs.size(i)).collect::<Vec<_>>(),
            vec![1, 2, 3, 1, 2]
        );
    }

    #[test]
    fn content_is_deterministic_and_varies() {
        let a = FileSet::content_byte(3, 7);
        assert_eq!(a, FileSet::content_byte(3, 7));
        let fs = FileSet::uniform(2, 64);
        let c0 = fs.content(0, 64);
        let c1 = fs.content(1, 64);
        assert_ne!(c0, c1);
    }

    #[test]
    fn content_matches_content_byte() {
        let fs = FileSet::uniform(WINDOW_PRIME + 8, MAX_DOC_BYTES);
        // The document whose window starts last in the pattern.
        let last = (0..WINDOW_PRIME)
            .find(|&id| window_start(id) == WINDOW_PRIME - 1)
            .unwrap();
        for (id, n) in [
            (0, 1),
            (1, 8 * 1024),
            (500, 777),
            (4095, MAX_DOC_BYTES),
            (last, MAX_DOC_BYTES),
            (WINDOW_PRIME + 7, MAX_DOC_BYTES),
        ] {
            let c = fs.content(id, n);
            assert_eq!(c.len(), n);
            for (off, &b) in c.iter().enumerate() {
                assert_eq!(b, FileSet::content_byte(id, off), "doc {id} byte {off}");
            }
        }
    }

    #[test]
    fn largest_figure6_set_has_distinct_documents() {
        let fs = FileSet::uniform(4096, 8 * 1024);
        let docs: std::collections::HashSet<Bytes> = (0..fs.len())
            .map(|id| fs.content(id, fs.size(id)))
            .collect();
        assert_eq!(docs.len(), fs.len());
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversize_uniform_document_is_rejected() {
        FileSet::uniform(1, MAX_DOC_BYTES + 1);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn oversize_cycled_document_is_rejected() {
        FileSet::cycled(3, &[8 * 1024, MAX_DOC_BYTES + 1]);
    }
}
