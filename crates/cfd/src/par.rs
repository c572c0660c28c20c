//! Order-preserving patch parallelism: split the patches into contiguous
//! ranges of about equal cell count and run one scoped thread per range.
//!
//! Every range writes only its own patches, and callers reduce per-patch
//! results in patch-index order afterwards, so what the threads compute
//! does not depend on how many of them there are.

use std::ops::Range;
use std::sync::OnceLock;

/// The number of ranges to split patch work into: the host's available
/// parallelism, read once per process.
pub(crate) fn parts() -> usize {
    static PARTS: OnceLock<usize> = OnceLock::new();
    *PARTS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Split patches `0..n` into `min(parts, n)` contiguous, non-empty ranges
/// (one empty range when `n == 0`) of about equal total `cells(idx)`.
/// `out` is cleared first, so a reused vector stops allocating.
pub(crate) fn balanced_ranges(
    n: usize,
    parts: usize,
    cells: impl Fn(usize) -> usize,
    out: &mut Vec<Range<usize>>,
) {
    out.clear();
    let parts = parts.clamp(1, n.max(1));
    let total: usize = (0..n).map(&cells).sum();
    let (mut start, mut acc) = (0, 0);
    for idx in 0..n {
        acc += cells(idx);
        let closed = out.len() + 1;
        // Close the range once it holds its share of the cells, or when
        // every remaining part needs one of the remaining patches.
        if closed < parts && (acc * parts >= total * closed || n - idx - 1 <= parts - closed) {
            out.push(start..idx + 1);
            start = idx + 1;
        }
    }
    out.push(start..n);
}

/// Run `work` on every item: each on its own scoped thread, except the
/// last, which runs on the caller's. Returns when all are done; a panic
/// on any thread propagates to the caller.
pub(crate) fn run_parts<W: Send>(items: impl IntoIterator<Item = W>, work: impl Fn(W) + Sync) {
    let work = &work;
    std::thread::scope(|s| {
        let mut items = items.into_iter().peekable();
        while let Some(item) = items.next() {
            if items.peek().is_some() {
                s.spawn(move || work(item));
            } else {
                work(item);
            }
        }
    });
}

/// Split the first `n` elements off the front of `*rest`.
pub(crate) fn take_front<'a, T>(rest: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(n);
    *rest = tail;
    head
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranges(cells: &[usize], parts: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        balanced_ranges(cells.len(), parts, |i| cells[i], &mut out);
        out
    }

    #[test]
    fn ranges_tile_the_patches_in_order() {
        let cells = [64, 64, 1024, 256, 64, 64, 64, 4096, 64, 64];
        for parts in 1..=12 {
            let r = ranges(&cells, parts);
            assert_eq!(r.len(), parts.min(cells.len()), "parts {parts}");
            assert_eq!(r[0].start, 0);
            assert_eq!(r[r.len() - 1].end, cells.len());
            for w in r.windows(2) {
                assert_eq!(w[0].end, w[1].start);
            }
            assert!(r.iter().all(|x| !x.is_empty()), "parts {parts}: {r:?}");
        }
    }

    #[test]
    fn ranges_balance_cells() {
        let cells = vec![64; 32];
        assert_eq!(ranges(&cells, 2), vec![0..16, 16..32]);
        assert_eq!(ranges(&cells, 4), vec![0..8, 8..16, 16..24, 24..32]);
        // A heavy patch closes the range it lands in.
        let cells = [64, 64, 64, 64, 4096, 64, 64, 64];
        assert_eq!(ranges(&cells, 2), vec![0..5, 5..8]);
    }

    #[test]
    fn ranges_of_no_patches() {
        assert_eq!(ranges(&[], 4), vec![0..0]);
    }

    #[test]
    fn run_parts_runs_every_item_once() {
        let mut out = vec![0usize; 7];
        run_parts(out.iter_mut().enumerate(), |(i, slot)| *slot = i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn take_front_splits_in_order() {
        let mut data = [1, 2, 3, 4, 5];
        let mut rest = &mut data[..];
        assert_eq!(take_front(&mut rest, 2), &[1, 2]);
        assert_eq!(take_front(&mut rest, 3), &[3, 4, 5]);
        assert!(rest.is_empty());
    }
}
