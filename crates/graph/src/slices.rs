//! Four-row slices (SELL-C-σ: Kreutzer, Hager, Wellein, Fehske and
//! Bishop, SIAM J. Sci. Comput. 2014, with C = 4 and σ = 4,096): the
//! one layout both weighted fixpoints of the paper's cycle sweep.
//!
//! - The power sweep of Equation 4 pulls each node's in-edges: rows are
//!   targets, sources are tails, and the layout holds the transfer edges
//!   a rates vector leaves live ([`crate::LiveEdges`]).
//! - The Equation 10 fixpoint of an explanation pulls each node's
//!   out-edges: rows are local tails, sources are local heads, and the
//!   layout holds every edge of the explaining subgraph.
//!
//! Either way a row's sum is `Σ alpha[class] · x[source]` over its edges,
//! with `alpha` read through a per-class table. A row-by-row pull adds
//! each row's terms into one sum, a serial chain of dependent adds about
//! nine slots long on DBLP, and every row leaves its loop at a different
//! count. The slices let a sweep advance four independent sums at once
//! instead ([`InSlices::chunk_sums`]):
//!
//! - Rows are cut into *windows* of [`WINDOW_ROWS`] consecutive ids.
//!   Inside a window the rows are sorted by degree, descending, ties by
//!   row id. A row's position in that order is its *lane*, so lanes
//!   `w·σ .. (w+1)·σ` hold exactly the rows of window `w`.
//! - Lanes `4c .. 4c + 4` are *chunk* `c`. A chunk's slots are stored
//!   column-major: step `j` holds slot `j` of each of its four rows.
//! - Every row is padded to its chunk's longest row (lane 0) with
//!   padding slots: edge [`PAD_EDGE`], the padding class, and lane 0's
//!   row as source, so a padding term reads a value the chunk already
//!   touches. A sweep reads a padding class's `alpha` as `0.0`.
//! - Each row keeps its edges in ascending edge order.
//! - An edge whose class is dead (its `alpha` is `0.0`) gets no slot.
//!
//! Every value swept is non-negative and finite (scores, reduction
//! factors, rates), so a padding term or a dropped dead term is `+0.0`,
//! and adding `+0.0` to a non-negative sum that starts at `+0.0` leaves
//! its bits as they were. So four lanes advanced together add the same
//! nonzero products in the same order as a row-by-row pull over every
//! edge in ascending edge order, and every sum is bit-identical to that
//! pull. Sorting only inside a window keeps the slices a permutation of
//! nearby rows, so the writes of one chunk stay within 4,096 rows;
//! sorting by degree keeps the padding small (0.47 % of the slots on
//! `dblp-complete:0.1`).

use std::cmp::Reverse;
use std::ops::Range;

/// Rows per chunk: the number of sums a sweep advances together.
pub const CHUNK_ROWS: usize = 4;

/// Rows per window, the unit rows are sorted in and threads split on.
pub const WINDOW_ROWS: usize = 4096;

/// The edge index of a padding slot.
pub const PAD_EDGE: u32 = u32::MAX;

/// The row of a lane past the last row (only the last chunk has any).
pub const NO_ROW: u32 = u32::MAX;

/// [`NO_ROW`] as a window offset.
const NO_OFFSET: u16 = u16::MAX;

const _: () = assert!(WINDOW_ROWS < NO_OFFSET as usize && WINDOW_ROWS.is_multiple_of(CHUNK_ROWS));

/// The first row (or lane) of the window holding row (or lane) `i`.
#[inline]
fn window_start(i: usize) -> usize {
    i - i % WINDOW_ROWS
}

/// The four rows of chunk `c`, given every lane's row as an offset into
/// its window.
#[inline]
fn rows_of(lane_row: &[u16], c: usize) -> [u32; CHUNK_ROWS] {
    let window = window_start(c * CHUNK_ROWS);
    let offsets = lane_row.as_chunks::<CHUNK_ROWS>().0[c];
    offsets.map(|offset| match offset {
        NO_OFFSET => NO_ROW,
        offset => (window + offset as usize) as u32,
    })
}

/// An adjacency as four-row slices; see the module docs.
///
/// A window's lanes hold exactly its rows, so lanes and rows share one
/// index space, and the lane maps store each as an offset into its
/// window: 2 B where a node id takes 4.
#[derive(Clone, Debug)]
pub struct InSlices {
    /// Per chunk, its first slot, plus one entry closing the last chunk.
    chunk_start: Vec<u32>,
    /// Per lane, the row it holds, as an offset into the window.
    lane_row: Vec<u16>,
    /// Per row, its lane, as an offset into the window.
    row_lane: Vec<u16>,
    /// Per slot, the source node of its edge.
    sources: Vec<u32>,
    /// Per slot, the class id of its edge.
    classes: Vec<u16>,
    /// Per slot, its transfer-edge index, or [`PAD_EDGE`].
    edges: Vec<u32>,
}

impl InSlices {
    /// Lays out `n` rows, given per edge its source, its row and its
    /// class id; an edge's index is its position in these arrays. Only
    /// edges whose class is `live` get a slot. Padding slots get
    /// `pad_class`.
    ///
    /// # Panics
    /// Panics if an endpoint is `>= n` or the slot count overflows `u32`.
    pub fn build(
        n: usize,
        edge_src: &[u32],
        edge_row: &[u32],
        edge_class: &[u16],
        pad_class: u16,
        live: impl Fn(u16) -> bool,
    ) -> Self {
        let mut degree = vec![0u32; n];
        for (&row, &class) in edge_row.iter().zip(edge_class) {
            if live(class) {
                degree[row as usize] += 1;
            }
        }
        let mut lane_row: Vec<u16> = Vec::with_capacity(n.next_multiple_of(CHUNK_ROWS));
        let mut row_lane = vec![0u16; n];
        for window in (0..n).step_by(WINDOW_ROWS) {
            let mut order: Vec<u16> = (0..(n - window).min(WINDOW_ROWS) as u16).collect();
            // Stable, so equal degrees keep ascending row ids.
            order.sort_by_key(|&offset| Reverse(degree[window + offset as usize]));
            for (lane, &offset) in order.iter().enumerate() {
                row_lane[window + offset as usize] = lane as u16;
            }
            lane_row.extend(order);
        }
        lane_row.resize(n.next_multiple_of(CHUNK_ROWS), NO_OFFSET);
        let chunks = lane_row.len() / CHUNK_ROWS;

        // Lane 0 holds a chunk's longest row: the lanes are sorted and
        // only the last chunk's trailing lanes are empty.
        let mut chunk_start = Vec::with_capacity(chunks + 1);
        let mut slots = 0usize;
        chunk_start.push(0);
        for c in 0..chunks {
            slots += CHUNK_ROWS * degree[rows_of(&lane_row, c)[0] as usize] as usize;
            // orex::allow(ORX008): the documented `# Panics` bound. A
            // served dataset lays out its live edges in its start-up
            // global rank, before it serves, and the graphs the presets
            // build stay orders of magnitude below 2^32 slots.
            chunk_start.push(u32::try_from(slots).expect("slot count overflows u32"));
        }

        let mut sources = vec![0u32; slots];
        let mut classes = vec![pad_class; slots];
        let mut edges = vec![PAD_EDGE; slots];
        for c in 0..chunks {
            let first = rows_of(&lane_row, c)[0];
            sources[chunk_start[c] as usize..chunk_start[c + 1] as usize].fill(first);
        }
        // Edges in ascending order, each at its row's next step, so every
        // row's slots are in ascending edge order.
        let mut next_slot = degree;
        for (row, next) in next_slot.iter_mut().enumerate() {
            let lane = window_start(row) + row_lane[row] as usize;
            *next = chunk_start[lane / CHUNK_ROWS] + (lane % CHUNK_ROWS) as u32;
        }
        for (e, (&src, &row)) in edge_src.iter().zip(edge_row).enumerate() {
            if !live(edge_class[e]) {
                continue;
            }
            let next = &mut next_slot[row as usize];
            let slot = *next as usize;
            *next += CHUNK_ROWS as u32;
            sources[slot] = src;
            edges[slot] = e as u32;
            classes[slot] = edge_class[e];
        }
        Self {
            chunk_start,
            lane_row,
            row_lane,
            sources,
            classes,
            edges,
        }
    }

    /// Number of chunks.
    #[inline]
    pub fn chunk_count(&self) -> usize {
        self.chunk_start.len() - 1
    }

    /// Number of slots, padding included.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.sources.len()
    }

    /// The chunks holding the rows of `rows`, which must start on a
    /// window boundary and end on one or at the node count.
    #[inline]
    pub fn chunks_of(&self, rows: Range<usize>) -> Range<usize> {
        debug_assert_eq!(rows.start % WINDOW_ROWS, 0, "rows start mid-window");
        rows.start / CHUNK_ROWS..rows.end.div_ceil(CHUNK_ROWS)
    }

    /// The slots of the chunks holding the window-aligned `rows`.
    #[inline]
    pub fn slots_of(&self, rows: Range<usize>) -> Range<usize> {
        let chunks = self.chunks_of(rows);
        self.chunk_start[chunks.start] as usize..self.chunk_start[chunks.end] as usize
    }

    /// The slots of chunk `c`: `4 ×` its width, step-major.
    #[inline]
    pub fn chunk_slots(&self, c: usize) -> Range<usize> {
        self.chunk_start[c] as usize..self.chunk_start[c + 1] as usize
    }

    /// The four rows of chunk `c`, one per lane; [`NO_ROW`] past the
    /// last row.
    #[inline]
    pub fn chunk_rows(&self, c: usize) -> [u32; CHUNK_ROWS] {
        rows_of(&self.lane_row, c)
    }

    /// The four sums of chunk `c`: lane `l`'s is `Σ alpha[classes[s]] ·
    /// x[sources[s]]` over the slots `s` of lane `l`, added in slot order
    /// from `+0.0`. `classes` is one class id per slot: [`Self::classes`],
    /// or another classing of the same slots. A padding class must read
    /// `0.0` in `alpha`.
    #[inline]
    pub fn chunk_sums(
        &self,
        c: usize,
        classes: &[u16],
        alpha: &[f64],
        x: &[f64],
    ) -> [f64; CHUNK_ROWS] {
        let slots = self.chunk_slots(c);
        let (steps, _) = self.sources[slots.clone()].as_chunks::<CHUNK_ROWS>();
        let (step_classes, _) = classes[slots].as_chunks::<CHUNK_ROWS>();
        // One sum per lane, each advanced in its row's slot order.
        let mut acc = [0.0f64; CHUNK_ROWS];
        for (src, class) in steps.iter().zip(step_classes) {
            for lane in 0..CHUNK_ROWS {
                acc[lane] += alpha[class[lane] as usize] * x[src[lane] as usize];
            }
        }
        acc
    }

    /// The slots of `row`, in ascending edge order, padding left out.
    pub fn lane(&self, row: usize) -> impl Iterator<Item = usize> + '_ {
        let lane = window_start(row) + self.row_lane[row] as usize;
        let chunk = self.chunk_slots(lane / CHUNK_ROWS);
        (chunk.start + lane % CHUNK_ROWS..chunk.end)
            .step_by(CHUNK_ROWS)
            .take_while(|&slot| self.edges[slot] != PAD_EDGE)
    }

    /// Per slot, the source node of its edge (lane 0's row for padding).
    #[inline]
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Per slot, the class id of its edge (the padding class for padding).
    #[inline]
    pub fn classes(&self) -> &[u16] {
        &self.classes
    }

    /// Per slot, its transfer-edge index, or [`PAD_EDGE`].
    #[inline]
    pub fn edges(&self) -> &[u32] {
        &self.edges
    }

    /// Bytes held on the heap: 10 per slot, 4 per row (its lane and its
    /// lane's row) and 4 per chunk.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let u32s = [&self.chunk_start, &self.sources, &self.edges];
        let u16s = [&self.lane_row, &self.row_lane, &self.classes];
        u32s.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<u32>()
            + u16s.iter().map(|v| v.capacity()).sum::<usize>() * size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows 0..n with `deg(row)` in-edges each, from `row + 1 + k`.
    fn layout(n: usize, deg: impl Fn(usize) -> usize) -> (InSlices, Vec<u32>, Vec<u32>) {
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        for row in 0..n {
            for k in 0..deg(row) {
                src.push(((row + 1 + k) % n) as u32);
                dst.push(row as u32);
            }
        }
        let classes = vec![0u16; src.len()];
        (
            InSlices::build(n, &src, &dst, &classes, 1, |_| true),
            src,
            dst,
        )
    }

    #[test]
    fn windows_and_chunks_tile_the_row_space() {
        // A full window and a ragged second of 5 rows, so the last chunk
        // holds one row; degrees 0..7, so ties, empty rows and padding
        // all occur.
        let n = WINDOW_ROWS + 5;
        let degree = |row: usize| (row * 7919) % 8;
        let (slices, src, dst) = layout(n, degree);
        assert_eq!(slices.chunk_count(), n.div_ceil(CHUNK_ROWS));
        let mut seen = vec![false; n];
        let mut next_slot = 0;
        for window in (0..n).step_by(WINDOW_ROWS) {
            let rows = window..(window + WINDOW_ROWS).min(n);
            let mut last = (usize::MAX, usize::MAX);
            for c in slices.chunks_of(rows.clone()) {
                let slots = slices.chunk_slots(c);
                assert_eq!(slots.start, next_slot, "chunks are contiguous");
                assert_eq!(slots.len() % CHUNK_ROWS, 0);
                next_slot = slots.end;
                let lanes = slices.chunk_rows(c);
                assert_ne!(lanes[0], NO_ROW);
                for row in lanes {
                    if row == NO_ROW {
                        assert_eq!(c, slices.chunk_count() - 1, "only the last chunk is ragged");
                        continue;
                    }
                    let row = row as usize;
                    assert!(rows.contains(&row), "a lane holds a row of its window");
                    assert!(!std::mem::replace(&mut seen[row], true));
                    let len = slices.lane(row).count();
                    assert_eq!(len, degree(row));
                    assert!(len <= slots.len() / CHUNK_ROWS);
                    // Descending in-degree, ties by ascending row id.
                    let key = (len, usize::MAX - row);
                    assert!(key < last, "lanes are sorted");
                    last = key;
                    for slot in slices.lane(row) {
                        let e = slices.edges()[slot] as usize;
                        assert_eq!((slices.sources()[slot], dst[e]), (src[e], row as u32));
                    }
                }
                // Padding: padding class, lane 0's row as source.
                for slot in slots.clone() {
                    if slices.edges()[slot] == PAD_EDGE {
                        assert_eq!(slices.classes()[slot], 1);
                        assert_eq!(slices.sources()[slot], lanes[0]);
                    }
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every row has a lane");
        assert_eq!(next_slot, slices.slot_count());
    }

    #[test]
    fn a_graph_without_rows_has_no_chunks() {
        let slices = InSlices::build(0, &[], &[], &[], 0, |_| true);
        assert_eq!(slices.chunk_count(), 0);
        assert_eq!(slices.slot_count(), 0);
        assert_eq!(slices.chunks_of(0..0), 0..0);
    }
}
