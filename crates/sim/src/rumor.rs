//! Rumors, paged per-node rumor sets, and compressed acquisition logs.
//!
//! Every node in an information-dissemination instance can originate one
//! rumor; rumor `i` is "the rumor whose source is node `i`".  A node's state
//! with respect to dissemination is the set of rumors it currently knows.
//!
//! # Paged rumor sets
//!
//! [`RumorSet`] stores that set as an **adaptive paged bitset**: the universe
//! is split into fixed 4096-bit pages, kept in a sorted sparse vector with
//! three page states —
//!
//! * **empty** — the page is simply absent (no storage);
//! * **dense** — an owned 64-word block holding the page's bits;
//! * **full** — a shared sentinel ([`PageState::Full`]) meaning every bit of
//!   the page is set (no storage).
//!
//! A set whose every page is full additionally **saturation-collapses** to
//! the canonical full representation — no pages at all — so a node that has
//! learned everything costs a few machine words instead of `n/8` bytes.  In
//! the saturating all-to-all regime this is what breaks the dense-bitset
//! `2·n²/8` memory wall: nodes spend most of a run either nearly-empty
//! (a handful of pages) or fully informed (zero pages).
//!
//! The representation is kept **canonical** at all times (pages sorted and
//! unique, never empty, all-ones pages always stored as the full sentinel,
//! fully saturated sets always collapsed), so structural equality is semantic
//! equality and `#[derive(PartialEq)]` is sound.

use std::fmt;

use gossip_graph::NodeId;

/// Identifier of a rumor.  Rumor `i` originates at node `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RumorId(pub u32);

impl RumorId {
    /// The rumor originating at `node`.
    pub fn of_node(node: NodeId) -> Self {
        RumorId(node.index() as u32)
    }

    /// Dense index of this rumor.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for RumorId {
    // gossip-lint: allow(panic-path): documented precondition; universe sizes are far below u32::MAX
    fn from(i: usize) -> Self {
        RumorId(u32::try_from(i).expect("rumor index exceeds u32::MAX"))
    }
}

impl fmt::Display for RumorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A run of consecutive rumor ids `first, first+1, …, first+len-1`, the unit
/// in which the engine's merge path reports newly learned rumors.
pub(crate) type RumorRun = (RumorId, u32);

/// Bits per page of a [`RumorSet`].
pub(crate) const PAGE_BITS: usize = 4096;
/// 64-bit words per page.
const PAGE_WORDS: usize = PAGE_BITS / 64;

/// Storage of one non-empty page.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PageState {
    /// Every bit of the page (up to its capacity) is set; no storage.
    Full,
    /// An owned 64-word block holding the page's bits.
    Dense(Box<[u64; PAGE_WORDS]>),
}

/// One non-empty page of a [`RumorSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct PageEntry {
    /// Page number (bit `i` of the universe lives in page `i / 4096`).
    index: u32,
    /// Number of set bits in the page (`== capacity` iff the state is full).
    ones: u32,
    state: PageState,
}

/// A set of rumors over the universe `0..universe`, stored as a sparse
/// vector of 4096-bit pages (see the module docs for the representation).
#[derive(Clone, PartialEq, Eq)]
pub struct RumorSet {
    universe: usize,
    /// Number of rumors in the set (maintained incrementally).
    len: usize,
    /// Non-empty pages, sorted by `index`.  Empty when the set is empty *or*
    /// fully saturated (`len == universe`), the canonical collapsed form.
    pages: Vec<PageEntry>,
}

/// The in-page word holding bit `w*64..` of a full page of capacity `cap`.
fn full_page_word(cap: u32, w: usize) -> u64 {
    let lo = (w * 64) as u32;
    if lo + 64 <= cap {
        !0
    } else if lo >= cap {
        0
    } else {
        (1u64 << (cap - lo)) - 1
    }
}

/// Appends the new-rumor run `first..first+len`, coalescing with the
/// previously pushed run when exactly contiguous.
fn push_new_run(out: &mut Vec<RumorRun>, first: usize, len: u32) {
    if len == 0 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.0.index() as u64 + u64::from(last.1) == first as u64 {
            last.1 += len;
            return;
        }
    }
    out.push((RumorId(first as u32), len));
}

/// Calls `f(first, len)` for every maximal run of set bits of one bitset
/// word whose bit 0 is universe bit `word_base`, in ascending order.
fn for_each_word_run(word_base: usize, mut bits: u64, mut f: impl FnMut(usize, u32)) {
    while bits != 0 {
        let tz = bits.trailing_zeros();
        let run = (bits >> tz).trailing_ones();
        f(word_base + tz as usize, run);
        if tz + run >= 64 {
            break;
        }
        bits &= !0u64 << (tz + run);
    }
}

/// Decomposes the set bits of `new_bits` (a word whose bit 0 is universe bit
/// `word_base`) into maximal consecutive runs, in ascending order.
fn push_word_new_runs(out: &mut Vec<RumorRun>, word_base: usize, new_bits: u64) {
    for_each_word_run(word_base, new_bits, |first, len| {
        push_new_run(out, first, len)
    });
}

impl RumorSet {
    /// Creates an empty rumor set over a universe of `universe` rumors.
    pub fn empty(universe: usize) -> Self {
        RumorSet {
            universe,
            len: 0,
            pages: Vec::new(),
        }
    }

    /// Creates a singleton set containing only `rumor`.
    ///
    /// # Panics
    ///
    /// Panics if `rumor` is outside the universe.
    pub fn singleton(universe: usize, rumor: RumorId) -> Self {
        let mut s = Self::empty(universe);
        s.insert(rumor);
        s
    }

    /// Size of the rumor universe.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of set bits the page can hold (4096 except for the last page).
    fn page_capacity(&self, page: u32) -> u32 {
        let start = page as usize * PAGE_BITS;
        debug_assert!(start < self.universe || self.universe == 0);
        (self.universe - start).min(PAGE_BITS) as u32
    }

    /// Collapses to the canonical full representation once saturated.
    fn collapse_if_full(&mut self) {
        if self.len == self.universe && !self.pages.is_empty() {
            debug_assert!(self.pages.iter().all(|e| e.state == PageState::Full));
            self.pages = Vec::new();
        }
    }

    /// Number of dense (heap-allocated) pages — the set's live page cost.
    /// Empty and full pages are free; this is what [`MemStats`]'s page
    /// counters aggregate.
    ///
    /// [`MemStats`]: crate::MemStats
    pub fn live_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|e| matches!(e.state, PageState::Dense(_)))
            .count()
    }

    /// Heap bytes of one dense page, including its directory entry — the
    /// conversion factor for the engine's deterministic page counters.
    pub(crate) fn page_cost_bytes() -> u64 {
        (PAGE_WORDS * 8 + std::mem::size_of::<PageEntry>()) as u64
    }

    /// Fixed per-set bytes (the struct itself, pages excluded).
    pub(crate) fn base_cost_bytes() -> u64 {
        std::mem::size_of::<RumorSet>() as u64
    }

    /// Inserts a rumor; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if the rumor is outside the universe.
    // gossip-lint: allow(panic-path): page/word indices derive from the rumor < universe assertion
    pub fn insert(&mut self, rumor: RumorId) -> bool {
        let i = rumor.index();
        assert!(
            i < self.universe,
            "rumor {i} outside universe of size {}",
            self.universe
        );
        if self.len == self.universe {
            return false;
        }
        let page = (i / PAGE_BITS) as u32;
        let bit = i % PAGE_BITS;
        let cap = self.page_capacity(page);
        match self.pages.binary_search_by_key(&page, |e| e.index) {
            Err(at) => {
                let state = if cap == 1 {
                    PageState::Full
                } else {
                    let mut words = Box::new([0u64; PAGE_WORDS]);
                    words[bit / 64] |= 1 << (bit % 64);
                    PageState::Dense(words)
                };
                self.pages.insert(
                    at,
                    PageEntry {
                        index: page,
                        ones: 1,
                        state,
                    },
                );
            }
            Ok(p) => {
                let entry = &mut self.pages[p];
                match &mut entry.state {
                    PageState::Full => return false,
                    PageState::Dense(words) => {
                        let mask = 1u64 << (bit % 64);
                        if words[bit / 64] & mask != 0 {
                            return false;
                        }
                        words[bit / 64] |= mask;
                        entry.ones += 1;
                        if entry.ones == cap {
                            entry.state = PageState::Full;
                        }
                    }
                }
            }
        }
        self.len += 1;
        self.collapse_if_full();
        true
    }

    /// Returns `true` if the set contains `rumor`.
    // gossip-lint: allow(panic-path): page/word indices derive from the rumor < universe bound
    pub fn contains(&self, rumor: RumorId) -> bool {
        let i = rumor.index();
        if i >= self.universe {
            return false;
        }
        if self.len == self.universe {
            return true;
        }
        let page = (i / PAGE_BITS) as u32;
        match self.pages.binary_search_by_key(&page, |e| e.index) {
            Err(_) => false,
            Ok(p) => match &self.pages[p].state {
                PageState::Full => true,
                PageState::Dense(words) => {
                    let bit = i % PAGE_BITS;
                    words[bit / 64] & (1 << (bit % 64)) != 0
                }
            },
        }
    }

    /// Number of rumors in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns `true` if the set contains every rumor of the universe.
    pub fn is_full(&self) -> bool {
        self.len == self.universe
    }

    /// Unions `other` into `self`; returns `true` if any new rumor was added.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universes.
    // gossip-lint: allow(panic-path): page counts match by the asserted universe equality
    pub fn union_with(&mut self, other: &RumorSet) -> bool {
        assert_eq!(
            self.universe, other.universe,
            "rumor sets must share a universe"
        );
        if self.len == self.universe || other.len == 0 {
            return false;
        }
        if other.len == other.universe {
            self.pages = Vec::new();
            self.len = self.universe;
            return true;
        }
        let mut changed = false;
        for src in &other.pages {
            let cap = self.page_capacity(src.index);
            let added = match self.pages.binary_search_by_key(&src.index, |e| e.index) {
                Err(at) => {
                    self.pages.insert(
                        at,
                        PageEntry {
                            index: src.index,
                            ones: src.ones,
                            state: src.state.clone(),
                        },
                    );
                    src.ones
                }
                Ok(p) => {
                    let entry = &mut self.pages[p];
                    match (&mut entry.state, &src.state) {
                        (PageState::Full, _) => 0,
                        (PageState::Dense(_), PageState::Full) => {
                            let added = cap - entry.ones;
                            entry.state = PageState::Full;
                            entry.ones = cap;
                            added
                        }
                        (PageState::Dense(a), PageState::Dense(b)) => {
                            let mut added = 0u32;
                            for (x, y) in a.iter_mut().zip(b.iter()) {
                                added += (*y & !*x).count_ones();
                                *x |= *y;
                            }
                            entry.ones += added;
                            if entry.ones == cap {
                                entry.state = PageState::Full;
                            }
                            added
                        }
                    }
                }
            };
            if added > 0 {
                self.len += added as usize;
                changed = true;
            }
        }
        self.collapse_if_full();
        changed
    }

    /// Returns `true` if `self` is a superset of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two sets have different universes.
    pub fn is_superset(&self, other: &RumorSet) -> bool {
        assert_eq!(
            self.universe, other.universe,
            "rumor sets must share a universe"
        );
        if other.len > self.len {
            return false;
        }
        if self.len == self.universe {
            return true;
        }
        // `self` is not full here, so a full `other` cannot be covered (and
        // the length check above already rejected it).
        for src in &other.pages {
            match self.pages.binary_search_by_key(&src.index, |e| e.index) {
                Err(_) => return false,
                Ok(p) => match (&self.pages[p].state, &src.state) {
                    (PageState::Full, _) => {}
                    (PageState::Dense(_), PageState::Full) => return false,
                    (PageState::Dense(a), PageState::Dense(b)) => {
                        if a.iter().zip(b.iter()).any(|(x, y)| x & y != *y) {
                            return false;
                        }
                    }
                },
            }
        }
        true
    }

    /// Iterator over the rumors present in the set, in increasing id order.
    ///
    /// Runs in `O(pages·words + len)` — it walks the non-empty pages word by
    /// word and peels set bits — so materialising a sparse set stays cheap
    /// for large universes, and a saturation-collapsed full set iterates
    /// without touching any storage at all.
    pub fn iter(&self) -> RumorIter<'_> {
        RumorIter {
            universe: self.universe,
            full: self.universe > 0 && self.len == self.universe,
            next_id: 0,
            pages: &self.pages,
            page_pos: 0,
            cur_entry: None,
            cur_base: 0,
            cur_cap: 0,
            cur_words: 0,
            word_idx: 0,
            word: 0,
        }
    }

    /// Inserts the `len` consecutive rumors `first, …, first+len-1`, pushing
    /// every *maximal run* of rumors that was not already present onto
    /// `out_new` in increasing id order.
    ///
    /// This is the word-level workhorse of the engine's interval-log merge:
    /// one run of consecutive rumor ids is unioned in `O(len/64 + new runs)`
    /// time, and a run covering a whole absent page materialises the full
    /// sentinel directly — no allocation, which is how a saturating merge
    /// fills a 131072-rumor set with 32 page flips.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the universe.
    // gossip-lint: allow(panic-path): run bounds are asserted against the universe on entry
    pub(crate) fn insert_run(&mut self, first: RumorId, len: u32, out_new: &mut Vec<RumorRun>) {
        if len == 0 {
            return;
        }
        let lo = first.index();
        let hi = lo + len as usize;
        assert!(
            hi <= self.universe,
            "run {lo}..{hi} outside universe of size {}",
            self.universe
        );
        if self.len == self.universe {
            return;
        }
        for page in (lo / PAGE_BITS) as u32..=((hi - 1) / PAGE_BITS) as u32 {
            let page_start = page as usize * PAGE_BITS;
            let cap = self.page_capacity(page);
            let a = lo.max(page_start) - page_start;
            let b = (hi - page_start).min(PAGE_BITS);
            let added = match self.pages.binary_search_by_key(&page, |e| e.index) {
                Err(at) if a == 0 && b >= cap as usize => {
                    // The run covers the whole (absent) page: full sentinel,
                    // no allocation.
                    self.pages.insert(
                        at,
                        PageEntry {
                            index: page,
                            ones: cap,
                            state: PageState::Full,
                        },
                    );
                    push_new_run(out_new, page_start, cap);
                    cap
                }
                Err(at) => {
                    let mut words = Box::new([0u64; PAGE_WORDS]);
                    for_each_word_mask(a, b - a, |w, mask| words[w] |= mask);
                    self.pages.insert(
                        at,
                        PageEntry {
                            index: page,
                            ones: (b - a) as u32,
                            state: PageState::Dense(words),
                        },
                    );
                    push_new_run(out_new, page_start + a, (b - a) as u32);
                    (b - a) as u32
                }
                Ok(p) => {
                    let entry = &mut self.pages[p];
                    match &mut entry.state {
                        PageState::Full => 0,
                        PageState::Dense(words) => {
                            let mut added = 0u32;
                            for_each_word_mask(a, b - a, |w, mask| {
                                let new = mask & !words[w];
                                words[w] |= mask;
                                added += new.count_ones();
                                push_word_new_runs(out_new, page_start + w * 64, new);
                            });
                            entry.ones += added;
                            if entry.ones == cap {
                                entry.state = PageState::Full;
                            }
                            added
                        }
                    }
                }
            };
            self.len += added as usize;
        }
        self.collapse_if_full();
    }

    /// Compatibility wrapper over [`insert_run`](Self::insert_run) that
    /// expands the new runs into individual rumor ids.
    ///
    /// # Panics
    ///
    /// Panics if the run extends past the universe.
    pub fn insert_consecutive(&mut self, first: RumorId, len: u32, out_new: &mut Vec<RumorId>) {
        let mut runs = Vec::new();
        self.insert_run(first, len, &mut runs);
        for (f, l) in runs {
            for k in 0..l {
                out_new.push(RumorId(f.0 + k));
            }
        }
    }

    /// Unions a raw dense word slice (universe layout: a delayed shadow or a
    /// word-encoded log segment) into the set, OR-ing every newly inserted
    /// bit into `new_bits` (same layout).  Source pages that are all zero are
    /// skipped, and a source page landing on an absent page is copied (or
    /// becomes the full sentinel) without a per-word merge.
    // gossip-lint: allow(panic-path): word indices are bounded by the page capacity invariant
    pub(crate) fn union_words_collect_new_words(&mut self, words: &[u64], new_bits: &mut [u64]) {
        debug_assert_eq!(words.len(), self.universe.div_ceil(64), "universe mismatch");
        debug_assert_eq!(new_bits.len(), words.len(), "universe mismatch");
        if self.len == self.universe {
            return;
        }
        for page in 0..self.universe.div_ceil(PAGE_BITS) as u32 {
            let word_lo = page as usize * PAGE_WORDS;
            let word_hi = (word_lo + PAGE_WORDS).min(words.len());
            let src = &words[word_lo..word_hi];
            if src.iter().all(|&w| w == 0) {
                continue;
            }
            let out = &mut new_bits[word_lo..word_hi];
            let cap = self.page_capacity(page);
            let added = match self.pages.binary_search_by_key(&page, |e| e.index) {
                Err(at) => {
                    let mut ones = 0u32;
                    for (o, &bits) in out.iter_mut().zip(src) {
                        *o |= bits;
                        ones += bits.count_ones();
                    }
                    let state = if ones == cap {
                        PageState::Full
                    } else {
                        let mut owned = Box::new([0u64; PAGE_WORDS]);
                        owned[..src.len()].copy_from_slice(src);
                        PageState::Dense(owned)
                    };
                    self.pages.insert(
                        at,
                        PageEntry {
                            index: page,
                            ones,
                            state,
                        },
                    );
                    ones
                }
                Ok(p) => {
                    let entry = &mut self.pages[p];
                    match &mut entry.state {
                        PageState::Full => 0,
                        PageState::Dense(dst) => {
                            let mut added = 0u32;
                            for ((d, o), &bits) in dst.iter_mut().zip(out.iter_mut()).zip(src) {
                                let new = bits & !*d;
                                *d |= bits;
                                *o |= new;
                                added += new.count_ones();
                            }
                            entry.ones += added;
                            if entry.ones == cap {
                                entry.state = PageState::Full;
                            }
                            added
                        }
                    }
                }
            };
            self.len += added as usize;
        }
        self.collapse_if_full();
    }

    /// Fills the set to the full universe, pushing every maximal run of
    /// newly inserted rumors onto `out_new` in increasing id order, and
    /// collapses to the canonical (page-free) full representation.
    ///
    /// This is the engine's `O(pages)` "peer is saturated" merge: unioning a
    /// saturation-collapsed peer needs no shadow words and no log replay —
    /// the complement of what `self` already knows *is* the delta.
    // gossip-lint: allow(panic-path): word indices are bounded by the page capacity invariant
    pub(crate) fn insert_all(&mut self, out_new: &mut Vec<RumorRun>) {
        if self.len == self.universe {
            return;
        }
        let mut next = 0usize; // cursor into self.pages
        for page in 0..self.universe.div_ceil(PAGE_BITS) as u32 {
            let page_start = page as usize * PAGE_BITS;
            let cap = self.page_capacity(page);
            if next < self.pages.len() && self.pages[next].index == page {
                let entry = &self.pages[next];
                next += 1;
                match &entry.state {
                    PageState::Full => {}
                    PageState::Dense(words) => {
                        for (w, &bits) in words.iter().enumerate() {
                            let new = full_page_word(cap, w) & !bits;
                            push_word_new_runs(out_new, page_start + w * 64, new);
                        }
                    }
                }
            } else {
                push_new_run(out_new, page_start, cap);
            }
        }
        self.pages = Vec::new();
        self.len = self.universe;
    }

    /// Number of 64-bit words a dense shadow bitset over this universe needs.
    pub(crate) fn word_count(&self) -> usize {
        self.universe.div_ceil(64)
    }
}

/// Calls `f(word_index, mask)` for every 64-bit word overlapped by the bit
/// range `lo..lo+len`, with `mask` covering exactly the in-range bits of
/// that word.  Shared by the consecutive-run set operations so the boundary
/// arithmetic (including the `1 << 64` full-word case) lives in one place.
fn for_each_word_mask(lo: usize, len: usize, mut f: impl FnMut(usize, u64)) {
    if len == 0 {
        return;
    }
    let hi = lo + len;
    for w in lo / 64..=(hi - 1) / 64 {
        let a = lo.max(w * 64) - w * 64;
        let b = hi.min(w * 64 + 64) - w * 64;
        let mask = if b - a == 64 {
            !0u64
        } else {
            ((1u64 << (b - a)) - 1) << a
        };
        f(w, mask);
    }
}

/// Sets the bits `lo..lo+len` in a raw bitset word slice (the engine uses
/// this to replay consecutive log runs into a delayed shadow).
// gossip-lint: allow(panic-path): callers pass lo..lo+len ranges within the word slice
pub(crate) fn set_words_range(words: &mut [u64], lo: usize, len: usize) {
    for_each_word_mask(lo, len, |w, mask| words[w] |= mask);
}

/// Number of maximal runs of consecutive set bits in a universe-layout
/// bitset — the size, in runs, of its ascending interval encoding.
fn count_bit_runs(words: &[u64]) -> usize {
    let mut carry = 0u64;
    let mut runs = 0usize;
    for &w in words {
        // A run starts at every set bit whose lower neighbor is clear.
        runs += (w & !((w << 1) | carry)).count_ones() as usize;
        carry = w >> 63;
    }
    runs
}

/// `first` value of the [`Run`] that heads a word-encoded segment.  A real
/// run can never start at rumor `u32::MAX` (that would need a universe of
/// 2³² rumors), and because a run's successor id is computed in `u64`, no
/// later run ever coalesces onto a marker.
const WORD_MARKER: u32 = u32::MAX;

/// One run of an [`AcquisitionLog`]: the entries at positions
/// `start .. next run's start` hold the consecutive rumor ids
/// `first, first + 1, …`.  The run length is implicit in the neighbor run.
/// A run whose `first` is [`WORD_MARKER`] instead heads a word segment: its
/// entries are the set bits of the next [`WordSegment`], in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    /// Absolute log position of the run's first entry.
    start: u32,
    /// Rumor id of the run's first entry (or [`WORD_MARKER`]).
    first: u32,
}

/// A word-encoded round segment: the rumors a node learned in one merge
/// phase, as a dense universe-layout bitset.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WordSegment {
    /// Absolute log position of the segment's first entry.
    start: u32,
    /// Absolute log position one past the segment's last entry.
    end: u32,
    bits: Box<[u64]>,
}

/// One stored piece of an [`AcquisitionLog`] range, handed out by
/// [`AcquisitionLog::for_each_piece`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LogPiece<'a> {
    /// `len` consecutive rumor ids starting at the given one.
    Run(RumorId, u32),
    /// A whole word-encoded round segment: the set bits of a
    /// universe-layout bitset.
    Words(&'a [u64]),
}

/// A truncatable acquisition log made of *round segments*.
///
/// Conceptually this is an append-only sequence of [`RumorId`]s — the rumors
/// a node learned, in learn order — addressed by *absolute position*.  The
/// engine appends one segment per merge phase ([`push_bits`](Self::push_bits)
/// or a batch of [`push_run`](Self::push_run)s) and only ever reads at
/// segment boundaries, so the order *inside* a segment is unobservable.
/// Three things make it cheap at scale:
///
/// * **Interval runs.**  Maximal stretches of *consecutive* rumor ids are
///   stored as a single 8-byte run.  Acquisition orders in dissemination
///   workloads are often bursty (a merge copies its peer's runs, so runs
///   propagate and grow), and on structured families — star hubs relaying
///   `leaf 1, leaf 2, …`, clique all-to-all — whole logs collapse to a
///   handful of runs.
/// * **Word segments.**  A segment whose ascending interval encoding would
///   need more runs than a dense bitset over the universe has words is
///   stored as that bitset instead (its entries are its set bits, in
///   ascending order).  Random-order arrival on expanders, which defeats
///   interval compression, costs at most `universe / 64` words per segment,
///   and merging such a segment is a word-OR.  Reads must cover a word
///   segment whole.
/// * **Prefix truncation.**  [`truncate_below`](Self::truncate_below) drops
///   runs and segments that lie entirely below a position; reads below the
///   truncation frontier are a contract violation (the engine serves them
///   from a delayed bitset shadow instead).  Positions stay absolute across
///   truncation, so snapshots and watermarks taken earlier remain valid.
///   [`truncate_all`](Self::truncate_all) is the saturation-collapse variant:
///   it drops *everything* and releases the log's storage outright.
///
/// Storage is counted in 8-byte **units**: one per run, plus one header run
/// and one unit per bitset word for each word segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AcquisitionLog {
    runs: Vec<Run>,
    /// Index into `runs` of the first retained run (earlier runs are dropped
    /// lazily and compacted away once they dominate the vector).  A `u32`
    /// suffices: every run covers at least one of the `u32`-addressed
    /// positions.
    head: u32,
    /// Total number of entries ever appended (`==` the owning node's rumor count).
    len: u32,
    /// Retained word segments, in log order (one per retained marker run).
    segments: Vec<WordSegment>,
}

impl AcquisitionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AcquisitionLog {
            runs: Vec::new(),
            head: 0,
            len: 0,
            segments: Vec::new(),
        }
    }

    /// Creates a log seeded with the rumors of `set` in increasing id order
    /// (the canonical initial-state order; consecutive ids coalesce into runs).
    pub fn from_set(set: &RumorSet) -> Self {
        let mut log = AcquisitionLog::new();
        for rumor in set.iter() {
            log.push(rumor);
        }
        log
    }

    /// Total number of entries ever appended (including truncated ones).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Absolute position of the first retained entry: reads below this
    /// position panic in debug builds.
    pub fn front(&self) -> u32 {
        self.live().first().map_or(self.len, |r| r.start)
    }

    /// The retained runs (word-segment markers included).
    // gossip-lint: allow(panic-path): head <= runs.len() is kept by truncate_below and the compaction
    fn live(&self) -> &[Run] {
        &self.runs[self.head as usize..]
    }

    /// Storage units currently retained (the log's live memory, 8 bytes
    /// each): one per interval run, plus a header and one per bitset word
    /// for every word segment.
    pub fn retained_runs(&self) -> usize {
        self.live().len() + self.segments.iter().map(|s| s.bits.len()).sum::<usize>()
    }

    /// End position of the retained run at `runs` index `i`.
    // gossip-lint: allow(panic-path): callers iterate i < runs.len()
    fn run_end(&self, i: usize) -> u32 {
        if i + 1 < self.runs.len() {
            self.runs[i + 1].start
        } else {
            self.len
        }
    }

    /// Appends one entry.  Returns `true` if the entry started a new run
    /// (`false` when it extended the last run — extensions are free, the run
    /// length is implicit).
    pub fn push(&mut self, rumor: RumorId) -> bool {
        self.push_run(rumor, 1)
    }

    /// Appends `len` consecutive entries `first, first+1, …` as one batch.
    /// Returns `true` if the batch started a new run (`false` when it
    /// extended the last run).  `len == 0` is a no-op returning `false`.
    pub fn push_run(&mut self, first: RumorId, len: u32) -> bool {
        if len == 0 {
            return false;
        }
        debug_assert_ne!(first.0, WORD_MARKER, "rumor id reserved for word segments");
        let pos = self.len;
        self.len += len;
        if let Some(&last) = self.live().last() {
            if u64::from(last.first) + u64::from(pos - last.start) == u64::from(first.0) {
                return false;
            }
        }
        self.runs.push(Run {
            start: pos,
            first: first.0,
        });
        true
    }

    /// Appends the set bits of `bits` (a universe-layout bitset of rumors
    /// the log does not hold yet) as one round segment, in the smaller
    /// encoding: a word segment when the bits' ascending interval encoding
    /// needs more runs than `bits` has words, else ascending interval runs.
    /// Returns the storage units appended and whether a word segment was
    /// written.
    pub(crate) fn push_bits(&mut self, bits: &[u64]) -> (u64, bool) {
        if count_bit_runs(bits) > bits.len() {
            let entries: u32 = bits.iter().map(|w| w.count_ones()).sum();
            let start = self.len;
            self.len += entries;
            self.runs.push(Run {
                start,
                first: WORD_MARKER,
            });
            self.segments.push(WordSegment {
                start,
                end: self.len,
                bits: bits.into(),
            });
            return (bits.len() as u64 + 1, true);
        }
        let mut units = 0u64;
        for (w, &word) in bits.iter().enumerate() {
            for_each_word_run(w * 64, word, |first, len| {
                units += u64::from(self.push_run(RumorId(first as u32), len));
            });
        }
        (units, false)
    }

    /// Storage units of the retained runs and word segments that lie
    /// entirely below `pos` — exactly what
    /// [`truncate_below`](Self::truncate_below) would reclaim.
    pub fn runs_entirely_below(&self, pos: u32) -> usize {
        let k = self.live().partition_point(|r| r.start < pos);
        if k == 0 {
            return 0;
        }
        // The k-th run (index k-1) starts below `pos` but may extend past it.
        let end = self.run_end(self.head as usize + k - 1);
        let runs = if end <= pos { k } else { k - 1 };
        let segments = self.segments.partition_point(|s| s.end <= pos);
        runs + self
            .segments
            .iter()
            .take(segments)
            .map(|s| s.bits.len())
            .sum::<usize>()
    }

    /// Drops every run and word segment lying entirely below `pos` and
    /// returns the storage units reclaimed.  A run straddling `pos` is kept
    /// whole, so positions `>= pos` always stay readable.
    pub fn truncate_below(&mut self, pos: u32) -> usize {
        let mut dropped = 0usize;
        while let Some(&run) = self.live().first() {
            if self.run_end(self.head as usize) > pos {
                break;
            }
            if run.first == WORD_MARKER && !self.segments.is_empty() {
                dropped += self.segments.remove(0).bits.len();
            }
            self.head += 1;
            dropped += 1;
        }
        // Compact once dropped runs dominate, and release oversized capacity
        // so truncation frees real memory, not just indices.
        let head = self.head as usize;
        if head > 32 && head * 2 >= self.runs.len() {
            self.runs.drain(..head);
            self.head = 0;
            if self.runs.capacity() > 4 * self.runs.len().max(8) {
                self.runs.shrink_to(2 * self.runs.len().max(8));
            }
        }
        dropped
    }

    /// Drops every retained run and word segment and releases the log's
    /// storage, returning the storage units reclaimed.  The
    /// saturation-collapse path: once a node's rumor set is full and every
    /// possibly-outstanding snapshot of it covers the whole universe, the
    /// log's history can never be read again.  Positions stay absolute —
    /// appends after collapse continue at `len()`.
    pub fn truncate_all(&mut self) -> usize {
        let dropped = self.retained_runs();
        self.runs = Vec::new();
        self.head = 0;
        self.segments = Vec::new();
        dropped
    }

    /// Calls `f` with the stored pieces covering positions `from..to`, in
    /// position order: interval runs clipped to the range, word segments
    /// whole.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `from` lies below the truncation frontier,
    /// `to` past the end, or the range cuts through a word segment.
    // gossip-lint: allow(panic-path): run and segment indices come from partition_point over the live runs, one segment per marker
    pub(crate) fn for_each_piece(&self, from: u32, to: u32, mut f: impl FnMut(LogPiece<'_>)) {
        if from >= to {
            return;
        }
        debug_assert!(
            from >= self.front(),
            "reading truncated log positions ({from} < front {})",
            self.front()
        );
        debug_assert!(to <= self.len, "reading past the log ({to} > {})", self.len);
        let live = self.live();
        let segments = &self.segments;
        let mut i = live.partition_point(|r| r.start <= from).saturating_sub(1);
        let mut segment = match live.get(i) {
            Some(run) => segments.partition_point(|s| s.start < run.start),
            None => 0,
        };
        while i < live.len() {
            let run = live[i];
            if run.start >= to {
                break;
            }
            let end = self.run_end(self.head as usize + i);
            if run.first == WORD_MARKER {
                let words = &segments[segment];
                debug_assert!(
                    words.start == run.start && from <= run.start && end <= to,
                    "word segment {}..{end} must be read whole (read {from}..{to})",
                    run.start
                );
                segment += 1;
                f(LogPiece::Words(&words.bits));
            } else {
                let s = run.start.max(from);
                let e = end.min(to);
                if s < e {
                    f(LogPiece::Run(RumorId(run.first + (s - run.start)), e - s));
                }
            }
            i += 1;
        }
    }

    /// Calls `f(first_rumor, segment_len)` for the consecutive-id segments
    /// covering positions `from..to`, in position order (a word segment is
    /// decomposed into its ascending runs, split at word boundaries).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `from` lies below the truncation frontier,
    /// `to` past the end, or the range cuts through a word segment.
    pub fn for_each_segment(&self, from: u32, to: u32, mut f: impl FnMut(RumorId, u32)) {
        self.for_each_piece(from, to, |piece| match piece {
            LogPiece::Run(first, len) => f(first, len),
            LogPiece::Words(bits) => {
                for (w, &word) in bits.iter().enumerate() {
                    for_each_word_run(w * 64, word, |first, len| f(RumorId(first as u32), len));
                }
            }
        });
    }

    /// The entry at absolute position `pos` (mainly for tests).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is truncated or out of range.
    // gossip-lint: allow(panic-path): pos is asserted in range on entry
    pub fn get(&self, pos: u32) -> RumorId {
        assert!(
            pos >= self.front() && pos < self.len,
            "position out of range"
        );
        let live = self.live();
        let i = live.partition_point(|r| r.start <= pos) - 1;
        if live[i].first != WORD_MARKER {
            return RumorId(live[i].first + (pos - live[i].start));
        }
        // The (pos - start)-th set bit of the segment, in ascending order.
        let segments = &self.segments;
        let segment = &segments[segments.partition_point(|s| s.start < live[i].start)];
        let mut rank = pos - live[i].start;
        for (w, &word) in segment.bits.iter().enumerate() {
            let ones = word.count_ones();
            if rank < ones {
                let mut bits = word;
                for _ in 0..rank {
                    bits &= bits - 1;
                }
                return RumorId((w * 64) as u32 + bits.trailing_zeros());
            }
            rank -= ones;
        }
        unreachable!("a word segment holds exactly end - start set bits")
    }
}

impl Default for AcquisitionLog {
    fn default() -> Self {
        AcquisitionLog::new()
    }
}

/// Iterator over the rumors of a [`RumorSet`], in increasing id order.
///
/// Produced by [`RumorSet::iter`].
#[derive(Debug, Clone)]
pub struct RumorIter<'a> {
    universe: usize,
    /// Saturation-collapsed full set: iterate ids directly, no storage.
    full: bool,
    next_id: usize,
    pages: &'a [PageEntry],
    /// Index of the next page to load.
    page_pos: usize,
    cur_entry: Option<&'a PageEntry>,
    cur_base: usize,
    cur_cap: u32,
    cur_words: usize,
    word_idx: usize,
    word: u64,
}

impl Iterator for RumorIter<'_> {
    type Item = RumorId;

    fn next(&mut self) -> Option<RumorId> {
        if self.full {
            if self.next_id < self.universe {
                let r = RumorId(self.next_id as u32);
                self.next_id += 1;
                return Some(r);
            }
            return None;
        }
        loop {
            if self.word != 0 {
                let bit = self.word.trailing_zeros();
                self.word &= self.word - 1;
                return Some(RumorId((self.cur_base + self.word_idx * 64) as u32 + bit));
            }
            if let Some(entry) = self.cur_entry {
                self.word_idx += 1;
                if self.word_idx < self.cur_words {
                    self.word = page_word(entry, self.word_idx, self.cur_cap);
                    continue;
                }
                self.cur_entry = None;
            }
            if self.page_pos >= self.pages.len() {
                return None;
            }
            let entry = &self.pages[self.page_pos];
            self.page_pos += 1;
            self.cur_base = entry.index as usize * PAGE_BITS;
            self.cur_cap = (self.universe - self.cur_base).min(PAGE_BITS) as u32;
            self.cur_words = (self.cur_cap as usize).div_ceil(64);
            self.word_idx = 0;
            self.word = page_word(entry, 0, self.cur_cap);
            self.cur_entry = Some(entry);
        }
    }
}

/// Word `w` of a page entry, masking full pages to their capacity.
fn page_word(entry: &PageEntry, w: usize, cap: u32) -> u64 {
    match &entry.state {
        PageState::Full => full_page_word(cap, w),
        PageState::Dense(words) => words[w],
    }
}

impl fmt::Debug for RumorSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RumorSet({}/{}: ", self.len(), self.universe)?;
        f.debug_set().entries(self.iter().map(|r| r.0)).finish()?;
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive semantic mirror: a `RumorSet` must behave exactly like a
    /// plain boolean vector.
    fn assert_matches_naive(set: &RumorSet, naive: &[bool]) {
        assert_eq!(set.universe(), naive.len());
        assert_eq!(set.len(), naive.iter().filter(|&&b| b).count());
        let got: Vec<usize> = set.iter().map(RumorId::index).collect();
        let expected: Vec<usize> = (0..naive.len()).filter(|&i| naive[i]).collect();
        assert_eq!(got, expected);
        for (i, &want) in naive.iter().enumerate() {
            assert_eq!(set.contains(RumorId::from(i)), want, "bit {i}");
        }
    }

    #[test]
    fn singleton_and_membership() {
        let s = RumorSet::singleton(10, RumorId(3));
        assert!(s.contains(RumorId(3)));
        assert!(!s.contains(RumorId(4)));
        assert!(!s.contains(RumorId(99)));
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
        assert!(!s.is_full());
    }

    #[test]
    fn insert_reports_novelty() {
        let mut s = RumorSet::empty(5);
        assert!(s.insert(RumorId(2)));
        assert!(!s.insert(RumorId(2)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn union_and_superset() {
        let mut a = RumorSet::singleton(100, RumorId(1));
        let b = RumorSet::singleton(100, RumorId(70));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(RumorId(70)));
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn full_set_detection() {
        let mut s = RumorSet::empty(3);
        for i in 0..3 {
            s.insert(RumorId(i));
        }
        assert!(s.is_full());
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![RumorId(0), RumorId(1), RumorId(2)]
        );
        // Saturation collapse: a full set holds no pages at all.
        assert_eq!(s.live_pages(), 0);
    }

    #[test]
    fn empty_universe_is_trivially_full() {
        let s = RumorSet::empty(0);
        assert!(s.is_empty());
        assert!(s.is_full());
        assert!(s.iter().next().is_none());
    }

    #[test]
    fn rumor_of_node_matches_index() {
        assert_eq!(RumorId::of_node(NodeId::new(5)), RumorId(5));
        assert_eq!(RumorId::from(9usize).index(), 9);
        assert_eq!(format!("{}", RumorId(4)), "r4");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut s = RumorSet::empty(4);
        s.insert(RumorId(4));
    }

    #[test]
    #[should_panic(expected = "must share a universe")]
    fn union_of_mismatched_universes_panics() {
        let mut a = RumorSet::empty(4);
        let b = RumorSet::empty(5);
        a.union_with(&b);
    }

    #[test]
    fn iter_walks_pages_in_order() {
        // Rumors spread across multiple pages, including word and page edges.
        let ids = [0usize, 1, 63, 64, 4095, 4096, 8191, 8192, 9000];
        let mut s = RumorSet::empty(9001);
        for &i in &ids {
            s.insert(RumorId::from(i));
        }
        let got: Vec<usize> = s.iter().map(RumorId::index).collect();
        assert_eq!(got, ids);
        assert!(RumorSet::empty(0).iter().next().is_none());
        assert!(RumorSet::empty(100).iter().next().is_none());
        assert_eq!(s.live_pages(), 3, "pages 0, 1, 2 are dense");
    }

    #[test]
    fn debug_representation_is_nonempty() {
        let s = RumorSet::singleton(4, RumorId(1));
        let repr = format!("{s:?}");
        assert!(repr.contains("RumorSet"));
        assert!(repr.contains('1'));
    }

    #[test]
    fn insert_consecutive_matches_individual_inserts() {
        let mut a = RumorSet::empty(200);
        a.insert(RumorId(70));
        a.insert(RumorId(128));
        let mut b = a.clone();

        let mut new = Vec::new();
        a.insert_consecutive(RumorId(60), 80, &mut new);
        let mut expected_new = Vec::new();
        for i in 60..140u32 {
            if b.insert(RumorId(i)) {
                expected_new.push(RumorId(i));
            }
        }
        assert_eq!(a, b);
        assert_eq!(new, expected_new);
        assert!(!new.contains(&RumorId(70)));
        assert!(new.contains(&RumorId(139)));

        // Zero-length runs are a no-op.
        new.clear();
        a.insert_consecutive(RumorId(0), 0, &mut new);
        assert!(new.is_empty());
    }

    #[test]
    fn insert_run_crossing_pages_matches_individual_inserts() {
        let mut a = RumorSet::empty(3 * PAGE_BITS + 100);
        a.insert(RumorId(5000));
        let mut b = a.clone();
        let mut runs = Vec::new();
        // Spans pages 0..=3 (the last one partial).
        a.insert_run(
            RumorId(100),
            (3 * PAGE_BITS + 100 - 100 - 7) as u32,
            &mut runs,
        );
        let mut naive = vec![false; 3 * PAGE_BITS + 100];
        naive[5000] = true;
        for (i, slot) in naive
            .iter_mut()
            .enumerate()
            .take(3 * PAGE_BITS + 100 - 7)
            .skip(100)
        {
            *slot = true;
            b.insert(RumorId::from(i));
        }
        assert_eq!(a, b);
        assert_matches_naive(&a, &naive);
        // The new runs tile exactly the inserted range minus the old bit.
        let expanded: Vec<usize> = runs
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (100..3 * PAGE_BITS + 100 - 7)
            .filter(|&i| i != 5000)
            .collect();
        assert_eq!(expanded, expected);
        // Whole interior pages became sentinel pages, not allocations.
        assert!(a.live_pages() <= 2, "only boundary pages may stay dense");
    }

    #[test]
    fn full_page_runs_do_not_allocate() {
        let mut s = RumorSet::empty(2 * PAGE_BITS);
        let mut runs = Vec::new();
        s.insert_run(RumorId(0), PAGE_BITS as u32, &mut runs);
        assert_eq!(s.live_pages(), 0, "a whole-page run is a sentinel page");
        assert_eq!(s.len(), PAGE_BITS);
        assert_eq!(runs, vec![(RumorId(0), PAGE_BITS as u32)]);
        s.insert_run(RumorId(PAGE_BITS as u32), PAGE_BITS as u32, &mut runs);
        assert!(s.is_full());
        assert_eq!(s.live_pages(), 0, "full sets collapse to zero pages");
    }

    #[test]
    fn equality_is_canonical_across_construction_orders() {
        // The same contents must compare equal no matter how they were built:
        // bit-by-bit, by run, or via union.
        let n = PAGE_BITS + 10;
        let mut by_bits = RumorSet::empty(n);
        for i in 0..n {
            by_bits.insert(RumorId::from(i));
        }
        let mut by_run = RumorSet::empty(n);
        by_run.insert_run(RumorId(0), n as u32, &mut Vec::new());
        assert_eq!(by_bits, by_run);
        assert!(by_bits.is_full());
        assert_eq!(by_bits.live_pages(), 0);

        let mut partial_bits = RumorSet::empty(n);
        for i in 0..PAGE_BITS {
            partial_bits.insert(RumorId::from(i));
        }
        let mut partial_run = RumorSet::empty(n);
        partial_run.insert_run(RumorId(0), PAGE_BITS as u32, &mut Vec::new());
        assert_eq!(partial_bits, partial_run, "full page == sentinel page");
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_consecutive_past_universe_panics() {
        let mut s = RumorSet::empty(10);
        s.insert_consecutive(RumorId(8), 3, &mut Vec::new());
    }

    #[test]
    fn union_words_collects_exactly_the_new_runs() {
        let n = PAGE_BITS + 130;
        let mut dst = RumorSet::singleton(n, RumorId(5));
        let mut shadow = vec![0u64; n.div_ceil(64)];
        set_words_range(&mut shadow, 0, 2); // 0, 1
        set_words_range(&mut shadow, 5, 1); // already known
        set_words_range(&mut shadow, 64, 1); // 64
        set_words_range(&mut shadow, PAGE_BITS + 129, 1); // second page
        let new_runs = |bits: &[u64]| {
            let mut runs = Vec::new();
            for (w, &word) in bits.iter().enumerate() {
                push_word_new_runs(&mut runs, w * 64, word);
            }
            runs
        };
        let mut new = vec![0u64; shadow.len()];
        dst.union_words_collect_new_words(&shadow, &mut new);
        assert_eq!(
            new_runs(&new),
            vec![
                (RumorId(0), 2),
                (RumorId(64), 1),
                (RumorId(PAGE_BITS as u32 + 129), 1)
            ]
        );
        assert_eq!(dst.len(), 5);
        new.fill(0);
        dst.union_words_collect_new_words(&shadow, &mut new);
        assert!(new_runs(&new).is_empty(), "second union adds nothing");
    }

    #[test]
    fn insert_all_emits_the_complement_and_collapses() {
        let n = PAGE_BITS + 50;
        let mut s = RumorSet::empty(n);
        s.insert(RumorId(3));
        s.insert_run(RumorId(0), PAGE_BITS as u32, &mut Vec::new()); // page 0 full
        s.insert(RumorId(PAGE_BITS as u32 + 10));
        let mut new = Vec::new();
        s.insert_all(&mut new);
        assert!(s.is_full());
        assert_eq!(s.live_pages(), 0);
        let expanded: Vec<usize> = new
            .iter()
            .flat_map(|&(f, l)| f.index()..f.index() + l as usize)
            .collect();
        let expected: Vec<usize> = (PAGE_BITS..n).filter(|&i| i != PAGE_BITS + 10).collect();
        assert_eq!(expanded, expected);
    }

    #[test]
    fn union_with_full_source_and_randomish_mix_matches_naive() {
        let n = 2 * PAGE_BITS + 77;
        let mut naive_a = vec![false; n];
        let mut naive_b = vec![false; n];
        let mut a = RumorSet::empty(n);
        let mut b = RumorSet::empty(n);
        // Deterministic scatter over both sets (multiplicative hashing).
        for k in 0..800usize {
            let i = (k.wrapping_mul(2654435761)) % n;
            let j = (k.wrapping_mul(40503) + 17) % n;
            a.insert(RumorId::from(i));
            naive_a[i] = true;
            b.insert(RumorId::from(j));
            naive_b[j] = true;
        }
        assert_matches_naive(&a, &naive_a);
        assert_matches_naive(&b, &naive_b);
        let mut merged = a.clone();
        assert!(merged.union_with(&b));
        let naive_merged: Vec<bool> = (0..n).map(|i| naive_a[i] || naive_b[i]).collect();
        assert_matches_naive(&merged, &naive_merged);
        assert!(merged.is_superset(&a));
        assert!(merged.is_superset(&b));
        assert!(!a.is_superset(&b));

        // A full source saturates the destination in one step.
        let mut full = RumorSet::empty(n);
        full.insert_run(RumorId(0), n as u32, &mut Vec::new());
        assert!(full.is_full());
        let mut c = a.clone();
        assert!(c.union_with(&full));
        assert!(c.is_full());
        assert_eq!(c, full);
        assert!(!c.union_with(&b), "full destinations absorb nothing");
    }

    #[test]
    fn set_words_range_sets_exactly_the_range() {
        let mut words = vec![0u64; 4];
        set_words_range(&mut words, 60, 10); // spans the 0/1 word boundary
        set_words_range(&mut words, 128, 64); // a full word
        set_words_range(&mut words, 0, 0); // no-op
        let mut expected = vec![0u64; 4];
        for i in 60..70 {
            expected[i / 64] |= 1 << (i % 64);
        }
        for i in 128..192 {
            expected[i / 64] |= 1 << (i % 64);
        }
        assert_eq!(words, expected);
    }

    #[test]
    fn log_coalesces_consecutive_ids_into_runs() {
        let mut log = AcquisitionLog::new();
        for i in [7u32, 8, 9, 10, 3, 4, 42] {
            log.push(RumorId(i));
        }
        assert_eq!(log.len(), 7);
        assert_eq!(log.retained_runs(), 3, "7..=10, 3..=4, 42");
        let entries: Vec<u32> = (0..7).map(|p| log.get(p).0).collect();
        assert_eq!(entries, vec![7, 8, 9, 10, 3, 4, 42]);
    }

    #[test]
    fn log_push_run_extends_and_starts_runs_like_pushes() {
        let mut by_push = AcquisitionLog::new();
        let mut by_run = AcquisitionLog::new();
        // (first, len) batches, some contiguous with the previous one.
        for &(first, len) in &[(10u32, 3u32), (13, 4), (50, 2), (52, 1), (0, 5)] {
            for k in 0..len {
                by_push.push(RumorId(first + k));
            }
            by_run.push_run(RumorId(first), len);
        }
        assert_eq!(by_push, by_run);
        assert_eq!(by_run.retained_runs(), 3, "10..=16, 50..=52, 0..=4");
        assert!(!by_run.push_run(RumorId(99), 0), "empty batch is a no-op");
        assert_eq!(by_push.len(), by_run.len());
    }

    #[test]
    fn log_from_set_compresses_dense_sets() {
        let mut set = RumorSet::empty(1000);
        for i in 0..1000 {
            if i != 500 {
                set.insert(RumorId(i));
            }
        }
        let log = AcquisitionLog::from_set(&set);
        assert_eq!(log.len(), 999);
        assert_eq!(log.retained_runs(), 2, "0..500 and 501..1000");
        assert_eq!(log.get(0), RumorId(0));
        assert_eq!(log.get(500), RumorId(501));
    }

    #[test]
    fn log_segments_cover_arbitrary_ranges() {
        let mut log = AcquisitionLog::new();
        for i in [10u32, 11, 12, 50, 51, 90] {
            log.push(RumorId(i));
        }
        let collect = |from, to| {
            let mut out = Vec::new();
            log.for_each_segment(from, to, |first, len| out.push((first.0, len)));
            out
        };
        assert_eq!(collect(0, 6), vec![(10, 3), (50, 2), (90, 1)]);
        assert_eq!(collect(1, 5), vec![(11, 2), (50, 2)]);
        assert_eq!(collect(4, 4), vec![]);
        assert_eq!(collect(5, 6), vec![(90, 1)]);
    }

    #[test]
    fn log_truncation_reclaims_whole_runs_and_keeps_positions_absolute() {
        let mut log = AcquisitionLog::new();
        for i in [10u32, 11, 12, 50, 51, 90] {
            log.push(RumorId(i));
        }
        assert_eq!(log.runs_entirely_below(3), 1);
        assert_eq!(log.runs_entirely_below(4), 1, "run 50..52 straddles pos 4");
        assert_eq!(log.runs_entirely_below(5), 2);
        assert_eq!(log.runs_entirely_below(6), 3);

        assert_eq!(log.truncate_below(4), 1);
        assert_eq!(log.front(), 3, "straddling run kept whole");
        assert_eq!(log.retained_runs(), 2);
        // Absolute positions survive truncation.
        assert_eq!(log.get(4), RumorId(51));
        let mut out = Vec::new();
        log.for_each_segment(4, 6, |first, len| out.push((first.0, len)));
        assert_eq!(out, vec![(51, 1), (90, 1)]);

        assert_eq!(log.truncate_below(6), 2);
        assert_eq!(log.retained_runs(), 0);
        assert_eq!(log.front(), 6);
        // Appending after full truncation starts a fresh run.
        assert!(log.push(RumorId(91)));
        assert_eq!(log.get(6), RumorId(91));
        assert_eq!(log.len(), 7);
    }

    #[test]
    fn log_truncate_all_frees_everything_and_keeps_positions() {
        let mut log = AcquisitionLog::new();
        for i in 0..100u32 {
            log.push(RumorId(2 * i)); // 100 singleton runs
        }
        assert_eq!(log.truncate_all(), 100);
        assert_eq!(log.retained_runs(), 0);
        assert_eq!(log.front(), 100);
        assert_eq!(log.len(), 100);
        // Appends continue at the absolute position after the collapse.
        assert!(log.push_run(RumorId(500), 3));
        assert_eq!(log.get(100), RumorId(500));
        assert_eq!(log.get(102), RumorId(502));
        assert_eq!(log.truncate_all(), 1);
        assert_eq!(log.front(), 103);
    }

    /// Property: a log built from random per-round batches — consecutive
    /// stretches appended as runs, scattered sets through `push_bits` — holds
    /// exactly the naive `Vec<RumorId>` log's contents between every pair of
    /// round boundaries (each segment in ascending order), picks the smaller
    /// encoding for every `push_bits` segment, and keeps reading correctly
    /// after `truncate_below` at a boundary and after `truncate_all`.
    #[test]
    fn mixed_encoding_log_matches_a_naive_log_at_round_boundaries() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        let mut word_segments_seen = 0usize;
        let mut run_batches_seen = 0usize;
        for case in 0..300u64 {
            let mut rng = SmallRng::seed_from_u64(case);
            let universe = rng.gen_range(1..700usize);
            let wc = universe.div_ceil(64);
            let mut known = vec![false; universe];
            let mut naive: Vec<RumorId> = Vec::new();
            let mut log = AcquisitionLog::new();
            // Round boundaries (log positions) and whether the round's
            // segment must be word-encoded.
            let mut bounds = vec![0u32];
            let mut expect_words: Vec<bool> = Vec::new();
            while naive.len() < universe && bounds.len() < 40 {
                let mut batch: Vec<usize> = Vec::new();
                if rng.gen_bool(0.3) {
                    // A consecutive stretch of unknown ids, appended as one run.
                    let start = rng.gen_range(0..universe);
                    let mut i = start;
                    while i < universe && !known[i] && batch.len() < 200 {
                        batch.push(i);
                        i += 1;
                    }
                    if let Some(&first) = batch.first() {
                        log.push_run(RumorId(first as u32), batch.len() as u32);
                        expect_words.push(false);
                        run_batches_seen += 1;
                    }
                } else {
                    // A scattered set, sometimes dense enough for words.
                    let p = rng.gen_range(0.01..0.9);
                    batch = (0..universe)
                        .filter(|&i| !known[i] && rng.gen_bool(p))
                        .collect();
                    let mut bits = vec![0u64; wc];
                    for &i in &batch {
                        bits[i / 64] |= 1 << (i % 64);
                    }
                    let before = log.retained_runs();
                    let (units, words) = log.push_bits(&bits);
                    assert_eq!(log.retained_runs() - before, units as usize);
                    assert_eq!(words, count_bit_runs(&bits) > wc, "smaller encoding");
                    if words {
                        assert_eq!(units as usize, wc + 1);
                    } else {
                        assert!(units as usize <= wc, "run segments hold <= wc runs");
                    }
                    word_segments_seen += usize::from(words);
                    if !batch.is_empty() {
                        expect_words.push(words);
                    }
                }
                if batch.is_empty() {
                    continue;
                }
                for &i in &batch {
                    known[i] = true;
                    naive.push(RumorId::from(i));
                }
                bounds.push(naive.len() as u32);
            }
            assert_eq!(log.len() as usize, naive.len());
            // The stored encoding of each round segment is the chosen one.
            for (k, &words) in expect_words.iter().enumerate() {
                let has_segment = log.segments.iter().any(|s| s.start == bounds[k]);
                assert_eq!(has_segment, words, "case {case} round {k}");
            }
            let check_reads = |log: &AcquisitionLog, from_round: usize| {
                for a in from_round..bounds.len() {
                    for b in a..bounds.len() {
                        let (lo, hi) = (bounds[a], bounds[b]);
                        let mut got = Vec::new();
                        log.for_each_segment(lo, hi, |first, len| {
                            got.extend((first.0..first.0 + len).map(RumorId));
                        });
                        assert_eq!(
                            got,
                            naive[lo as usize..hi as usize],
                            "case {case} {lo}..{hi}"
                        );
                    }
                }
                for pos in bounds[from_round]..log.len() {
                    assert_eq!(log.get(pos), naive[pos as usize], "case {case} pos {pos}");
                }
            };
            check_reads(&log, 0);
            // Truncate at a random boundary: exactly the predicted units go,
            // and every later boundary range stays readable.
            let cut_round = rng.gen_range(0..bounds.len());
            let cut = bounds[cut_round];
            let predicted = log.runs_entirely_below(cut);
            let retained = log.retained_runs();
            assert_eq!(log.truncate_below(cut), predicted, "case {case}");
            assert_eq!(log.retained_runs(), retained - predicted);
            assert!(log.front() <= cut);
            check_reads(&log, cut_round);
            let retained = log.retained_runs();
            assert_eq!(log.truncate_all(), retained);
            assert_eq!(log.retained_runs(), 0);
            assert!(log.segments.is_empty());
            assert_eq!(log.front(), log.len());
        }
        assert!(word_segments_seen > 50, "word segments must fire");
        assert!(run_batches_seen > 50, "run segments must fire");
    }

    #[test]
    fn log_compaction_frees_dropped_runs() {
        let mut log = AcquisitionLog::new();
        // 200 singleton runs (even ids never coalesce).
        for i in 0..200u32 {
            log.push(RumorId(2 * i));
        }
        assert_eq!(log.retained_runs(), 200);
        let dropped = log.truncate_below(150);
        assert_eq!(dropped, 150);
        assert_eq!(log.retained_runs(), 50);
        // Internal compaction must not disturb reads.
        assert_eq!(log.get(150), RumorId(300));
        assert_eq!(log.get(199), RumorId(398));
        assert_eq!(AcquisitionLog::default().len(), 0);
    }
}
