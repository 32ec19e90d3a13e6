//! The lane word of the bit-parallel engine: `64 * W` lanes packed into
//! `W` machine words.
//!
//! Lane `l` lives in bit `l % 64` of `u64` number `l / 64`. Lane 0 (bit 0
//! of word 0) is the golden lane. Every operation is a plain loop over the
//! `W` words, which the compiler unrolls and vectorises to the vector unit
//! it compiles for; `W = 1` compiles to the single-`u64` operations it
//! replaces. The engine keeps its word arrays in [`LaneBuf`]s, which start
//! every word on a boundary of its own size.
//!
//! The lane engine's per-cycle loops are compiled once per
//! [`LaneKernel`] level with [`lane_kernel!`]: the target's baseline
//! (SSE2 on `x86_64`, so a `Word<8>` operation is four 128-bit ops) and,
//! on `x86_64`, AVX2 and AVX-512F (two and one ops). An engine picks its
//! level once, when it is built, from run-time feature detection and its
//! word width ([`LaneKernel::for_lanes`]). The `unsafe` this takes is
//! confined to the calls [`lane_kernel!`] generates, each justified by
//! that detection.

use std::ops::{
    BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Deref, DerefMut, Not,
};

/// The instruction-set level the lane engine's per-cycle word loops run
/// at.
///
/// Every level runs the same Rust source, compiled for a different vector
/// unit, so every level yields the same words bit for bit; only the speed
/// differs. [`for_lanes`](Self::for_lanes) picks an engine's level from
/// what [`detect`](Self::detect) finds and the engine's word width;
/// nothing else can select one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LaneKernel {
    /// The target's baseline instruction set (SSE2 on `x86_64`).
    Baseline,
    /// AVX2 with POPCNT, BMI1 and BMI2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F on top of the AVX2 level.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl LaneKernel {
    /// The widest level this host supports.
    pub fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = is_x86_feature_detected!("avx2")
                && is_x86_feature_detected!("popcnt")
                && is_x86_feature_detected!("bmi1")
                && is_x86_feature_detected!("bmi2");
            if avx2 && is_x86_feature_detected!("avx512f") {
                return LaneKernel::Avx512;
            }
            if avx2 {
                return LaneKernel::Avx2;
            }
        }
        LaneKernel::Baseline
    }

    /// The level an engine on a word of `lanes` lanes runs at: the widest
    /// level the host supports whose vector registers the word fills. A
    /// narrower word has no vector work for the wider registers, and its
    /// settle measured slower with them (EXPERIMENTS.md), so 64- and
    /// 128-lane words run the baseline and 256-lane words AVX2.
    pub fn for_lanes(lanes: usize) -> Self {
        let best = Self::detect();
        Self::ALL
            .iter()
            .copied()
            .filter(|&k| k <= best && k.vector_bits() as usize <= lanes)
            .max()
            .unwrap_or(LaneKernel::Baseline)
    }

    /// The level's name: `baseline`, `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self {
            LaneKernel::Baseline => "baseline",
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx512 => "avx512",
        }
    }

    /// The width of the level's vector registers in bits (the baseline
    /// counts as 128, the SSE2 and NEON width).
    pub fn vector_bits(self) -> u32 {
        match self {
            LaneKernel::Baseline => 128,
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx2 => 256,
            #[cfg(target_arch = "x86_64")]
            LaneKernel::Avx512 => 512,
        }
    }

    /// Every level this target builds, narrowest first.
    pub(crate) const ALL: &'static [LaneKernel] = &[
        LaneKernel::Baseline,
        #[cfg(target_arch = "x86_64")]
        LaneKernel::Avx2,
        #[cfg(target_arch = "x86_64")]
        LaneKernel::Avx512,
    ];
}

impl std::fmt::Display for LaneKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({}-bit)", self.name(), self.vector_bits())
    }
}

/// Defines a method that runs the `#[inline(always)]` method `$body` at the
/// [`LaneKernel`] level held in `self.kernel`, plus the wrappers
/// `$avx2` and `$avx512` that compile `$body` for AVX2 and AVX-512F. The
/// body is the one source of the loop; each wrapper is only its
/// `#[target_feature]` instantiation. Off `x86_64` only the baseline is
/// built.
///
/// ```text
/// lane_kernel! {
///     /// Docs of `settle`.
///     pub fn settle(&mut self) = settle_body, settle_avx2, settle_avx512;
/// }
/// ```
///
/// Const generics go in brackets after the name
/// (`fn keys[const K: usize](&self) -> ...`).
macro_rules! lane_kernel {
    ($(#[$attr:meta])* $vis:vis fn $name:ident $([$($gen:tt)*])?
        (&mut self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?
        = $body:ident, $avx2:ident, $avx512:ident;) => {
        lane_kernel!(@ [mut] $(#[$attr])* $vis fn $name $([$($gen)*])? ($($arg: $ty),*)
            $(-> $ret)? = $body, $avx2, $avx512;);
    };
    ($(#[$attr:meta])* $vis:vis fn $name:ident $([$($gen:tt)*])?
        (&self $(, $arg:ident: $ty:ty)*) $(-> $ret:ty)?
        = $body:ident, $avx2:ident, $avx512:ident;) => {
        lane_kernel!(@ [] $(#[$attr])* $vis fn $name $([$($gen)*])? ($($arg: $ty),*)
            $(-> $ret)? = $body, $avx2, $avx512;);
    };
    (@ [$($m:tt)*] $(#[$attr:meta])* $vis:vis fn $name:ident $([$($gen:tt)*])?
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)?
        = $body:ident, $avx2:ident, $avx512:ident;) => {
        $(#[$attr])*
        #[allow(unsafe_code)]
        $vis fn $name $(<$($gen)*>)? (&$($m)* self $(, $arg: $ty)*) $(-> $ret)? {
            match self.kernel {
                $crate::word::LaneKernel::Baseline => self.$body($($arg),*),
                // SAFETY: `kernel` is set only from `LaneKernel::for_lanes`,
                // which returns `Avx2` only if `LaneKernel::detect` found
                // AVX2, POPCNT, BMI1 and BMI2 on this host (the kernel test
                // forces only levels `detect` found).
                #[cfg(target_arch = "x86_64")]
                $crate::word::LaneKernel::Avx2 => unsafe { self.$avx2($($arg),*) },
                // SAFETY: as above, `Avx512` only if `LaneKernel::detect`
                // found AVX-512F as well as the AVX2 level on this host.
                #[cfg(target_arch = "x86_64")]
                $crate::word::LaneKernel::Avx512 => unsafe { self.$avx512($($arg),*) },
            }
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2,popcnt,bmi1,bmi2")]
        fn $avx2 $(<$($gen)*>)? (&$($m)* self $(, $arg: $ty)*) $(-> $ret)? {
            self.$body($($arg),*)
        }

        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx512f,avx2,popcnt,bmi1,bmi2")]
        fn $avx512 $(<$($gen)*>)? (&$($m)* self $(, $arg: $ty)*) $(-> $ret)? {
            self.$body($($arg),*)
        }
    };
}
pub(crate) use lane_kernel;

/// One value per lane: bit `l % 64` of `self.0[l / 64]` is lane `l`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(transparent)]
pub struct Word<const W: usize>(pub(crate) [u64; W]);

impl<const W: usize> Word<W> {
    /// Every lane clear.
    pub const ZERO: Self = Word([0; W]);
    /// Every lane set.
    pub(crate) const ONES: Self = Word([u64::MAX; W]);

    /// Broadcasts a boolean across every lane.
    #[inline(always)]
    pub(crate) fn splat(b: bool) -> Self {
        Word([0u64.wrapping_sub(b as u64); W])
    }

    /// The value of one lane.
    #[inline(always)]
    pub fn bit(&self, lane: usize) -> bool {
        (self.0[lane / 64] >> (lane % 64)) & 1 == 1
    }

    /// Sets one lane to `v`, leaving the others.
    #[inline(always)]
    pub fn set_bit(&mut self, lane: usize, v: bool) {
        let m = 1u64 << (lane % 64);
        let w = &mut self.0[lane / 64];
        *w = (*w & !m) | (0u64.wrapping_sub(v as u64) & m);
    }

    /// Broadcasts the golden lane (bit 0 of word 0) across every lane.
    #[inline(always)]
    pub(crate) fn splat_lane0(self) -> Self {
        Self::splat(self.0[0] & 1 == 1)
    }

    /// True if no lane is set.
    #[inline(always)]
    pub fn is_zero(self) -> bool {
        self.0.iter().fold(0, |acc, &w| acc | w) == 0
    }

    /// True if every lane holds the same value.
    #[inline(always)]
    pub(crate) fn is_uniform(self) -> bool {
        self == Self::ZERO || self == Self::ONES
    }

    /// Number of set lanes.
    pub fn count_ones(self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The set lanes, ascending.
    pub fn ones(self) -> Ones<W> {
        Ones { word: self, at: 0 }
    }

    /// Per lane: `hi` where `s` is set, else `lo`.
    #[inline(always)]
    pub(crate) fn mux(lo: Self, hi: Self, s: Self) -> Self {
        let mut out = lo;
        for i in 0..W {
            out.0[i] = (lo.0[i] & !s.0[i]) | (hi.0[i] & s.0[i]);
        }
        out
    }
}

/// A fixed-length array of lane words whose every word starts on an
/// `8 * W`-byte boundary, its own size: a 512-lane word is one cache line
/// and a 256-lane word half of one, so no word load or store straddles two
/// lines. A `Vec<Word<W>>` only guarantees the 8-byte alignment of `u64`
/// (the allocator hands out 16), so most 512-bit words would straddle.
/// Narrower words are not padded: a 64-lane word padded to a cache line
/// made a settle sweep 1.7× slower (EXPERIMENTS.md).
///
/// The words live in a plain `u64` buffer with up to `W - 1` spare `u64`s
/// in front, skipped so that the first word lands on the boundary. An
/// allocation aligned by the allocator instead (`Layout` alignment 64)
/// raised the benchmark's peak RSS by ~20% on glibc.
///
/// The length is fixed when the array is made, which is what lets the
/// settle sweep check its indices against it once, when the engine is
/// built, instead of once per access.
pub(crate) struct LaneBuf<const W: usize> {
    buf: Vec<u64>,
    /// `u64`s skipped at the front of `buf`.
    skip: usize,
    /// Words.
    len: usize,
}

impl<const W: usize> LaneBuf<W> {
    /// `len` copies of `value`.
    pub(crate) fn new(len: usize, value: Word<W>) -> Self {
        let mut buf = Self::alloc(len);
        buf.fill(value);
        buf
    }

    /// A copy of `words`.
    pub(crate) fn from_slice(words: &[Word<W>]) -> Self {
        let mut buf = Self::alloc(words.len());
        buf.copy_from_slice(words);
        buf
    }

    /// Room for `len` zero words.
    fn alloc(len: usize) -> Self {
        let size = len
            .checked_mul(W)
            .and_then(|n| n.checked_add(W - 1))
            .unwrap_or_else(|| panic!("{len} lane words overflow the address space"));
        let buf = vec![0u64; size];
        // `u64`s to skip so the first word starts on an `8 * W`-byte
        // boundary (8 when `8 * W` is not a power of two).
        let align = if (8 * W).is_power_of_two() { 8 * W } else { 8 };
        let skip = (align - buf.as_ptr() as usize % align) % align / 8;
        LaneBuf { buf, skip, len }
    }
}

impl<const W: usize> Deref for LaneBuf<W> {
    type Target = [Word<W>];

    #[inline(always)]
    fn deref(&self) -> &[Word<W>] {
        // SAFETY: `alloc` made `buf` `len * W + W - 1` long with
        // `skip <= W - 1`, and nothing resizes it, so the `len * W` `u64`s
        // from `skip` on are in `buf`. `Word<W>` is `repr(transparent)`
        // over `[u64; W]`, so they are `len` words, with the alignment a
        // word needs (that of `u64`).
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts(self.buf.as_ptr().add(self.skip).cast::<Word<W>>(), self.len)
        }
    }
}

impl<const W: usize> DerefMut for LaneBuf<W> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut [Word<W>] {
        // SAFETY: as in `deref`, and `&mut self` borrows `buf` uniquely.
        #[allow(unsafe_code)]
        unsafe {
            std::slice::from_raw_parts_mut(
                self.buf.as_mut_ptr().add(self.skip).cast::<Word<W>>(),
                self.len,
            )
        }
    }
}

impl<'a, const W: usize> IntoIterator for &'a LaneBuf<W> {
    type Item = &'a Word<W>;
    type IntoIter = std::slice::Iter<'a, Word<W>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a, const W: usize> IntoIterator for &'a mut LaneBuf<W> {
    type Item = &'a mut Word<W>;
    type IntoIter = std::slice::IterMut<'a, Word<W>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter_mut()
    }
}

impl<const W: usize> Clone for LaneBuf<W> {
    fn clone(&self) -> Self {
        Self::from_slice(self)
    }
}

impl<const W: usize> PartialEq for LaneBuf<W> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const W: usize> std::fmt::Debug for LaneBuf<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// Iterator over the set lanes of a [`Word`], ascending.
#[derive(Debug, Clone)]
pub struct Ones<const W: usize> {
    word: Word<W>,
    at: usize,
}

impl<const W: usize> Iterator for Ones<W> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.at < W {
            let w = &mut self.word.0[self.at];
            if *w != 0 {
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1;
                return Some(self.at * 64 + bit);
            }
            self.at += 1;
        }
        None
    }
}

macro_rules! word_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign:ident, $op_assign:tt) => {
        impl<const W: usize> $trait for Word<W> {
            type Output = Self;

            #[inline(always)]
            fn $method(mut self, rhs: Self) -> Self {
                self $op_assign rhs;
                self
            }
        }

        impl<const W: usize> $assign_trait for Word<W> {
            #[inline(always)]
            fn $assign(&mut self, rhs: Self) {
                for i in 0..W {
                    self.0[i] $op_assign rhs.0[i];
                }
            }
        }
    };
}

word_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
word_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
word_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

impl<const W: usize> Not for Word<W> {
    type Output = Self;

    #[inline(always)]
    fn not(mut self) -> Self {
        for w in self.0.iter_mut() {
            *w = !*w;
        }
        self
    }
}

#[cfg(test)]
impl<const W: usize> Word<W> {
    /// The mask holding only `lane`.
    pub(crate) fn lane(lane: usize) -> Self {
        let mut w = Self::ZERO;
        w.set_bit(lane, true);
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_address_across_words() {
        for lane in [0, 1, 63, 64, 127, 128, 255] {
            let m = Word::<4>::lane(lane);
            assert!(m.bit(lane));
            assert_eq!(m.count_ones(), 1);
            assert_eq!(m.ones().collect::<Vec<_>>(), vec![lane]);
            let mut w = Word::<4>::ONES;
            w.set_bit(lane, false);
            assert_eq!(w, !m);
            w.set_bit(lane, true);
            assert_eq!(w, Word::ONES);
        }
        for lane in [255, 256, 511] {
            let m = Word::<8>::lane(lane);
            assert!(m.bit(lane) && !m.bit(lane - 1));
            assert_eq!(m.count_ones(), 1);
            assert_eq!(m.ones().collect::<Vec<_>>(), vec![lane]);
            let mut w = Word::<8>::ONES;
            w.set_bit(lane, false);
            assert_eq!(w, !m);
        }
    }

    #[test]
    fn splat_lane0_broadcasts_word_zero_bit_zero_only() {
        // Bit 0 of the *other* words must not leak into the broadcast.
        let w = Word::<4>([0, 1, 1, 1]);
        assert_eq!(w.splat_lane0(), Word::ZERO);
        let w = Word::<4>([1, 0, 0, 0]);
        assert_eq!(w.splat_lane0(), Word::ONES);
        assert!(!Word::<2>([u64::MAX, 0]).is_uniform());
        assert!(Word::<2>([u64::MAX, u64::MAX]).is_uniform());
        let mut w = Word::<8>::ZERO;
        w.set_bit(511, true);
        assert_eq!(w.splat_lane0(), Word::ZERO);
        assert!(!w.is_uniform());
        w.set_bit(0, true);
        assert_eq!(w.splat_lane0(), Word::ONES);
    }

    fn aligned_to_the_word<const W: usize>() {
        for len in [0, 1, 3, 100] {
            let mut buf = LaneBuf::<W>::new(len, Word::ONES);
            assert_eq!(buf.len(), len);
            assert!(buf.iter().all(|&w| w == Word::ONES));
            if len > 0 {
                buf[len - 1] = Word::ZERO;
            }
            let copy = buf.clone();
            assert_eq!(copy, buf);
            for w in copy.iter() {
                assert_eq!(std::ptr::from_ref(w) as usize % (8 * W), 0, "W={W}");
            }
        }
    }

    #[test]
    fn lane_bufs_align_each_word_to_its_size() {
        aligned_to_the_word::<1>();
        aligned_to_the_word::<2>();
        aligned_to_the_word::<4>();
        aligned_to_the_word::<8>();
    }

    #[test]
    fn ones_walks_every_set_lane_ascending() {
        let w = Word::<4>([0b101, 0, 1 << 63, 1]);
        assert_eq!(w.ones().collect::<Vec<_>>(), vec![0, 2, 191, 192]);
        assert_eq!(Word::<1>::ZERO.ones().count(), 0);
        let mut w = Word::<8>::ZERO;
        for lane in [1, 256, 300, 511] {
            w.set_bit(lane, true);
        }
        assert_eq!(w.ones().collect::<Vec<_>>(), vec![1, 256, 300, 511]);
    }
}
