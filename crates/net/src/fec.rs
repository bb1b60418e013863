//! Forward error correction across segment groups.
//!
//! ARQ alone recovers losses by retransmitting, and every retransmission
//! costs a poll + backoff round trip — painful when the helper traffic
//! that powers the link vanishes for a heavy-tailed idle gap and takes a
//! whole burst with it. GuardRider-style Reed-Solomon coding attacks the
//! same losses *in line*: each group of `k` data segments travels with
//! `p` parity segments, and any `k` of the `k+p` reconstruct the rest
//! without another round trip.
//!
//! Three layers live here:
//!
//! * [`ReedSolomon`] — a GF(256) RS(n,k) coder: systematic encode by
//!   LFSR synthetic division, erasure decode by Forney magnitudes over
//!   the erasure locator, built only on [`bs_dsp::codes::gf256`] (no
//!   external crates). Decode is *total*: any input either fills its
//!   erasures to a verified codeword or returns [`FecError`] — never
//!   garbage, never a panic.
//! * [`FecConfig`] — the per-transfer code-rate choice, including the
//!   [`FecConfig::for_traffic`] rule that maps measured helper-traffic
//!   statistics (`bs_wifi::traffic::TrafficStats`) to a parity budget.
//! * [`GroupCoder`] — the segment-group layout: how a message's data
//!   segments are grouped, where parity segments sit in the sequence
//!   space, and how a [`Reassembler`] full of
//!   holes gets repaired.
//!
//! Segment loss is an *erasure* (the CRC-8 already converted corruption
//! into loss, and the receiver knows exactly which sequence numbers are
//! missing), so the coder runs at its full `p`-erasure capacity and
//! trusts every symbol it holds: it never searches for errors at
//! unknown positions.

use crate::seg::{payload_range, Reassembler, Segment};
use bs_dsp::codes::gf256;
use bs_wifi::traffic::TrafficStats;
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Why a Reed-Solomon operation failed. Decoding never panics and never
/// returns uncorrected data as if it were corrected: every failure mode
/// maps here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FecError {
    /// The codeword slice length does not match the code's `n`.
    WrongLength,
    /// An erasure position lies outside the codeword.
    ErasureOutOfRange,
    /// More erasures than parity symbols: unrecoverable by construction.
    TooManyErasures,
    /// The erasures do not explain the corruption: the filled word
    /// failed the syndrome re-check, so some symbol outside the
    /// erasures is wrong.
    BeyondCapacity,
}

impl fmt::Display for FecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FecError::WrongLength => write!(f, "codeword length does not match the code"),
            FecError::ErasureOutOfRange => write!(f, "erasure position outside the codeword"),
            FecError::TooManyErasures => write!(f, "more erasures than parity symbols"),
            FecError::BeyondCapacity => write!(f, "corruption beyond correction capacity"),
        }
    }
}

impl std::error::Error for FecError {}

/// A systematic Reed-Solomon code over GF(256) with `n` total and `k`
/// data symbols (`n - k` parity), generator roots `α⁰..α^{n-k-1}`.
///
/// Fills any `f ≤ n − k` erasures (symbols at known positions) from the
/// symbols it holds, which it trusts. Codewords are `data || parity`.
///
/// ```
/// use bs_net::fec::{FecError, ReedSolomon};
/// let rs = ReedSolomon::new(12, 8);
/// let mut cw = rs.encode(&[1, 2, 3, 4, 5, 6, 7, 8]);
/// cw[3] = 0; // lost: position known to the decoder
/// cw[10] = 0;
/// assert_eq!(rs.decode(&mut cw, &[3, 10]), Ok(2));
/// assert_eq!(&cw[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
/// cw[5] ^= 0xEE; // an error at a position not listed is detected
/// assert_eq!(rs.decode(&mut cw, &[3]), Err(FecError::BeyondCapacity));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReedSolomon {
    n: usize,
    k: usize,
    /// Generator polynomial, descending-degree coefficients, monic of
    /// degree `n - k`.
    gen: Vec<u8>,
}

impl ReedSolomon {
    /// Builds the RS(n, k) code.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k < n ≤ 255` (a configuration error, not a
    /// runtime condition).
    pub fn new(n: usize, k: usize) -> Self {
        assert!(
            k >= 1 && k < n && n <= 255,
            "ReedSolomon needs 1 <= k < n <= 255, got n={n} k={k}"
        );
        // Π (x + α^i), multiplied out in place one factor at a time.
        let mut gen = Vec::with_capacity(n - k + 1);
        gen.push(1u8);
        for i in 0..(n - k) {
            let root = gf256::alpha_pow(i as i32);
            gen.push(0);
            for j in (1..gen.len()).rev() {
                gen[j] = gf256::add(gen[j], gf256::mul(gen[j - 1], root));
            }
        }
        ReedSolomon { n, k, gen }
    }

    /// Total symbols per codeword.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Data symbols per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity symbols per codeword.
    pub fn parity_len(&self) -> usize {
        self.n - self.k
    }

    /// The parity symbols for a `k`-symbol data block: the remainder of
    /// `data(x)·x^{n−k}` divided by the generator polynomial, computed
    /// by LFSR-style synthetic division.
    ///
    /// # Panics
    /// Panics if `data.len() != k`.
    pub fn parity(&self, data: &[u8]) -> Vec<u8> {
        let mut rem = vec![0u8; self.parity_len()];
        self.parity_into(data, &mut rem);
        rem
    }

    /// [`Self::parity`] written into `rem`, which must hold exactly
    /// `n − k` symbols.
    ///
    /// # Panics
    /// Panics if `data.len() != k` or `rem.len() != n − k`.
    fn parity_into(&self, data: &[u8], rem: &mut [u8]) {
        assert_eq!(data.len(), self.k, "parity() needs exactly k data symbols");
        let nsym = self.parity_len();
        assert_eq!(rem.len(), nsym, "parity needs n - k output symbols");
        rem.fill(0);
        for &d in data {
            let coef = gf256::add(d, rem[0]);
            rem.rotate_left(1);
            rem[nsym - 1] = 0;
            if coef != 0 {
                for (r, &g) in rem.iter_mut().zip(&self.gen[1..]) {
                    *r = gf256::add(*r, gf256::mul(g, coef));
                }
            }
        }
    }

    /// Systematic encode: `data || parity`.
    ///
    /// # Panics
    /// Panics if `data.len() != k`.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        let mut cw = Vec::with_capacity(self.n);
        cw.extend_from_slice(data);
        cw.extend_from_slice(&self.parity(data));
        cw
    }

    /// Writes the syndromes `S_i = c(α^i)`, `i = 0..n−k`, into
    /// `synd[..n−k]` and returns true when all are zero (`cw` is a
    /// codeword).
    fn syndromes(&self, cw: &[u8], synd: &mut [u8; 255]) -> bool {
        let mut clean = true;
        for (i, s) in synd[..self.parity_len()].iter_mut().enumerate() {
            *s = gf256::poly_eval(cw, gf256::alpha_pow(i as i32));
            clean &= *s == 0;
        }
        clean
    }

    /// Fills the erased symbols of `cw` (`erasures`, as codeword indices
    /// `0..n`; repeats count once) from the others, which it trusts.
    /// Returns the number of erased symbols whose value changed.
    ///
    /// A wrong symbol at a position not listed is never corrected: the
    /// filled word is re-checked, and when it is not a codeword decode
    /// returns [`FecError::BeyondCapacity`]. That catches every unlisted
    /// error while erasures and wrong symbols together number at most
    /// `n − k` (two codewords differ in more than `n − k` symbols).
    ///
    /// Totality: on any input this either returns `Ok` with `cw` a
    /// verified codeword or returns `Err` with `cw` left as handed in —
    /// it never leaves garbage behind and never panics.
    pub fn decode(&self, cw: &mut [u8], erasures: &[usize]) -> Result<usize, FecError> {
        if cw.len() != self.n {
            return Err(FecError::WrongLength);
        }
        if erasures.iter().any(|&p| p >= self.n) {
            return Err(FecError::ErasureOutOfRange);
        }
        // The distinct erased positions and their locators
        // X = α^{n−1−pos}; n ≤ 255 keeps the locators distinct.
        let (mut seen, mut pos, mut xs, mut f) = ([false; 255], [0usize; 255], [0u8; 255], 0);
        for &p in erasures {
            if !std::mem::replace(&mut seen[p], true) {
                pos[f] = p;
                xs[f] = gf256::alpha_pow((self.n - 1 - p) as i32);
                f += 1;
            }
        }
        if f > self.parity_len() {
            return Err(FecError::TooManyErasures);
        }
        let mut synd = [0u8; 255];
        if self.syndromes(cw, &mut synd) {
            return Ok(0);
        }

        // Erasure locator Λ(x) = Π (1 + X·x), ascending coefficients,
        // then the evaluator Ω(x) = S(x)·Λ(x) mod x^f, descending.
        let mut lambda = [0u8; 255];
        lambda[0] = 1;
        for (j, &x) in xs[..f].iter().enumerate() {
            for i in (1..=j + 1).rev() {
                lambda[i] ^= gf256::mul(lambda[i - 1], x);
            }
        }
        let mut omega = [0u8; 255];
        for i in 0..f {
            omega[f - 1 - i] = (0..=i).fold(0, |o, j| o ^ gf256::mul(synd[j], lambda[i - j]));
        }

        // Forney magnitudes Y = Ω(X⁻¹) / Π_{l≠j} (1 + X_l·X⁻¹); the
        // product is Λ'(X⁻¹)/X, non-zero because the locators differ.
        let (pos, xs) = (&pos[..f], &xs[..f]);
        let mut held = [0u8; 255];
        let mut changed = 0;
        for ((&p, &x), h) in pos.iter().zip(xs).zip(&mut held) {
            let x_inv = gf256::inv(x);
            let den = xs.iter().filter(|&&xl| xl != x).fold(1, |d, &xl| {
                gf256::mul(d, gf256::add(1, gf256::mul(xl, x_inv)))
            });
            let y = gf256::div(gf256::poly_eval(&omega[..f], x_inv), den);
            *h = cw[p];
            cw[p] ^= y;
            changed += usize::from(y != 0);
        }
        // Only a re-verified syndrome proves the erasures explained the
        // whole corruption.
        if self.syndromes(cw, &mut synd) {
            Ok(changed)
        } else {
            for (&p, &h) in pos.iter().zip(&held) {
                cw[p] = h;
            }
            Err(FecError::BeyondCapacity)
        }
    }
}

/// The transport's code-rate choice: every group of `group_data` data
/// segments is followed by `group_parity` parity segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FecConfig {
    /// Data segments per group (`k`), 1..=64.
    pub group_data: usize,
    /// Parity segments per group (`p`), 0 disables FEC.
    pub group_parity: usize,
}

impl Default for FecConfig {
    fn default() -> Self {
        FecConfig {
            group_data: 8,
            group_parity: 0,
        }
    }
}

impl FecConfig {
    /// FEC disabled: the transport degenerates to plain ARQ, bit for
    /// bit.
    pub fn none() -> Self {
        FecConfig::default()
    }

    /// A fixed (k, p) group code.
    ///
    /// # Panics
    /// Panics unless `1 ≤ group_data ≤ 64` and `group_parity ≤ 64` —
    /// wider groups exceed the sequence-space and windowing assumptions.
    pub fn fixed(group_data: usize, group_parity: usize) -> Self {
        assert!(
            (1..=64).contains(&group_data) && group_parity <= 64,
            "FecConfig needs 1 <= group_data <= 64 and group_parity <= 64"
        );
        FecConfig {
            group_data,
            group_parity,
        }
    }

    /// True when parity segments will be generated.
    pub fn is_enabled(&self) -> bool {
        self.group_parity > 0
    }

    /// Code rate `k / (k + p)` (1.0 when disabled).
    pub fn rate(&self) -> f64 {
        self.group_data as f64 / (self.group_data + self.group_parity) as f64
    }

    /// The adaptive code-rate rule: picks a parity budget from measured
    /// helper-traffic statistics ([`bs_wifi::traffic::RateEstimator`]).
    ///
    /// The decision wants the *tail*, not the mean: a Poisson stream at
    /// the same mean rate rarely starves a whole segment, while a
    /// Pareto-gap stream with tail index near 1 regularly goes silent
    /// for multiples of the segment airtime and erases segments in
    /// bursts — exactly the loss process RS-across-the-group repairs and
    /// ARQ pays round trips for. The rule therefore keys on
    /// `tail_index` (heavier tail = smaller α = more parity) and
    /// `gap_cv` (burstiness), with the mean rate only gating the
    /// "plenty of traffic" fast path.
    ///
    /// All non-trivial tiers use the widest group (k = 64): pooling the
    /// parity across a whole window of windows means a burst erasure
    /// anywhere in the group draws on the *shared* budget, instead of
    /// overwhelming one small group while a neighbour's parity goes
    /// unused. Combined with the transport's interleaved send order and
    /// its stop-when-repairable behaviour (trailing parity a finished
    /// group never needed is never transmitted), wider is strictly
    /// kinder to bursts:
    ///
    /// | regime | test | parity (k = 64) |
    /// |---|---|---|
    /// | benign    | CV ≤ 1.5 and tail α > 2.5 | 0 (plain ARQ) |
    /// | bursty    | CV > 1.5 or tail α ≤ 2.5  | 12 (rate 0.84) |
    /// | wild      | tail α ≤ 1.8              | 24 (rate 0.73) |
    /// | starved   | tail α ≤ 1.3              | 32 (rate 0.67) |
    pub fn for_traffic(stats: &TrafficStats) -> Self {
        let k = 64;
        let alpha = stats.tail_index;
        let parity = if alpha <= 1.3 {
            32
        } else if alpha <= 1.8 {
            24
        } else if stats.gap_cv > 1.5 || alpha <= 2.5 {
            12
        } else {
            0
        };
        FecConfig {
            group_data: k,
            group_parity: parity,
        }
    }
}

/// What one group-repair attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RepairOutcome {
    /// Segments (data and parity) reconstructed into the reassembler.
    pub repaired: u64,
    /// True when the group had too many holes to decode this time.
    pub failed: bool,
}

/// The segment-group layout: how a message maps onto interleaved data +
/// parity sequence numbers, and how received groups get repaired.
///
/// Group `g` owns the contiguous sequence range
/// `[g·(k+p), g·(k+p) + d + p)` with `d = k` except possibly in the last
/// group; data slots come first, then parity. Each data segment
/// contributes one column `[len, payload, 0-pad]` of `L+1` bytes (`L` =
/// `seg_payload_bytes`); the last group's absent data columns are
/// *known zeros* on both sides (a shortened code), not erasures. Parity
/// segments carry their `L+1` column bytes verbatim, so with FEC enabled
/// `L` must stay ≤ 254.
#[derive(Debug, Clone)]
pub struct GroupCoder {
    cfg: FecConfig,
    seg_payload: usize,
    data_total: u16,
    wire_total: u16,
    groups: usize,
    rs: ReedSolomon,
}

impl GroupCoder {
    /// Layout for a `message_len`-byte message split into
    /// `seg_payload`-byte segments under `cfg`.
    ///
    /// # Panics
    /// Panics if `cfg` is disabled, `seg_payload` is outside 1..=254, or
    /// the message needs more than `u16::MAX` wire segments.
    pub fn for_message(message_len: usize, seg_payload: usize, cfg: FecConfig) -> Self {
        assert!(cfg.is_enabled(), "GroupCoder needs an enabled FecConfig");
        assert!(
            (1..=254).contains(&seg_payload),
            "FEC needs seg_payload_bytes in 1..=254 (parity columns add one byte)"
        );
        let data_total = message_len.div_ceil(seg_payload).max(1);
        Self::from_data_total(data_total, seg_payload, cfg)
    }

    /// Wire segments (data + parity) of a message with `data_total`
    /// data segments under `cfg`.
    pub(crate) fn wire_total_of(data_total: usize, cfg: FecConfig) -> usize {
        data_total + data_total.div_ceil(cfg.group_data).max(1) * cfg.group_parity
    }

    fn from_data_total(data_total: usize, seg_payload: usize, cfg: FecConfig) -> Self {
        let groups = data_total.div_ceil(cfg.group_data).max(1);
        let wire_total = Self::wire_total_of(data_total, cfg);
        assert!(
            wire_total <= u16::MAX as usize,
            "message needs too many wire segments"
        );
        GroupCoder {
            rs: ReedSolomon::new(cfg.group_data + cfg.group_parity, cfg.group_data),
            cfg,
            seg_payload,
            data_total: data_total as u16,
            wire_total: wire_total as u16,
            groups,
        }
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Wire sequence numbers spanned by one full group (data + parity).
    pub fn group_size(&self) -> usize {
        self.cfg.group_data + self.cfg.group_parity
    }

    /// The group a wire sequence number belongs to.
    fn group_of(&self, seq: u16) -> usize {
        let span = self.cfg.group_data + self.cfg.group_parity;
        ((seq as usize) / span).min(self.groups - 1)
    }

    /// (first wire seq, data slots, parity slots) of group `g`.
    pub fn group_span(&self, g: usize) -> (u16, usize, usize) {
        let span = self.cfg.group_data + self.cfg.group_parity;
        let first = g * span;
        let data = if g + 1 == self.groups {
            self.data_total as usize - g * self.cfg.group_data
        } else {
            self.cfg.group_data
        };
        (first as u16, data, self.cfg.group_parity)
    }

    /// True when `seq` is a parity slot.
    fn is_parity(&self, seq: u16) -> bool {
        let g = self.group_of(seq);
        let (first, data, _) = self.group_span(g);
        seq >= first + data as u16
    }

    /// Writes the `L+1`-byte column a data payload contributes to its
    /// group's codewords into the zeroed `col`: length byte, payload,
    /// zero padding.
    fn column_into(payload: &[u8], col: &mut [u8]) {
        debug_assert!(payload.len() < col.len());
        col[0] = payload.len() as u8;
        let len = payload.len().min(col.len() - 1);
        col[1..=len].copy_from_slice(&payload[..len]);
    }

    /// The payload of data segment `index` of `message`.
    fn data_payload<'m>(&self, message: &'m [u8], index: usize) -> &'m [u8] {
        &message[payload_range(message.len(), self.seg_payload, index)]
    }

    /// Every group's parity columns for `message`, written into `out`
    /// (resized to fit): group `g`'s parity column `j` is the `L+1`
    /// bytes at `(g·p + j)·(L+1)`. Row `r` of a group's codewords takes
    /// byte `r` of each data column (length byte, payload, zero
    /// padding; the shortened tail's absent columns are zeros).
    pub(crate) fn parity_into(&self, message: &[u8], out: &mut Vec<u8>) {
        let (k, p, l) = (self.cfg.group_data, self.cfg.group_parity, self.seg_payload);
        out.clear();
        out.resize(self.groups * p * (l + 1), 0);
        // k < n ≤ 255 and n − k ≤ 254: one codeword row on the stack.
        let (mut row, mut rem) = ([0u8; 255], [0u8; 255]);
        for g in 0..self.groups {
            let (_, data, _) = self.group_span(g);
            let base = g * p * (l + 1);
            for r in 0..=l {
                for (c, sym) in row[..k].iter_mut().enumerate() {
                    *sym = if c < data {
                        let payload = self.data_payload(message, g * k + c);
                        match r {
                            0 => payload.len() as u8,
                            r => payload.get(r - 1).copied().unwrap_or(0),
                        }
                    } else {
                        0
                    };
                }
                self.rs.parity_into(&row[..k], &mut rem[..p]);
                for (j, &sym) in rem[..p].iter().enumerate() {
                    out[base + j * (l + 1) + r] = sym;
                }
            }
        }
    }

    /// Where each wire segment's payload lies, in sequence order: a data
    /// segment's range of the `message_len`-byte message, or (`true`) a
    /// parity segment's range of the buffer [`Self::parity_into`] fills.
    pub(crate) fn wire_layout(
        &self,
        message_len: usize,
    ) -> impl Iterator<Item = (bool, Range<usize>)> + '_ {
        let (k, p, l) = (self.cfg.group_data, self.cfg.group_parity, self.seg_payload);
        (0..self.groups).flat_map(move |g| {
            let (_, data, _) = self.group_span(g);
            let data =
                (g * k..g * k + data).map(move |d| (false, payload_range(message_len, l, d)));
            let parity = (0..p).map(move |j| {
                let start = (g * p + j) * (l + 1);
                (true, start..start + l + 1)
            });
            data.chain(parity)
        })
    }

    /// Splits `message` into the full wire segment list: data segments
    /// (views of the message) interleaved with their groups' parity
    /// segments, all carrying `total = wire_total`.
    pub fn encode_message<'m>(&self, msg_id: u8, message: &'m [u8]) -> Vec<Segment<'m>> {
        let mut parity = Vec::new();
        self.parity_into(message, &mut parity);
        self.wire_layout(message.len())
            .enumerate()
            .map(|(seq, (is_parity, range))| Segment {
                msg_id,
                seq: seq as u16,
                total: self.wire_total,
                payload: if is_parity {
                    Cow::Owned(parity[range].to_vec())
                } else {
                    Cow::Borrowed(&message[range])
                },
            })
            .collect()
    }

    /// Attempts to reconstruct every missing slot of group `g` from the
    /// slots the reassembler holds. Missing slots are erasures; if they
    /// number more than the group's parity the attempt fails (and will
    /// be retried when more segments arrive). On success both data *and*
    /// parity slots are filled, so the group acks completely and ARQ
    /// stops touching it.
    pub fn repair_group(&self, g: usize, rx: &mut Reassembler) -> RepairOutcome {
        let (first, data, parity) = self.group_span(g);
        let (k, w) = (self.cfg.group_data, self.seg_payload + 1);
        let n = k + self.cfg.group_parity;
        let failed = |repaired| RepairOutcome {
            repaired,
            failed: true,
        };

        // Codeword positions: 0..k data (shortened tail = known zeros),
        // k..n parity. Wire slot s maps to position s for data slots and
        // k + (s - data) for parity slots.
        let pos_of = |s: usize| if s < data { s } else { k + (s - data) };
        let (mut erasures, mut missing) = ([0usize; 255], 0);
        for s in 0..data + parity {
            if !rx.has(first + s as u16) {
                erasures[missing] = pos_of(s);
                missing += 1;
            }
        }
        if missing == 0 {
            return RepairOutcome::default();
        }
        if missing > self.cfg.group_parity {
            return failed(0);
        }
        let erasures = &erasures[..missing];

        // Every position's column side by side, `w` bytes each; erased
        // columns stay zero until decoded. One codeword per byte row.
        let mut cols = vec![0u8; n * w];
        for s in 0..data + parity {
            if let Some(payload) = rx.payload_of(first + s as u16) {
                let col = &mut cols[pos_of(s) * w..][..w];
                if s < data {
                    Self::column_into(payload, col);
                } else {
                    let len = payload.len().min(w);
                    col[..len].copy_from_slice(&payload[..len]);
                }
            }
        }
        let mut cw = [0u8; 255];
        for r in 0..w {
            for (p, sym) in cw[..n].iter_mut().enumerate() {
                *sym = cols[p * w + r];
            }
            if self.rs.decode(&mut cw[..n], erasures).is_err() {
                return failed(0);
            }
            for &e in erasures {
                cols[e * w + r] = cw[e];
            }
        }

        let mut repaired = 0u64;
        for &e in erasures {
            let col = &cols[e * w..][..w];
            let (s, payload) = if e < k {
                let len = col[0] as usize;
                if len >= w {
                    // A decoded length byte outside the segment size
                    // means the repair is inconsistent; refuse it.
                    return failed(repaired);
                }
                (e, &col[1..=len])
            } else {
                (data + (e - k), col)
            };
            if rx.insert_repaired(first + s as u16, payload) {
                repaired += 1;
            }
        }
        RepairOutcome {
            repaired,
            failed: false,
        }
    }

    /// True once every *data* slot is held (parity may still be
    /// missing).
    pub(crate) fn data_complete(&self, rx: &Reassembler) -> bool {
        (0..self.wire_total)
            .filter(|&s| !self.is_parity(s))
            .all(|s| rx.has(s))
    }

    /// Unique data payload bytes held so far (what `delivered_bytes`
    /// should count — parity is overhead, not delivery).
    pub fn data_bytes(&self, rx: &Reassembler) -> u64 {
        (0..self.wire_total)
            .filter(|&s| !self.is_parity(s))
            .filter_map(|s| rx.payload_of(s))
            .map(|p| p.len() as u64)
            .sum()
    }

    /// The reassembled message from the data slots alone; `None` until
    /// every data slot is held.
    pub fn assemble_data(&self, rx: &Reassembler) -> Option<Vec<u8>> {
        if !self.data_complete(rx) {
            return None;
        }
        let mut out = Vec::with_capacity(self.data_bytes(rx) as usize);
        for s in 0..self.wire_total {
            if !self.is_parity(s) {
                out.extend_from_slice(rx.payload_of(s)?);
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bs_dsp::SimRng;

    #[test]
    fn rs_roundtrip_clean() {
        let rs = ReedSolomon::new(15, 11);
        let data: Vec<u8> = (1..=11).collect();
        let mut cw = rs.encode(&data);
        assert_eq!(cw.len(), 15);
        assert_eq!(rs.decode(&mut cw, &[]), Ok(0));
        assert_eq!(&cw[..11], &data[..]);
    }

    #[test]
    fn rs_corrects_erasures_to_full_parity() {
        let rs = ReedSolomon::new(12, 8);
        let data = [9u8, 8, 7, 6, 5, 4, 3, 2];
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        for &p in &[0usize, 3, 9, 11] {
            cw[p] = 0xAA;
        }
        assert!(rs.decode(&mut cw, &[0, 3, 9, 11]).is_ok());
        assert_eq!(cw, clean);
    }

    #[test]
    fn rs_rejects_beyond_capacity() {
        let rs = ReedSolomon::new(12, 8);
        let data = [1u8, 2, 3, 4, 5, 6, 7, 8];
        let clean = rs.encode(&data);
        // A wrong symbol outside the erasures: refuse, not fabricate.
        let mut cw = clean.clone();
        cw[0] = 0;
        cw[10] = 0;
        cw[5] ^= 7;
        let before = cw.clone();
        assert_eq!(rs.decode(&mut cw, &[0, 10]), Err(FecError::BeyondCapacity));
        assert_eq!(cw, before, "failed decode must not mutate");
        // 5 erasures > nsym = 4.
        let mut cw = clean;
        assert_eq!(
            rs.decode(&mut cw, &[0, 1, 2, 3, 4]),
            Err(FecError::TooManyErasures)
        );
    }

    #[test]
    fn rs_wrong_length_and_bad_erasure() {
        let rs = ReedSolomon::new(10, 6);
        let mut short = vec![0u8; 9];
        assert_eq!(rs.decode(&mut short, &[]), Err(FecError::WrongLength));
        let mut cw = rs.encode(&[1, 2, 3, 4, 5, 6]);
        assert_eq!(rs.decode(&mut cw, &[10]), Err(FecError::ErasureOutOfRange));
    }

    #[test]
    fn config_rules() {
        assert!(!FecConfig::none().is_enabled());
        assert_eq!(FecConfig::none().rate(), 1.0);
        let c = FecConfig::fixed(8, 4);
        assert!(c.is_enabled());
        assert!((c.rate() - 8.0 / 12.0).abs() < 1e-12);
        // Traffic rule endpoints.
        let benign = TrafficStats {
            mean_pps: 800.0,
            gap_cv: 1.0,
            tail_index: 5.0,
            max_gap_us: 50_000,
        };
        assert!(!FecConfig::for_traffic(&benign).is_enabled());
        let wild = TrafficStats {
            mean_pps: 300.0,
            gap_cv: 3.0,
            tail_index: 1.2,
            max_gap_us: 5_000_000,
        };
        assert_eq!(FecConfig::for_traffic(&wild).group_parity, 32);
        let heavy = TrafficStats {
            mean_pps: 300.0,
            gap_cv: 2.0,
            tail_index: 1.6,
            max_gap_us: 1_000_000,
        };
        assert_eq!(FecConfig::for_traffic(&heavy).group_parity, 24);
        let bursty = TrafficStats {
            mean_pps: 500.0,
            gap_cv: 2.5,
            tail_index: 3.0,
            max_gap_us: 400_000,
        };
        assert_eq!(FecConfig::for_traffic(&bursty).group_parity, 12);
        for c in [
            FecConfig::for_traffic(&wild),
            FecConfig::for_traffic(&heavy),
            FecConfig::for_traffic(&bursty),
        ] {
            assert_eq!(c.group_data, 64, "adaptive tiers pool the widest group");
        }
    }

    #[test]
    fn group_layout_roundtrips() {
        // 100 bytes, L = 8 → 13 data segments; k = 4, p = 2 → 4 groups,
        // last group 1 data; wire span 4*6 - 3 + ... = 13 + 8 = 21.
        let cfg = FecConfig::fixed(4, 2);
        let c = GroupCoder::for_message(100, 8, cfg);
        assert_eq!(c.data_total, 13);
        assert_eq!(c.groups(), 4);
        assert_eq!(c.wire_total, 13 + 4 * 2);
        // Span accounting covers every seq exactly once.
        let mut covered = vec![false; c.wire_total as usize];
        for g in 0..c.groups() {
            let (first, d, p) = c.group_span(g);
            for s in first..first + (d + p) as u16 {
                assert!(!covered[s as usize]);
                covered[s as usize] = true;
                assert_eq!(c.group_of(s), g);
            }
        }
        assert!(covered.iter().all(|&x| x));
    }

    #[test]
    fn parity_into_matches_the_column_encoder() {
        // `parity_into` reads each codeword row straight off the
        // message; the reference gathers whole columns first and
        // encodes row by row with the allocating `parity`.
        bs_dsp::testkit::check("fec-parity-into", 60, |g| {
            let msg = g.vec_u8(0, 400);
            let l = g.usize_in(1, 40);
            let cfg = FecConfig::fixed(g.usize_in(1, 65), g.usize_in(1, 9));
            let c = GroupCoder::for_message(msg.len(), l, cfg);
            let mut got = Vec::new();
            c.parity_into(&msg, &mut got);
            let mut want = Vec::new();
            for grp in 0..c.groups() {
                let (_, data, p) = c.group_span(grp);
                let mut cols = vec![vec![0u8; l + 1]; cfg.group_data];
                for (s, col) in cols[..data].iter_mut().enumerate() {
                    let payload = c.data_payload(&msg, grp * cfg.group_data + s);
                    GroupCoder::column_into(payload, col);
                }
                let mut pcols = vec![vec![0u8; l + 1]; p];
                for r in 0..=l {
                    let row: Vec<u8> = cols.iter().map(|col| col[r]).collect();
                    for (j, sym) in c.rs.parity(&row).into_iter().enumerate() {
                        pcols[j][r] = sym;
                    }
                }
                want.extend(pcols.concat());
            }
            assert_eq!(got, want, "{} B, L {l}, {cfg:?}", msg.len());
            // The wire list carries the same parity after its data.
            let segs = c.encode_message(3, &msg);
            let parity: Vec<u8> = segs
                .iter()
                .filter(|s| c.is_parity(s.seq))
                .flat_map(|s| s.payload.iter().copied())
                .collect();
            assert_eq!(parity, got);
        });
    }

    #[test]
    fn encode_then_full_erasure_repair() {
        let msg: Vec<u8> = (0..200u32).map(|i| (i * 13 % 251) as u8).collect();
        let cfg = FecConfig::fixed(6, 3);
        let c = GroupCoder::for_message(msg.len(), 16, cfg);
        let segs = c.encode_message(5, &msg);
        assert_eq!(segs.len(), c.wire_total as usize);
        let mut rx = Reassembler::new(5, c.wire_total);
        // Drop up to p slots per group (data or parity, mixed), deliver
        // the rest.
        let mut rng = SimRng::new(77).stream("fec-drop");
        let mut dropped_any = false;
        for g in 0..c.groups() {
            let (first, d, p) = c.group_span(g);
            let drop: Vec<u16> = (0..3)
                .map(|_| first + rng.index(d + p) as u16)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .take(p)
                .collect();
            for s in &segs[first as usize..(first as usize + d + p)] {
                if !drop.contains(&s.seq) {
                    rx.accept(s);
                } else {
                    dropped_any = true;
                }
            }
        }
        assert!(dropped_any);
        assert!(!rx.complete());
        let mut total_repaired = 0;
        for g in 0..c.groups() {
            let out = c.repair_group(g, &mut rx);
            assert!(!out.failed, "group {g} should repair");
            total_repaired += out.repaired;
        }
        assert!(total_repaired > 0);
        assert!(rx.complete(), "repair fills parity slots too");
        assert!(c.data_complete(&rx));
        assert_eq!(c.assemble_data(&rx), Some(msg.clone()));
        assert_eq!(c.data_bytes(&rx), msg.len() as u64);
    }

    #[test]
    fn repair_fails_gracefully_beyond_parity_then_recovers() {
        let msg = vec![0x42u8; 64];
        let cfg = FecConfig::fixed(4, 1);
        let c = GroupCoder::for_message(msg.len(), 16, cfg); // 4 data, 1 group? 64/16=4 → 1 group +1 parity
        let segs = c.encode_message(1, &msg);
        let mut rx = Reassembler::new(1, c.wire_total);
        // Deliver only half: too many holes.
        rx.accept(&segs[0]);
        rx.accept(&segs[1]);
        let out = c.repair_group(0, &mut rx);
        assert!(out.failed);
        assert_eq!(out.repaired, 0);
        // Two more arrive; now exactly one hole = parity capacity.
        rx.accept(&segs[2]);
        rx.accept(&segs[4]);
        let out = c.repair_group(0, &mut rx);
        assert!(!out.failed);
        assert_eq!(out.repaired, 1);
        assert_eq!(c.assemble_data(&rx), Some(msg));
    }

    #[test]
    fn shortened_last_group_repairs() {
        // 17 bytes, L = 16 → 2 data segments; k = 8 → one group with
        // d = 2 of 8, heavily shortened.
        let msg: Vec<u8> = (0..17).map(|i| i as u8 + 1).collect();
        let cfg = FecConfig::fixed(8, 2);
        let c = GroupCoder::for_message(msg.len(), 16, cfg);
        assert_eq!(c.data_total, 2);
        assert_eq!(c.groups(), 1);
        let segs = c.encode_message(2, &msg);
        let mut rx = Reassembler::new(2, c.wire_total);
        // Lose both data segments; the two parity segments must rebuild
        // them (the 1-byte second segment exercises the len column).
        rx.accept(&segs[2]);
        rx.accept(&segs[3]);
        let out = c.repair_group(0, &mut rx);
        assert!(!out.failed);
        assert_eq!(out.repaired, 2);
        assert_eq!(c.assemble_data(&rx), Some(msg));
    }

    #[test]
    fn repair_is_a_noop_on_complete_groups() {
        let msg = vec![1u8; 32];
        let c = GroupCoder::for_message(msg.len(), 16, FecConfig::fixed(2, 1));
        let segs = c.encode_message(0, &msg);
        let mut rx = Reassembler::new(0, c.wire_total);
        for s in &segs {
            rx.accept(s);
        }
        let out = c.repair_group(0, &mut rx);
        assert_eq!(out, RepairOutcome::default());
    }
}
