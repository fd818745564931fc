//! Table-driven bit kernels for the 2-D and 3-D radix-2 curves.
//!
//! The catalogue implementations ([`crate::Hilbert`], [`crate::Gray`]) are
//! dimension-generic and pay for it on the hot path:
//! per-point `Vec` staging and a per-bit Skilling transpose. The encapsulator
//! only ever builds 2-D and 3-D stage curves, so those shapes get
//! monomorphized kernels here, in the Butz/Lawder LUT style:
//!
//! * **Morton spread tables** — a byte of one coordinate is interleaved in a
//!   single 256-entry lookup (`SPREAD2`: bit `j` → bit `2j`, `SPREAD3`:
//!   bit `j` → bit `3j`), so a full interleave is one table fetch per
//!   coordinate byte instead of one shift-or per coordinate *bit*.
//! * **Hilbert state tables** — the Skilling/Butz transform is re-expressed
//!   as an MSB-first digit automaton: in state `s`, input digit `d` (one bit
//!   per dimension, dimension 0 most significant) emits output digit
//!   `OUT[s][d]` and moves to state `NXT[s][d]`. The 2-D machine has 4
//!   states, the 3-D machine 24 (the orientation group of the cube). The
//!   per-digit tables are then widened into byte-wise step tables
//!   ([`H2_STEP`]: 4 digits per lookup, [`H3_STEP`]: 2 digits per lookup)
//!   packing `(next_state << 8) | output_bits` into a `u16`.
//!
//! The automata were derived from, and are exercised against, the generic
//! Skilling implementation: `tests/props.rs` checks full-domain equality at
//! small orders and sampled equality up to the maximum order, and the golden
//! tests pin the published orderings. The machines are valid for `bits >= 2`;
//! order-1 curves keep the catalogue path.

/// Byte spread for 2-D Morton interleave: bit `j` of the byte moves to bit
/// `2j` of the result.
pub(crate) const SPREAD2: [u16; 256] = build_spread2();

/// Byte spread for 3-D Morton interleave: bit `j` of the byte moves to bit
/// `3j` of the result (22 bits used).
pub(crate) const SPREAD3: [u32; 256] = build_spread3();

const fn build_spread2() -> [u16; 256] {
    let mut table = [0u16; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u16;
        let mut j = 0;
        while j < 8 {
            v |= (((b >> j) & 1) as u16) << (2 * j);
            j += 1;
        }
        table[b] = v;
        b += 1;
    }
    table
}

const fn build_spread3() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut v = 0u32;
        let mut j = 0;
        while j < 8 {
            v |= (((b >> j) & 1) as u32) << (3 * j);
            j += 1;
        }
        table[b] = v;
        b += 1;
    }
    table
}

/// Morton word of a 2-D point: level-`L` pair `(x_L, y_L)` lands at bits
/// `(2L+1, 2L)` — dimension 0 most significant, matching the catalogue
/// interleave convention.
#[inline]
pub(crate) fn morton2(x: u64, y: u64, bits: u32) -> u128 {
    let nbytes = bits.div_ceil(8);
    let mut w = 0u128;
    let mut k = 0;
    while k < nbytes {
        let shift = 8 * k;
        let wx = SPREAD2[((x >> shift) & 0xff) as usize] as u128;
        let wy = SPREAD2[((y >> shift) & 0xff) as usize] as u128;
        w |= ((wx << 1) | wy) << (2 * shift);
        k += 1;
    }
    w
}

/// Morton word of a 3-D point: level-`L` triple lands at bits
/// `(3L+2, 3L+1, 3L)`, dimension 0 most significant.
#[inline]
pub(crate) fn morton3(x: u64, y: u64, z: u64, bits: u32) -> u128 {
    let nbytes = bits.div_ceil(8);
    let mut w = 0u128;
    let mut k = 0;
    while k < nbytes {
        let shift = 8 * k;
        let wx = SPREAD3[((x >> shift) & 0xff) as usize] as u128;
        let wy = SPREAD3[((y >> shift) & 0xff) as usize] as u128;
        let wz = SPREAD3[((z >> shift) & 0xff) as usize] as u128;
        w |= ((wx << 2) | (wy << 1) | wz) << (3 * shift);
        k += 1;
    }
    w
}

/// 2-D Hilbert digit automaton (4 states). Digit `d = (x_bit << 1) | y_bit`.
pub(crate) const H2_OUT: [[u8; 4]; 4] = [[0, 1, 3, 2], [0, 3, 1, 2], [2, 1, 3, 0], [2, 3, 1, 0]];
pub(crate) const H2_NXT: [[u8; 4]; 4] = [[1, 0, 2, 0], [0, 3, 1, 1], [2, 2, 0, 3], [3, 1, 3, 2]];

/// 3-D Hilbert digit automaton (24 states = orientation group of the cube).
/// Digit `d = (x0_bit << 2) | (x1_bit << 1) | x2_bit`.
#[rustfmt::skip]
pub(crate) const H3_OUT: [[u8; 8]; 24] = [
    [0, 1, 3, 2, 7, 6, 4, 5], [0, 7, 1, 6, 3, 4, 2, 5], [0, 1, 7, 6, 3, 2, 4, 5],
    [6, 1, 5, 2, 7, 0, 4, 3], [4, 3, 5, 2, 7, 0, 6, 1], [4, 5, 3, 2, 7, 6, 0, 1],
    [0, 7, 3, 4, 1, 6, 2, 5], [0, 3, 7, 4, 1, 2, 6, 5], [4, 7, 3, 0, 5, 6, 2, 1],
    [0, 3, 1, 2, 7, 4, 6, 5], [4, 7, 5, 6, 3, 0, 2, 1], [6, 7, 1, 0, 5, 4, 2, 3],
    [4, 3, 7, 0, 5, 2, 6, 1], [4, 5, 7, 6, 3, 2, 0, 1], [6, 1, 7, 0, 5, 2, 4, 3],
    [6, 5, 1, 2, 7, 4, 0, 3], [2, 1, 5, 6, 3, 0, 4, 7], [6, 7, 5, 4, 1, 0, 2, 3],
    [2, 3, 5, 4, 1, 0, 6, 7], [2, 5, 3, 4, 1, 6, 0, 7], [2, 5, 1, 6, 3, 4, 0, 7],
    [6, 5, 7, 4, 1, 2, 0, 3], [2, 1, 3, 0, 5, 6, 4, 7], [2, 3, 1, 0, 5, 4, 6, 7],
];
#[rustfmt::skip]
pub(crate) const H3_NXT: [[u8; 8]; 24] = [
    [1, 2, 3, 0, 4, 5, 6, 0], [7, 8, 9, 10, 11, 2, 1, 1], [6, 0, 12, 13, 14, 2, 1, 2],
    [15, 16, 3, 3, 9, 10, 17, 0], [18, 5, 4, 4, 15, 16, 9, 10], [19, 5, 4, 5, 3, 0, 20, 13],
    [9, 10, 17, 0, 7, 8, 6, 6], [0, 21, 13, 9, 6, 7, 12, 7], [22, 17, 10, 23, 8, 6, 8, 12],
    [2, 15, 1, 9, 5, 7, 4, 9], [16, 11, 10, 1, 8, 18, 10, 4], [17, 6, 23, 12, 11, 14, 11, 1],
    [23, 13, 21, 22, 12, 12, 7, 8], [20, 13, 14, 2, 12, 13, 19, 5], [21, 22, 7, 8, 14, 14, 11, 2],
    [3, 15, 20, 15, 0, 21, 13, 9], [16, 3, 16, 20, 22, 17, 10, 23], [11, 1, 17, 3, 18, 4, 17, 6],
    [18, 19, 18, 4, 17, 3, 23, 20], [19, 19, 18, 5, 21, 22, 15, 16], [20, 20, 15, 16, 23, 13, 21, 22],
    [14, 21, 2, 15, 19, 21, 5, 7], [22, 14, 16, 11, 22, 19, 8, 18], [23, 20, 11, 14, 23, 12, 18, 19],
];

/// Widened 2-D step table: one lookup advances the automaton through a whole
/// Morton byte (4 digits). Entry packs `(next_state << 8) | output_byte`.
pub(crate) static H2_STEP: [[u16; 256]; 4] = build_h2_step();

const fn build_h2_step() -> [[u16; 256]; 4] {
    let mut table = [[0u16; 256]; 4];
    let mut s = 0usize;
    while s < 4 {
        let mut b = 0usize;
        while b < 256 {
            let mut state = s;
            let mut out = 0u16;
            let mut k = 4usize;
            while k > 0 {
                k -= 1;
                let d = (b >> (2 * k)) & 3;
                out = (out << 2) | H2_OUT[state][d] as u16;
                state = H2_NXT[state][d] as usize;
            }
            table[s][b] = ((state as u16) << 8) | out;
            b += 1;
        }
        s += 1;
    }
    table
}

/// Widened 3-D step table: one lookup advances the automaton through two
/// Morton digits (6 bits). Entry packs `(next_state << 8) | output_bits`.
pub(crate) static H3_STEP: [[u16; 64]; 24] = build_h3_step();

const fn build_h3_step() -> [[u16; 64]; 24] {
    let mut table = [[0u16; 64]; 24];
    let mut s = 0usize;
    while s < 24 {
        let mut b = 0usize;
        while b < 64 {
            let mut state = s;
            let mut out = 0u16;
            let mut k = 2usize;
            while k > 0 {
                k -= 1;
                let d = (b >> (3 * k)) & 7;
                out = (out << 3) | H3_OUT[state][d] as u16;
                state = H3_NXT[state][d] as usize;
            }
            table[s][b] = ((state as u16) << 8) | out;
            b += 1;
        }
        s += 1;
    }
    table
}

/// 2-D Hilbert index of `(x, y)` on a `2^bits`-sided grid. Requires
/// `bits >= 2` (order 1 is the Gray walk, handled by the caller) and
/// coordinates already range-checked.
#[inline]
pub(crate) fn hilbert2(x: u64, y: u64, bits: u32) -> u128 {
    let w = morton2(x, y, bits);
    let mut state = 0usize;
    let mut h = 0u128;
    let mut level = bits;
    // Peel leading digits until the remaining depth is byte-aligned.
    while !level.is_multiple_of(4) {
        level -= 1;
        let d = ((w >> (2 * level)) & 3) as usize;
        h = (h << 2) | H2_OUT[state][d] as u128;
        state = H2_NXT[state][d] as usize;
    }
    while level > 0 {
        level -= 4;
        let entry = H2_STEP[state][((w >> (2 * level)) & 0xff) as usize];
        h = (h << 8) | (entry & 0xff) as u128;
        state = (entry >> 8) as usize;
    }
    h
}

/// 3-D Hilbert index of `(x, y, z)` on a `2^bits`-sided grid. Requires
/// `bits >= 2` and coordinates already range-checked.
#[inline]
pub(crate) fn hilbert3(x: u64, y: u64, z: u64, bits: u32) -> u128 {
    let w = morton3(x, y, z, bits);
    let mut state = 0usize;
    let mut h = 0u128;
    let mut level = bits;
    if !level.is_multiple_of(2) {
        level -= 1;
        let d = ((w >> (3 * level)) & 7) as usize;
        h = (h << 3) | H3_OUT[state][d] as u128;
        state = H3_NXT[state][d] as usize;
    }
    while level > 0 {
        level -= 2;
        let entry = H3_STEP[state][((w >> (3 * level)) & 0x3f) as usize];
        h = (h << 6) | (entry & 0x3f) as u128;
        state = (entry >> 8) as usize;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spread_tables_interleave_bytes() {
        assert_eq!(SPREAD2[0b1011], 0b1000101);
        assert_eq!(SPREAD3[0b101], 0b1000001);
        assert_eq!(morton2(0b10, 0b01, 2), 0b1001);
        assert_eq!(morton3(1, 0, 1, 1), 0b101);
    }

    #[test]
    fn widened_tables_agree_with_single_digit_stepping() {
        for (s, row) in H2_STEP.iter().enumerate() {
            for (b, &packed) in row.iter().enumerate() {
                let mut state = s;
                let mut out = 0u16;
                for k in (0..4).rev() {
                    let d = (b >> (2 * k)) & 3;
                    out = (out << 2) | H2_OUT[state][d] as u16;
                    state = H2_NXT[state][d] as usize;
                }
                assert_eq!(packed, ((state as u16) << 8) | out);
            }
        }
        for (s, row) in H3_STEP.iter().enumerate() {
            for (b, &packed) in row.iter().enumerate() {
                let mut state = s;
                let mut out = 0u16;
                for k in (0..2).rev() {
                    let d = (b >> (3 * k)) & 7;
                    out = (out << 3) | H3_OUT[state][d] as u16;
                    state = H3_NXT[state][d] as usize;
                }
                assert_eq!(packed, ((state as u16) << 8) | out);
            }
        }
    }

    #[test]
    fn kernels_trace_unit_step_bijections() {
        // Any Hilbert curve is a bijective walk taking unit steps; the
        // bit-identity with the generic Skilling path is pinned in
        // `hilbert.rs` and `tests/props.rs`.
        for bits in 2..=4u32 {
            let side = 1u64 << bits;
            let mut cells = vec![None; (side * side) as usize];
            for x in 0..side {
                for y in 0..side {
                    let h = hilbert2(x, y, bits) as usize;
                    assert!(cells[h].is_none(), "collision at index {h}");
                    cells[h] = Some((x, y));
                }
            }
            for pair in cells.windows(2) {
                let (ax, ay) = pair[0].unwrap();
                let (bx, by) = pair[1].unwrap();
                assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1);
            }
        }
        let side = 1u64 << 2;
        let mut cells = vec![None; (side * side * side) as usize];
        for x in 0..side {
            for y in 0..side {
                for z in 0..side {
                    let h = hilbert3(x, y, z, 2) as usize;
                    assert!(cells[h].is_none(), "collision at index {h}");
                    cells[h] = Some((x, y, z));
                }
            }
        }
        for pair in cells.windows(2) {
            let (ax, ay, az) = pair[0].unwrap();
            let (bx, by, bz) = pair[1].unwrap();
            assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by) + az.abs_diff(bz), 1);
        }
    }
}
