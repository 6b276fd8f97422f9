//! Pinned expected outputs: at these seeds the journal of every full-grid
//! row must have exactly this FNV-1a 64 digest and pass count, whatever
//! the code computes. At other seeds only the computed expectation applies.

use crate::grid::Grid;

/// `(seed, [(journal digest, passed records)])`, rows in
/// `ModelId::all_evaluated()` order. Seed 42 is the CLI's fixed seed: the
/// CodeGen-16B (FT) entry is the journal `vgen eval --full --model
/// CodeGen-16B` writes.
const PINS: &[(u64, [(u64, usize); 11])] = &[
    (
        42,
        [
            (0x1846_bba2_05c5_941b, 0),
            (0xd64e_a467_80ee_e8f1, 152),
            (0x1886_15ee_ce0f_ca32, 6),
            (0xc0f7_5b0d_004f_3200, 313),
            (0x7bc4_7967_6104_9bf7, 1),
            (0xe6f3_0937_7f34_9dd8, 425),
            (0x6c48_8234_56e7_2dee, 21),
            (0xff3c_6ebc_8474_e20c, 190),
            (0x8abb_1cba_d4f3_34ab, 34),
            (0xfa9f_8497_4735_19e3, 548),
            (0xf844_532a_6c67_4aa5, 422),
        ],
    ),
    (
        7,
        [
            (0xe874_178f_bd2b_f384, 0),
            (0xad12_644f_c834_60ac, 133),
            (0xf99f_7d40_cacc_ef65, 5),
            (0x9bd6_d1a0_245d_abc8, 321),
            (0xf2fa_b0bb_6df7_8f63, 1),
            (0xa53d_ab5e_525a_9ff1, 423),
            (0x4f0b_9740_9b06_8d3e, 22),
            (0x11fa_6c3b_253a_27a7, 195),
            (0x5ba7_4111_bc0f_9a1f, 34),
            (0x59c7_f798_cf25_c79f, 507),
            (0x2686_b665_6160_841f, 408),
        ],
    ),
];

/// Rows of `grid` whose expected journal disagrees with the pins for its
/// seed; 0 when the seed is not pinned.
pub fn mismatches(grid: &Grid) -> usize {
    let Some((_, pins)) = PINS.iter().find(|(seed, _)| *seed == grid.seed) else {
        return 0;
    };
    grid.rows
        .iter()
        .zip(pins)
        .filter(|(row, &(digest, passed))| row.digest != digest || row.passed != passed)
        .count()
}
