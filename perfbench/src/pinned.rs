//! Output digests of the default seed (`report::DEFAULT_SEED`), one per
//! entry of each schedule's first block. A change that alters any of
//! them changes what the simulator computes, not only how fast.

/// Per exchange of the first block: decoded bits, BER, detection,
/// packets used, airtime.
pub const UPLINK: &[u64] = &[
    0x88f5_77e0_2e43_6b82,
    0x8ce5_77ab_e89a_8648,
    0xc73e_63be_ec90_57ad,
    0xca3a_62de_73f8_60d2,
    0xd2ed_b005_7f15_cb6e,
    0x6e32_e4d5_dc80_1b11,
    0x222f_7417_b4e5_8d15,
    0xb745_7dcf_195f_6f8e,
    0x73e4_87b2_9030_9585,
    0x133e_c1de_a7d3_dcb1,
    0xf372_d905_726a_2f6a,
    0xd99d_41cc_8f12_3f78,
    0x71fb_b1b5_03c0_dacd,
    0xa785_c928_0923_8663,
    0x400a_9ec4_816d_d530,
    0x286c_70aa_f813_9e01,
    0x1ae5_a8e4_073b_9a2d,
    0x16f6_b3c8_99ee_70ec,
    0xd80d_48ee_cec1_ac00,
    0x712b_41d7_bdf9_0af9,
];

/// Per session of the first block: the payload and attempt counts, or
/// the error.
pub const QUERY: &[u64] = &[
    0x3350_33b7_be28_f6f0,
    0xc781_8760_14d0_48f8,
    0x5e12_7d75_9cce_8956,
    0x3c04_a64f_6f6f_c2ff,
    0xa773_f2fe_b525_9c87,
    0x2d40_3e13_31d5_510f,
];

/// `FleetRun::digest` of the 10⁵-tag point.
pub const FLEET: &[u64] = &[0x5da0_7183_6280_a401];
