//! Property battery for the FEC layer: the GF(256) field axioms, the
//! Reed–Solomon coder's erasure guarantee, and decode *totality*
//! (arbitrary corruption never panics and never silently returns
//! garbage).
//!
//! All properties run on the deterministic [`bs_dsp::testkit::check`]
//! driver, so a failing case index reproduces exactly on any machine.

use bs_dsp::codes::gf256;
use bs_dsp::testkit::check;
use bs_net::fec::{FecError, ReedSolomon};

/// A random (n, k) code small enough to exercise every shape: parity
/// from 2 to 32, data from 1 to filling out n ≤ 255.
fn random_code(g: &mut bs_dsp::testkit::Gen) -> ReedSolomon {
    let parity = g.usize_in(2, 33);
    let k = g.usize_in(1, 223);
    ReedSolomon::new(k + parity, k)
}

/// Distinct positions in `[0, n)`, at most `max` of them.
fn distinct_positions(g: &mut bs_dsp::testkit::Gen, n: usize, max: usize) -> Vec<usize> {
    let want = g.usize_in(0, max + 1);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < want {
        let p = g.usize_in(0, n);
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked
}

#[test]
fn gf256_field_axioms_hold() {
    check("gf256-axioms", 512, |g| {
        let (a, b, c) = (g.u8(), g.u8(), g.u8());
        // Additive group: XOR, self-inverse, identity 0.
        assert_eq!(gf256::add(a, b), gf256::add(b, a));
        assert_eq!(gf256::add(a, a), 0);
        assert_eq!(gf256::add(a, 0), a);
        // Multiplicative: commutative, associative, identity 1,
        // annihilator 0.
        assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        assert_eq!(
            gf256::mul(a, gf256::mul(b, c)),
            gf256::mul(gf256::mul(a, b), c)
        );
        assert_eq!(gf256::mul(a, 1), a);
        assert_eq!(gf256::mul(a, 0), 0);
        // Distributivity ties the two together.
        assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        // Every non-zero element has a working inverse.
        if a != 0 {
            assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            assert_eq!(gf256::div(gf256::mul(a, b), a), b);
        }
    });
}

#[test]
fn rs_roundtrips_under_random_erasures_to_full_parity() {
    check("rs-erasure-roundtrip", 256, |g| {
        let rs = random_code(g);
        let data = g.vec_u8(rs.k(), rs.k() + 1);
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        // Up to n−k erasures: position known, value garbage.
        let positions = distinct_positions(g, rs.n(), rs.parity_len());
        for &p in &positions {
            cw[p] = g.u8();
        }
        let fixed = rs
            .decode(&mut cw, &positions)
            .unwrap_or_else(|e| panic!("case {}: decode failed: {e}", g.case()));
        assert!(fixed <= positions.len(), "case {}", g.case());
        assert_eq!(cw, clean, "case {}", g.case());
    });
}

#[test]
fn rs_decode_is_total_on_arbitrary_corruption() {
    check("rs-totality", 256, |g| {
        let rs = random_code(g);
        let data = g.vec_u8(rs.k(), rs.k() + 1);
        let clean = rs.encode(&data);
        let mut cw = clean.clone();
        // Up to n−k erasures, then arbitrary corruption of the held
        // symbols — often far beyond what the erasures explain. Decode
        // must never panic; when it claims success the result must be a
        // true codeword, and when it errs the input must be left
        // exactly as handed in.
        let erasures = distinct_positions(g, rs.n(), rs.parity_len());
        for &p in &erasures {
            cw[p] = g.u8();
        }
        for p in distinct_positions(g, rs.n(), rs.n().min(3 * rs.parity_len())) {
            if !erasures.contains(&p) {
                cw[p] = g.u8();
            }
        }
        let wrong = (0..rs.n())
            .filter(|p| !erasures.contains(p) && cw[*p] != clean[*p])
            .count();
        // Two codewords differ in more than n−k symbols, so within that
        // many erased-or-wrong symbols the outcome is decided.
        let decided = erasures.len() + wrong <= rs.parity_len();
        let before = cw.clone();
        match rs.decode(&mut cw, &erasures) {
            Ok(_) => {
                let recoded = rs.encode(&cw[..rs.k()]);
                assert_eq!(
                    recoded,
                    cw,
                    "case {}: decoder accepted a non-codeword",
                    g.case()
                );
                if decided {
                    assert_eq!(cw, clean, "case {}: wrong codeword", g.case());
                }
            }
            Err(FecError::BeyondCapacity) => {
                assert_eq!(cw, before, "case {}: failed decode mutated input", g.case());
                assert!(wrong > 0, "case {}: refused a decodable word", g.case());
            }
            Err(e) => panic!("case {}: unexpected error {e}", g.case()),
        }
    });
}

#[test]
fn rs_rejects_malformed_inputs_without_panicking() {
    check("rs-bad-inputs", 64, |g| {
        let rs = random_code(g);
        // Wrong-length codeword.
        let mut short = vec![0u8; rs.n() - 1];
        assert_eq!(rs.decode(&mut short, &[]), Err(FecError::WrongLength));
        // Erasure position off the end.
        let mut cw = rs.encode(&vec![0u8; rs.k()]);
        assert_eq!(
            rs.decode(&mut cw, &[rs.n()]),
            Err(FecError::ErasureOutOfRange)
        );
        // More erasures than parity can carry.
        let too_many: Vec<usize> = (0..=rs.parity_len()).collect();
        if too_many.len() <= rs.n() {
            assert_eq!(
                rs.decode(&mut cw, &too_many),
                Err(FecError::TooManyErasures)
            );
        }
        let _ = g.u8();
    });
}
