//! The long-range coded uplink (§3.4, Fig. 20).
//!
//! Past ~65 cm the plain per-bit decoder falls apart: the backscatter
//! differential drowns in measurement noise (Fig. 6). The fix costs the
//! tag nothing — it expands each bit into an L-chip orthogonal code (still
//! just toggling its switch), and the *reader* does the heavy lifting by
//! correlating over the whole code. This example decodes the same message
//! at increasing distances, showing the plain decoder dying and longer
//! codes taking over.
//!
//! Run with: `cargo run --release --example long_range`

use wifi_backscatter::prelude::*;

fn main() {
    println!("=== long-range uplink: orthogonal codes vs distance ===\n");
    let payload: Vec<bool> = (0..16).map(|i| (i * 5) % 3 == 0).collect();

    println!("distance   plain(L=1)   L=10        L=40");
    for d_cm in [50u32, 100, 150, 200] {
        let mut row = format!("{:>5} cm ", d_cm);
        for l in [1usize, 10, 40] {
            let mut errors = 0u64;
            let mut bits = 0u64;
            for seed in 0..3u64 {
                let cfg = LinkConfig::fig10(d_cm as f64 / 100.0, 100, 10, 7000 + seed)
                    .with_payload(payload.clone())
                    .with_code_length(l);
                let run = run_uplink(&cfg);
                errors += run.ber.errors();
                bits += run.ber.bits();
            }
            let ber = errors as f64 / bits as f64;
            row.push_str(&format!(
                "  {:>9}",
                if ber == 0.0 {
                    "clean".to_string()
                } else {
                    format!("{ber:.0e}")
                }
            ));
        }
        println!("{row}");
    }

    println!(
        "\nthe tag's power draw is identical in every column — correlation \
         gain is purchased entirely at the (mains-powered) reader, which is \
         the point of §3.4"
    );
}
