//! Fig. 5 — the PFE600-12-054xA efficiency curve and the 80 Plus set
//! points.
//!
//! The curve anchors every PSU what-if in §9; the figure shows it passing
//! the Platinum set points (the Wedge's PSU is Platinum-rated) but not
//! Titanium's 10 % requirement.

use fj_bench::{banner, table::TablePrinter};
use fj_psu::{pfe600, EightyPlus};

fn main() {
    let _run = banner("Fig. 5", "PFE600 efficiency curve + 80 Plus set points");

    let curve = pfe600();
    println!("\nPFE600-12-054xA efficiency vs load:");
    let t = TablePrinter::new(&[10, 14]);
    t.header(&["load %", "efficiency %"]);
    for &(load, eff) in curve.points() {
        t.row(&[
            format!("{:.0}", load * 100.0),
            format!("{:.1}", eff * 100.0),
        ]);
    }

    println!("\n80 Plus set points (minimum efficiency % at load %):");
    let t = TablePrinter::new(&[10, 8, 8, 8, 8]);
    t.header(&["level", "10 %", "20 %", "50 %", "100 %"]);
    for level in EightyPlus::ALL {
        let at = |load: f64| {
            level
                .set_points()
                .iter()
                .find(|(l, _)| (*l - load).abs() < 1e-9)
                .map_or_else(|| "—".to_owned(), |(_, e)| format!("{:.0}", e * 100.0))
        };
        t.row(&[level.to_string(), at(0.10), at(0.20), at(0.50), at(1.00)]);
    }

    println!("\ncertification of the PFE600 itself:");
    for level in EightyPlus::ALL {
        println!(
            "  {level:<9} {}",
            if level.certifies(curve) {
                "pass"
            } else {
                "fail"
            }
        );
    }
    println!(
        "\nshape: {}",
        if EightyPlus::Platinum.certifies(curve) && !EightyPlus::Titanium.certifies(curve) {
            "ok — Platinum-rated, short of Titanium (as in the figure)"
        } else {
            "drift"
        }
    );
}
