//! Reproduce Table 3: analytical cost-model estimates vs measured
//! node-hours for MODIS controller set points p = 1, 3, 6.

use bench_harness::experiments::table3_data;
use bench_harness::table::{out_dir, TextTable};

fn main() {
    // Cycles 4..13 (1-based), straddling the second expansion wave the
    // way the paper's window straddles its first.
    let (rows, best) = table3_data((3, 12));
    let mut t = TextTable::new(&["", "Cost Estimate (nh)", "Measured Cost (nh)"]);
    for r in &rows {
        t.row(vec![
            format!("p = {}", r.plan_ahead),
            format!("{:.1}", r.estimated),
            format!("{:.1}", r.measured),
        ]);
    }
    println!("Table 3: analytical cost modeling of MODIS controller set points.\n");
    print!("{}", t.render());
    println!("\ntuner pick: p = {best} (paper: 3)");
    if let Some(path) = t.write_csv(&out_dir(), "table3") {
        println!("csv: {}", path.display());
    }
}
