//! Reproduce Figure 6: MODIS vegetation-index join duration per workload
//! cycle (unskewed data), for every partitioner.

use bench_harness::experiments::{fig6_series, series_table};
use bench_harness::table::out_dir;

fn main() {
    let t = series_table(&fig6_series());
    println!("Figure 6: join duration (minutes) per cycle, unskewed MODIS data.\n");
    print!("{}", t.render());
    if let Some(path) = t.write_csv(&out_dir(), "fig6") {
        println!("\ncsv: {}", path.display());
    }
}
