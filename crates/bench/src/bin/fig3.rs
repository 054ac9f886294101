//! Fig. 3 — impact of the decomposition basis (OB vs HB) on GE-small.
//!
//! For each of the four GE fields, sweep the progressive primary-data
//! bounds and print, per request: the requested tolerance, the estimator's
//! guaranteed bound, and the measured real error — for PMGARD (orthogonal
//! basis, OB) and PMGARD-HB (hierarchical basis, HB). The OB rows show the
//! estimated≫real over-retrieval gap; the HB rows track closely.

use pqr_bench::{ge_small_dataset, primary_bound_series, print_header};
use pqr_progressive::refactored::{RefactoredField, Scheme};
use pqr_util::stats;

fn main() {
    let ds = ge_small_dataset();
    let fields = ["VelocityX", "VelocityZ", "Pressure", "Density"];
    println!("# Fig. 3 — requested vs estimated vs real error, OB vs HB");
    print_header(&[
        "field", "basis", "req_rel", "bitrate", "est_rel", "real_rel",
    ]);

    for field_name in fields {
        let fi = ds.field_index(field_name).expect("field");
        let data = ds.field(fi);
        let n = data.len();
        let range = stats::value_range(data);
        for (scheme, tag) in [(Scheme::PmgardOb, "OB"), (Scheme::PmgardHb, "HB")] {
            let field = RefactoredField::refactor(scheme, data, &[n]).expect("refactor");
            let mut reader = field.reader();
            for &rel in &primary_bound_series() {
                reader.refine_to(rel * range).expect("refine");
                let est = reader.guaranteed_bound() / range;
                let real = stats::max_abs_diff(data, reader.data()) / range;
                println!(
                    "{field_name}\t{tag}\t{:.6e}\t{:.4}\t{:.6e}\t{:.6e}",
                    rel,
                    stats::bitrate(reader.total_fetched(), n),
                    est,
                    real
                );
            }
        }
    }
}
