//! Table 1 — the disk model and its calibration.
//!
//! The modeled drive parameters next to the paper's values, with the
//! measured seek calibration (average over random pairs, full stroke) —
//! the evidence that the reconstructed seek-cost function and zone
//! layout match the table's anchors.

use diskmodel::{DiskGeometry, Raid5, SeekModel};

/// A single parameter comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Parameter name as in Table 1.
    pub parameter: &'static str,
    /// The paper's value.
    pub paper: String,
    /// The model's value.
    pub model: String,
}

/// Produce the Table-1 comparison.
pub fn run() -> Vec<Row> {
    let g = DiskGeometry::table1();
    let s = SeekModel::table1();
    let raid = Raid5::table1();
    vec![
        Row {
            parameter: "No. of cylinders",
            paper: "3832".into(),
            model: g.cylinders().to_string(),
        },
        Row {
            parameter: "No. of zones",
            paper: "16".into(),
            model: g.zones().to_string(),
        },
        Row {
            parameter: "Sector size",
            paper: "512".into(),
            model: g.sector_bytes().to_string(),
        },
        Row {
            parameter: "Rotation speed",
            paper: "7200 RPM".into(),
            model: format!("{} RPM", g.rpm()),
        },
        Row {
            parameter: "Average seek",
            paper: "8.5 ms".into(),
            model: format!("{:.2} ms", s.average_random_ms(g.cylinders())),
        },
        Row {
            parameter: "Max seek",
            paper: "18 ms".into(),
            model: format!("{:.2} ms", s.max_ms(g.cylinders())),
        },
        Row {
            parameter: "Disk size",
            paper: "2.1 GB".into(),
            model: format!("{:.2} GB", g.capacity_bytes() as f64 / 1e9),
        },
        Row {
            parameter: "File block size",
            paper: "64 KB".into(),
            model: "64 KB".into(),
        },
        Row {
            parameter: "Transfer speed",
            paper: "(OCR-dropped) MB/s".into(),
            model: format!(
                "{:.1}-{:.1} MB/s (zoned)",
                g.transfer_rate(g.cylinders() - 1) / 1e6,
                g.transfer_rate(0) / 1e6
            ),
        },
        Row {
            parameter: "Disks / RAID",
            paper: "5 (4 data 1 parity)".into(),
            model: format!(
                "{} ({} data 1 parity)",
                raid.members(),
                raid.data_per_stripe()
            ),
        },
    ]
}

/// Render the comparison as `results/table1.csv` holds it.
pub fn csv(rows: &[Row]) -> String {
    let mut out = String::from("parameter,paper,model\n");
    for r in rows {
        out.push_str(&format!("{},{},{}\n", r.parameter, r.paper, r.model));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_numeric_row_matches_the_paper() {
        for r in run() {
            match r.parameter {
                "No. of cylinders" | "No. of zones" | "Sector size" => {
                    assert_eq!(r.paper, r.model)
                }
                "Average seek" => assert!(r.model.starts_with("8.")),
                "Max seek" => assert!(r.model.starts_with("17.") || r.model.starts_with("18.")),
                "Disk size" => assert!(r.model.starts_with("2.0") || r.model.starts_with("2.1")),
                _ => {}
            }
        }
    }
}
