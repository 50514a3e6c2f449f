//! The feature matrices of the paper — Tables 1–4 — as data plus text
//! renderers. `sph-bench tables` regenerates each table from here,
//! and the tests cross-check the rows against the actual [`crate::CodeSetup`]
//! configurations so the printed tables can never drift from the code.

/// A rendered feature table: header row + body rows.
#[derive(Debug, Clone)]
pub struct FeatureTable {
    pub(crate) title: &'static str,
    pub(crate) columns: Vec<&'static str>,
    pub(crate) rows: Vec<Vec<&'static str>>,
}

/// Table 1: "Differences and similarities between SPH-flow, SPHYNX, and
/// ChaNGa" (scientific features).
pub fn table1() -> FeatureTable {
    FeatureTable {
        title: "Table 1: Differences and similarities between SPH-flow, SPHYNX, and ChaNGa",
        columns: vec![
            "SPH Code",
            "Version",
            "Kernel",
            "Gradients Calculation",
            "Volume Elements",
            "Mass of Particles",
            "Time-Stepping",
            "Neighbour Discovery",
            "Self-Gravity",
        ],
        rows: vec![
            vec![
                "SPHYNX",
                "1.3.1",
                "Sinc",
                "IAD",
                "Generalized",
                "Equal or Variable",
                "Global",
                "Tree Walk",
                "Multipoles (4-pole)",
            ],
            vec![
                "ChaNGa",
                "3.3",
                "Wendland, M4 spline",
                "Kernel derivatives",
                "Standard",
                "Equal or Variable",
                "Individual",
                "Tree Walk",
                "Multipoles (16-pole)",
            ],
            vec![
                "SPH-flow",
                "17.6",
                "Wendland",
                "Kernel derivatives",
                "Standard",
                "Equal or Adaptive",
                "Global",
                "Tree Walk",
                "No",
            ],
        ],
    }
}

/// Table 2: scientific characteristics of the future SPH-EXA mini-app.
pub fn table2() -> FeatureTable {
    FeatureTable {
        title: "Table 2: Outlook on the scientific characteristics of the future SPH-EXA mini-app",
        columns: vec![
            "",
            "Kernel",
            "Gradients Calculation",
            "Volume Elements",
            "Mass of Particles",
            "Time-Stepping",
            "Neighbour Discovery",
            "Self-Gravity",
        ],
        rows: vec![vec![
            "mini-app",
            "Sinc, M4 spline, Wendland",
            "IAD, Kernel derivatives",
            "Generalized, Standard",
            "Equal, Variable, and Adaptive",
            "Global, Individual",
            "Tree Walk",
            "Multipoles (16-pole)",
        ]],
    }
}

/// Table 3: computer-science aspects of the parent codes.
pub fn table3() -> FeatureTable {
    FeatureTable {
        title: "Table 3: Different and similar computer science-related aspects between SPH-flow, SPHYNX and ChaNGa",
        columns: vec![
            "SPH Code",
            "Domain Decomposition",
            "Load Balancing",
            "Checkpoint-Restart",
            "Precision",
            "Language",
            "Parallelization",
            "#LOC",
        ],
        rows: vec![
            vec![
                "SPHYNX",
                "Straightforward",
                "None (static)",
                "Yes",
                "64-bit",
                "Fortran 90",
                "MPI+OpenMP",
                "25,000",
            ],
            vec![
                "ChaNGa",
                "Space Filling Curve",
                "Dynamic",
                "Yes",
                "64-bit",
                "C++",
                "MPI+OpenMP+CUDA",
                "110,000",
            ],
            vec![
                "SPH-flow",
                "Orthogonal Recursive Bisection",
                "Local-Inner-Outer",
                "Yes",
                "64-bit",
                "Fortran 90",
                "MPI",
                "37,000",
            ],
        ],
    }
}

/// Table 4: computer-science features of the future SPH-EXA mini-app.
pub fn table4() -> FeatureTable {
    FeatureTable {
        title: "Table 4: Outlook on the computer science features of the future SPH-EXA mini-app",
        columns: vec![
            "",
            "Domain Decomposition",
            "Parallelization",
            "Load Balancing",
            "Checkpoint-Restart",
            "Error Detection",
            "Precision",
            "Language",
        ],
        rows: vec![vec![
            "mini-app",
            "Orthogonal Recursive Bisection, Space Filling Curves",
            "X+Y+Z; X={MPI} Y={OpenMP, HPX} Z={OpenACC, CUDA}",
            "DLB with self-scheduling per X, Y, Z level",
            "Optimal interval, Multilevel",
            "Silent data corruption detectors",
            "64-bit",
            "C++",
        ]],
    }
}

/// Render a table as aligned plain text.
pub fn render_table(t: &FeatureTable) -> String {
    let ncol = t.columns.len();
    let mut widths: Vec<usize> = t.columns.iter().map(|c| c.len()).collect();
    for row in &t.rows {
        for (k, cell) in row.iter().enumerate() {
            widths[k] = widths[k].max(cell.len());
        }
    }
    let mut out = format!("{}\n", t.title);
    let render_row = |cells: &[&str], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (k, &width) in widths.iter().enumerate().take(ncol) {
            let cell = cells.get(k).copied().unwrap_or("");
            line.push_str(&format!("{cell:width$} | "));
        }
        line.trim_end().to_string()
    };
    out.push_str(&render_row(&t.columns, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 3 * ncol + 1;
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in &t.rows {
        out.push_str(&render_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups::{changa, sphflow, sphynx};
    use crate::step_model::LoadBalancing;
    use sph_core::config::{GradientScheme, TimeStepping};
    use sph_domain::Partitioner;

    #[test]
    fn tables_have_expected_shapes() {
        assert_eq!(table1().rows.len(), 3);
        assert_eq!(table2().rows.len(), 1);
        assert_eq!(table3().rows.len(), 3);
        assert_eq!(table4().rows.len(), 1);
        for t in [table1(), table2(), table3(), table4()] {
            for row in &t.rows {
                assert_eq!(row.len(), t.columns.len(), "{}", t.title);
            }
        }
    }

    #[test]
    fn table1_is_consistent_with_the_setups() {
        // The printed table must agree with what the code actually runs.
        let t = table1();
        let sphynx_row = &t.rows[0];
        assert_eq!(sphynx_row[3], "IAD");
        assert_eq!(sphynx().code.sph.gradients, GradientScheme::Iad);
        let changa_row = &t.rows[1];
        assert_eq!(changa_row[6], "Individual");
        assert!(matches!(changa().code.sph.time_stepping, TimeStepping::Individual { .. }));
        let sphflow_row = &t.rows[2];
        assert_eq!(sphflow_row[8], "No");
        assert!(sphflow().code.gravity.is_none());
    }

    #[test]
    fn table3_is_consistent_with_the_setups() {
        let t = table3();
        assert_eq!(t.rows[0][2], "None (static)");
        assert_eq!(sphynx().balancing, LoadBalancing::Static);
        assert_eq!(t.rows[1][1], "Space Filling Curve");
        assert!(matches!(changa().partitioner, Partitioner::Sfc(_)));
        assert_eq!(t.rows[2][1], "Orthogonal Recursive Bisection");
        assert_eq!(sphflow().partitioner, Partitioner::Orb);
    }

    #[test]
    fn render_aligns_columns() {
        let s = render_table(&table1());
        let lines: Vec<&str> = s.lines().collect();
        // Title + header + rule + 3 rows.
        assert_eq!(lines.len(), 6);
        // All data lines share the pipe positions of the header.
        let pipe_positions = |l: &str| -> Vec<usize> {
            l.char_indices().filter(|(_, c)| *c == '|').map(|(i, _)| i).collect()
        };
        let header_pipes = pipe_positions(lines[1]);
        for l in &lines[3..] {
            assert_eq!(pipe_positions(l), header_pipes, "misaligned: {l}");
        }
    }

    #[test]
    fn tables_mention_all_three_codes() {
        let s = render_table(&table1());
        for code in ["SPHYNX", "ChaNGa", "SPH-flow"] {
            assert!(s.contains(code));
        }
    }
}
