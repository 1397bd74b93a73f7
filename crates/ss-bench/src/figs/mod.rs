//! One module per paper experiment. Each exposes
//! `run(out: &mut impl io::Write) -> io::Result<()>` printing the
//! figure/table's rows, and [`EXPERIMENTS`] lists every one for the
//! `all_experiments` binary.

use std::io;

pub mod ablation_composer;
pub mod ablation_group_size;
pub mod ablation_metadata;
pub mod ablation_tile_validation;
pub mod ext_delta;
pub mod ext_energy;
pub mod ext_onchip;
pub mod ext_schemes_quant;
pub mod ext_tartan;
pub mod fig01_act_cdf;
pub mod fig02_wgt_cdf;
pub mod fig03_quant_cdf;
pub mod fig04_avg_width;
pub mod fig08a_traffic;
pub mod fig08b_traffic_noprofile;
pub mod fig09_bitfusion;
pub mod fig09_dadiannao;
pub mod fig10_scnn;
pub mod fig11_fusion;
pub mod fig12_sstripes;
pub mod fig13_breakdown;
pub mod fig14_vs_bitfusion;
pub mod fig15_buffers;
pub mod fig16_outlier;
pub mod sec53_loom;
pub mod table1_effective_widths;

/// An experiment's `run`, writing its rows into a buffer.
pub type Run = fn(&mut Vec<u8>) -> io::Result<()>;

/// Every experiment as `(title, slug, run)`: the paper's figures and
/// tables in order, then §5.3, the ablations and the extensions. The
/// slug is the module's name; it selects the experiment on the
/// `all_experiments` command line and names its `SS_OUT_DIR` file and
/// its trace span.
pub const EXPERIMENTS: &[(&str, &str, Run)] = &[
    ("Figure 1", "fig01_act_cdf", fig01_act_cdf::run),
    ("Figure 2", "fig02_wgt_cdf", fig02_wgt_cdf::run),
    ("Figure 3", "fig03_quant_cdf", fig03_quant_cdf::run),
    ("Figure 4", "fig04_avg_width", fig04_avg_width::run),
    (
        "Table 1",
        "table1_effective_widths",
        table1_effective_widths::run,
    ),
    ("Figure 8a", "fig08a_traffic", fig08a_traffic::run),
    (
        "Figure 8b",
        "fig08b_traffic_noprofile",
        fig08b_traffic_noprofile::run,
    ),
    ("Figure 9a/9b", "fig09_dadiannao", fig09_dadiannao::run),
    ("Figure 9c/9d", "fig09_bitfusion", fig09_bitfusion::run),
    ("Figure 10", "fig10_scnn", fig10_scnn::run),
    ("Figure 11", "fig11_fusion", fig11_fusion::run),
    ("Figure 12", "fig12_sstripes", fig12_sstripes::run),
    ("Figure 13", "fig13_breakdown", fig13_breakdown::run),
    ("Figure 14", "fig14_vs_bitfusion", fig14_vs_bitfusion::run),
    ("Figure 15", "fig15_buffers", fig15_buffers::run),
    ("Figure 16", "fig16_outlier", fig16_outlier::run),
    ("Section 5.3", "sec53_loom", sec53_loom::run),
    (
        "Ablation: group size",
        "ablation_group_size",
        ablation_group_size::run,
    ),
    (
        "Ablation: composer",
        "ablation_composer",
        ablation_composer::run,
    ),
    (
        "Ablation: zero vector",
        "ablation_metadata",
        ablation_metadata::run,
    ),
    (
        "Ablation: tile validation",
        "ablation_tile_validation",
        ablation_tile_validation::run,
    ),
    ("Extension: Tartan", "ext_tartan", ext_tartan::run),
    ("Extension: Delta", "ext_delta", ext_delta::run),
    (
        "Extension: Schemes x quantizers",
        "ext_schemes_quant",
        ext_schemes_quant::run,
    ),
    ("Extension: On-chip buffers", "ext_onchip", ext_onchip::run),
    ("Extension: Energy breakdown", "ext_energy", ext_energy::run),
];
