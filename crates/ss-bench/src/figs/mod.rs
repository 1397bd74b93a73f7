//! One module per paper experiment. Each exposes
//! `run(out: &mut impl io::Write) -> io::Result<()>` printing the
//! figure/table's rows; binaries in `src/bin/` are thin wrappers and the
//! `all_experiments` binary chains every one.

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
