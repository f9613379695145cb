//! One module per table/figure of the paper, each exposing `run()`
//! returning an [`ocs_metrics::Report`] with paper-vs-measured claims.

pub mod ablations;
pub mod aggregate_baseline;
pub mod baseline_gap;
pub mod daemon_scale;
pub mod daemon_soak;
pub mod fairshare_gap;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod fig_hybrid;
pub mod fig_kcore;
pub mod ordering;
pub mod table3;
pub mod table4;
