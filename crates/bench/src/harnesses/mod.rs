//! Reproduction harnesses — one module per paper table, figure,
//! ablation and extension, each with a `run()` entry point. The `repro`
//! binary dispatches over [`ALL`] by name, so the full reproduction
//! runs in-process (one `SpaceCache`, one process, no per-figure
//! subprocess spawn).

pub mod ablation_classifier;
pub mod ablation_locality;
pub mod ablation_ordering;
pub mod ablation_seeds;
pub mod ablation_tld;
pub mod dataset_collection;
pub mod extensions;
pub mod fault_sensitivity;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod graph_stats;
pub mod parallelism_sweep;
pub mod table1;
pub mod table3;
pub mod timing_ext;
pub mod wider_languages;

/// All harnesses in dashboard order: `(name, entry point)` — tables
/// first, then figures, then ablations and extensions.
pub const ALL: &[(&str, fn())] = &[
    ("table1", table1::run),
    ("table3", table3::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("graph_stats", graph_stats::run),
    ("ablation_locality", ablation_locality::run),
    ("ablation_classifier", ablation_classifier::run),
    ("ablation_seeds", ablation_seeds::run),
    ("ablation_ordering", ablation_ordering::run),
    ("ablation_tld", ablation_tld::run),
    ("dataset_collection", dataset_collection::run),
    ("fault_sensitivity", fault_sensitivity::run),
    ("parallelism_sweep", parallelism_sweep::run),
    ("timing_ext", timing_ext::run),
    ("extensions", extensions::run),
    ("wider_languages", wider_languages::run),
];
