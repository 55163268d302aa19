//! # bbgnn — Black-box Adversarial Attack and Defense on Graph Neural Networks
//!
//! A from-scratch Rust reproduction of *Black-box Adversarial Attack and
//! Defense on Graph Neural Networks* (Li, Di, Li, Chen, Cao — ICDE 2022):
//! the **PEEGA** black-box attacker, the **GNAT** graph-augmentation
//! defender, every attacker/defender baseline of the paper's evaluation,
//! and the substrates they need (dense/sparse linear algebra, reverse-mode
//! autodiff, GNN training, calibrated synthetic datasets).
//!
//! ## Quickstart
//!
//! ```
//! use bbgnn::prelude::*;
//!
//! // A Cora-calibrated synthetic citation graph (10% of full size).
//! let graph = DatasetSpec::CoraLike.generate(0.1, 42);
//!
//! // Black-box attack: PEEGA reads only A and X.
//! let mut attacker = Peega::new(PeegaConfig { rate: 0.1, ..Default::default() });
//! let poisoned = attacker.attack(&graph).poisoned;
//!
//! // Victim: the paper's 2-layer GCN.
//! let mut gcn = Gcn::paper_default(TrainConfig::fast_test());
//! gcn.fit(&poisoned);
//! let attacked_acc = gcn.test_accuracy(&poisoned);
//!
//! // Defense: GNAT's three augmented views.
//! let mut gnat = Gnat::new(GnatConfig { train: TrainConfig::fast_test(), ..Default::default() });
//! gnat.fit(&poisoned);
//! let defended_acc = gnat.test_accuracy(&poisoned);
//! assert!(defended_acc >= attacked_acc - 0.05);
//! ```
//!
//! ## Crate map
//!
//! * [`bbgnn_errors`] — structured error taxonomy and retry policies
//!   shared by every layer;
//! * [`bbgnn_obs`] — zero-dependency tracing: spans, events, counters
//!   drained to a JSONL trace (`BBGNN_TRACE=trace.jsonl`, see DESIGN.md §8);
//! * [`bbgnn_linalg`] — dense/sparse matrices, SVD, eigendecomposition;
//! * [`bbgnn_autodiff`] — the reverse-mode tape every model trains on;
//! * [`bbgnn_graph`] — graph container, metrics, dataset generators;
//! * [`bbgnn_gnn`] — GCN / GAT / linear surrogate and the training loop;
//! * [`bbgnn_attack`] — PEEGA + PGD, MinMax, Metattack, GF-Attack;
//! * [`bbgnn_defense`] — GNAT + GCN-Jaccard, GCN-SVD, RGCN, Pro-GNN,
//!   SimPGCN;
//! * [`bbgnn_store`] — content-addressed artifact cache persisting
//!   trained surrogates and factor bundles across runs
//!   (`BBGNN_STORE=<dir>`, see DESIGN.md §10);
//! * [`bbgnn_supervise`] — cooperative cancellation, deadlines, resource
//!   budgets, and the deterministic fault-injection harness
//!   (`--deadline`/`--budget`/`BBGNN_FAULTS`, see DESIGN.md §11);
//! * [`bbgnn_scenario`] — the typed scenario layer: attacker/defender
//!   registry, shared dataset resolution, job specs and the fault-isolated
//!   [`Job`](bbgnn_scenario::job::Job) executor that binaries and
//!   `bbgnn-serve` both drive (DESIGN.md §12).

#![deny(missing_docs)]

pub use bbgnn_attack as attack;
pub use bbgnn_autodiff as autodiff;
pub use bbgnn_defense as defense;
pub use bbgnn_errors as error;
pub use bbgnn_gnn as gnn;
pub use bbgnn_graph as graph;
pub use bbgnn_linalg as linalg;
pub use bbgnn_obs as obs;
pub use bbgnn_scenario as scenario;
pub use bbgnn_scenario::registry;
pub use bbgnn_store as store;
pub use bbgnn_supervise as supervise;

pub mod exec;

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use crate::registry::{AttackerKind, DefenderKind};
    pub use bbgnn_attack::dice::{Dice, DiceConfig};
    pub use bbgnn_attack::gfattack::{GfAttack, GfAttackConfig, GfScoring};
    pub use bbgnn_attack::metattack::{Metattack, MetattackConfig};
    pub use bbgnn_attack::minmax::{MinMaxAttack, MinMaxConfig};
    pub use bbgnn_attack::peega::{AttackSpace, ObjectiveNodes, Peega, PeegaConfig};
    pub use bbgnn_attack::peega_parallel::{PeegaParallel, PeegaParallelConfig};
    pub use bbgnn_attack::pgd::{PgdAttack, PgdConfig};
    pub use bbgnn_attack::random::{RandomAttack, RandomAttackConfig};
    pub use bbgnn_attack::targeted::{target_success_rate, TargetedPeega, TargetedPeegaConfig};
    pub use bbgnn_attack::{budget_for, AttackResult, Attacker, AttackerNodes};
    pub use bbgnn_defense::gnat::{Gnat, GnatConfig, View};
    pub use bbgnn_defense::jaccard::{GcnJaccard, GcnJaccardConfig};
    pub use bbgnn_defense::prognn::{ProGnn, ProGnnConfig};
    pub use bbgnn_defense::rgcn::{Rgcn, RgcnConfig};
    pub use bbgnn_defense::simpgcn::{SimPGcn, SimPGcnConfig};
    pub use bbgnn_defense::svd_defense::{GcnSvd, GcnSvdConfig};
    pub use bbgnn_defense::Defender;
    pub use bbgnn_errors::{BbgnnError, BbgnnResult, ErrorContext, RetryPolicy};
    pub use bbgnn_gnn::eval::{accuracy, MeanStd};
    pub use bbgnn_gnn::gat::Gat;
    pub use bbgnn_gnn::gcn::Gcn;
    pub use bbgnn_gnn::linear_gcn::LinearGcn;
    pub use bbgnn_gnn::sage::GraphSage;
    pub use bbgnn_gnn::train::{Mode, TrainConfig, TrainReport};
    pub use bbgnn_gnn::NodeClassifier;
    pub use bbgnn_graph::datasets::{DatasetSpec, SbmParams};
    pub use bbgnn_graph::metrics::{
        cross_label_similarity, edge_diff_breakdown, edge_homophily, intra_inter_similarity,
        EdgeDiffBreakdown,
    };
    pub use bbgnn_graph::metrics_utility::{
        average_clustering, graph_stats, utility_drift, GraphStats,
    };
    pub use bbgnn_graph::{Graph, Split};
    pub use bbgnn_linalg::kernels::env_threads;
    pub use bbgnn_linalg::{CsrMatrix, DenseMatrix, ExecContext, ThreadPool, Workspace};
    pub use bbgnn_supervise::RunBudget;
}
