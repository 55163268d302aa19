//! Committed reference outputs for the default seed. Other seeds are
//! checked for internal consistency only (identical across passes, twins
//! equal to their cold copies).

/// The seed whose outputs are pinned below.
pub const DEFAULT_SEED: u64 = 7;

/// `attack_table`: content hash of each attacker's poisoned graph.
pub const ATTACK_HASHES: [(&str, u64); 4] = [
    ("pgd", 0xddc1_dc63_172a_793d),
    ("minmax", 0xf3b3_944b_0da1_31eb),
    ("metattack", 0x878c_0210_5bf4_c589),
    ("peega", 0xa1c2_99ab_d2c6_5f22),
];

/// `defense_table`: content hash of the PEEGA-poisoned input graph.
pub const DEFENSE_POISONED_HASH: u64 = 0xa1c2_99ab_d2c6_5f22;

/// `defense_table`: test accuracy of every column.
pub const DEFENSE_ACCURACY: [(&str, &str); 8] = [
    ("fit_s.gcn", "0.8067226890756303"),
    ("fit_s.gat", "0.7310924369747899"),
    ("defense.fit_s.gcn-jaccard", "0.8361344537815126"),
    ("defense.fit_s.gcn-svd", "0.7857142857142857"),
    ("defense.fit_s.rgcn", "0.7899159663865546"),
    ("fit_s.prognn", "0.7941176470588235"),
    ("defense.fit_s.simpgcn", "0.5714285714285714"),
    ("fit_s.gnat", "0.8907563025210085"),
];

/// `serve_mixed`: round-0 job values by cell key.
pub const SERVE_VALUES: [(&str, &str); 24] = [
    ("cora/Clean/GCN", "67.00±0.00"),
    ("cora/Clean/RGCN", "71.00±0.00"),
    ("cora/Clean/GNAT", "64.00±0.00"),
    ("cora/DICE/GCN", "66.00±0.00"),
    ("cora/DICE/RGCN", "69.00±0.00"),
    ("cora/DICE/GNAT", "60.00±0.00"),
    ("cora/PEEGA/GCN", "40.00±0.00"),
    ("cora/PEEGA/RGCN", "60.00±0.00"),
    ("cora/PEEGA/GNAT", "55.00±0.00"),
    ("cora/Metattack/GCN", "67.00±0.00"),
    ("cora/Metattack/RGCN", "69.00±0.00"),
    ("cora/Metattack/GNAT", "71.00±0.00"),
    ("citeseer/Clean/GCN", "77.11±0.00"),
    ("citeseer/Clean/RGCN", "72.29±0.00"),
    ("citeseer/Clean/GNAT", "98.80±0.00"),
    ("citeseer/DICE/GCN", "56.63±0.00"),
    ("citeseer/DICE/RGCN", "74.70±0.00"),
    ("citeseer/DICE/GNAT", "93.98±0.00"),
    ("citeseer/PEEGA/GCN", "60.24±0.00"),
    ("citeseer/PEEGA/RGCN", "59.04±0.00"),
    ("citeseer/PEEGA/GNAT", "93.98±0.00"),
    ("citeseer/Metattack/GCN", "49.40±0.00"),
    ("citeseer/Metattack/RGCN", "69.88±0.00"),
    ("citeseer/Metattack/GNAT", "92.77±0.00"),
];
