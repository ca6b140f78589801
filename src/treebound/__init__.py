"""Exact tree-copy counting in graphs and the degree-product bounds it obeys.

The package counts labeled copies, homomorphisms, and walks of trees in
simple graphs; evaluates the associated log-space lower bounds; runs the
oriented random embedding process with exact-rational measures; and ships a
harness that checks every identity and inequality on desk-scale instances,
including a scanner for the open falling-factorial bound.
"""

from .bounds import (
    LOG_TOLERANCE,
    BoundComparison,
    BoundReport,
    BoundValue,
    compare_count_to_bound,
    evaluate_bounds,
)
from .counting import (
    DEFAULT_WORK_CAP,
    CountResult,
    count_copies,
    count_homomorphisms,
    count_star_formula,
    count_walks,
    iter_copies,
    max_induced_copy_degree,
    path_walk_ratio,
)
from .errors import FormatError, RetryLimitExceeded, WorkCapExceeded
from .graphs import (
    Embedding,
    GoodLabeling,
    Graph,
    Tree,
    gen_complete_bipartite,
    gen_cycle,
    gen_disjoint_cliques,
    gen_random_min_degree,
    good_labeling,
    good_labeling_between,
    parse_graph,
    parse_tree,
    path_tree,
    serialize_graph,
    serialize_tree,
    star_tree,
)
from .harness import (
    SCHEMA_VERSION,
    CheckResult,
    ConjectureRow,
    ConjectureScanConfig,
    ConjectureSummary,
    SuiteConfig,
    SuiteRow,
    conjecture_scan,
    conjecture_to_csv,
    conjecture_to_json,
    instance_checks,
    instance_report,
    run_suite,
    sharpness_check,
    standard_suite_config,
    suite_to_csv,
    suite_to_json,
    summarize_conjecture,
)
from .measure import (
    ChainReport,
    CopyLedger,
    GroupedWeights,
    GTable,
    MeasureKind,
    copy_ledger,
    g_table_exact,
    g_table_monte_carlo,
    sample_embedding,
    sample_embeddings,
    verify_chain,
    weight,
)

__version__ = "0.1.0"
