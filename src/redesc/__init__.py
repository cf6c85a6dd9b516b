"""redesc: two-view redescription mining.

Mines pairs of queries over two disjoint attribute views that describe
near-identical instance subsets, improves them by conjunctive refinement,
and extracts weighted reduced sets, with three-valued handling of missing
values throughout.
"""

__version__ = "0.1.0"

from .dataset import (
    MISSING,
    Attribute,
    DataError,
    Dataset,
    SchemaError,
    View,
    load_dataset,
    load_view,
    make_artificial,
    read_schema,
    write_schema,
    write_view,
)
from .measures import (
    Constraints,
    JaccardVariants,
    Redescription,
    RedescriptionSet,
    StatusCounts,
    aaj,
    aej,
    jaccard_variants,
    p_value,
)
from .mine import MiningParams, Rule, RuleSet, mine
from .query import (
    FALSE,
    TRUE,
    UNKNOWN,
    Literal,
    Query,
    QuerySyntaxError,
    TriSupport,
    canonicalize,
    eval_query,
    minimize_query,
    parse_query,
    print_query,
    tri_support,
)
from .reduce import (
    OccurrenceProfile,
    ReducedSet,
    WeightVector,
    compute_occurrence,
    find_best,
    find_specific,
    reduce_set,
)
from .refine import RefinementOutcome, construct_and_refine, refine_pair, tighten_bounds
from .tree import PctParams, Split, Tree, best_split, build_tree, extract_rules

__all__ = [name for name in dir() if not name.startswith("_")]
