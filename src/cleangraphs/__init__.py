"""Clean graphs, idempotent graphs and shuriken graphs over Z_n.

Builds the graphs Cl(Z_n), Cl1, Cl2, I(Z_n), Sh^t_n and the shuriken
operation Shu^t_n(G), and mechanically verifies the structure theorems
that relate them (degree law, prime-power decomposition, the shuriken
isomorphisms) by constructive witness plus independent search.
"""

from .graph import Graph, IsoResult, find_isomorphism, verify_mapping
from .modring import ModRing, UnitPartition, factorize
from .cleangraph import cl1, cl2, clean_graph, idempotent_graph
from .shuriken import build_sh, build_shu, is_null
from .verify import TheoremReport, sweep

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "IsoResult",
    "ModRing",
    "UnitPartition",
    "TheoremReport",
    "build_sh",
    "build_shu",
    "cl1",
    "cl2",
    "clean_graph",
    "factorize",
    "find_isomorphism",
    "idempotent_graph",
    "is_null",
    "sweep",
    "verify_mapping",
    "__version__",
]
