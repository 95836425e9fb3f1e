"""Clans, the K-orbit move order, and smoothness of orbit closures in the
flag variety for U(p,q).

The package enumerates the clans of a signature (p, q), computes orbit
dimensions, generates the move order from its three moves, classifies
every orbit closure as smooth or not rationally smooth by seven-pattern
avoidance, and cross-checks the verdicts with a structural certificate and
with reflection counting on closed orbits.  The move order misses some closure
relations (``test_pair_split_relation_is_missed_by_the_moves`` in ``tests/test_findings.py``).
"""

from .core import *
from .poset import *
from .patterns import *
from .springer import *
from .verify import *
from . import core, patterns, poset, springer, verify

__version__ = "0.1.0"

# Each module lists its public names once, in its own __all__.
__all__ = ["__version__"]
__all__ += core.__all__
__all__ += poset.__all__
__all__ += patterns.__all__
__all__ += springer.__all__
__all__ += verify.__all__
