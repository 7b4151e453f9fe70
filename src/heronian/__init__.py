"""Exact-integer toolkit for Heronian triangles and their sociable cycles.

The root re-exports the public names of core, cycles, enumeration and
necklace: each module's __all__ is the one list of them.
"""

from heronian import core, cycles, enumeration, necklace
from heronian.core import *  # noqa: F403
from heronian.cycles import *  # noqa: F403
from heronian.enumeration import *  # noqa: F403
from heronian.necklace import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted({*core.__all__, *cycles.__all__, *enumeration.__all__, *necklace.__all__})
