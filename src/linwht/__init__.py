"""Fast Walsh-Hadamard transform algorithms as bit-matrix sequences.

Each module declares its public names in its own ``__all__``; this
package re-exports exactly those.
"""

from . import algorithm, catalog, config, dot, factory, gf2, groups, membership, oracle, textio
from .algorithm import *  # noqa: F401,F403
from .catalog import *  # noqa: F401,F403
from .config import *  # noqa: F401,F403
from .dot import *  # noqa: F401,F403
from .factory import *  # noqa: F401,F403
from .gf2 import *  # noqa: F401,F403
from .groups import *  # noqa: F401,F403
from .membership import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .textio import *  # noqa: F401,F403

__version__ = "0.1.0"

_MODULES = (algorithm, catalog, config, dot, factory, gf2, groups, membership, oracle, textio)

__all__ = [name for module in _MODULES for name in module.__all__] + ["__version__"]
