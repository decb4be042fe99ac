"""Numerical laboratory for Fourier decay of measures on the line.

Symbolic measures with a closed transform algebra, exact rational phase
arithmetic at arbitrary frequency magnitude, windowed decay-exponent
estimates, two independent s-energy routes, and the experiment presets
behind the command line interface.
"""

from . import measures, transform, dimension, constructions, bandlattice
from .measures import *  # noqa: F403
from .transform import *  # noqa: F403
from .dimension import *  # noqa: F403
from .constructions import *  # noqa: F403
from .bandlattice import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (measures, transform, dimension, constructions, bandlattice)
           for name in module.__all__] + ["__version__"]
