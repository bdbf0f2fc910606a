"""Rate regions and power splitting for two-user SWIPT multiple-access
channels whose receivers pay a rate-dependent decoding cost out of the
harvested energy.

Modules
-------
models            EH / decoding-cost model families and parameter records
numerics          bracketed bisection, critical points of an array
                  objective
region            boundary curves, time-sharing hulls, dominance metrics
classical_simul   simultaneous decoding: bounds, breakpoints, MDRB, sum rate
classical_sic     successive decoding: both orders, MDRB, sum rate
coop_mac          user cooperation: weighted-rate solvers and MDRB
oracle            brute-force grid maximizers for cross-checking the above
cli               `swipt-mac` command-line front end (not imported here)

The package exports exactly what each library module lists in its own
``__all__``.
"""

from . import models, numerics, region, classical_simul, classical_sic, coop_mac, oracle
from .models import *  # noqa: F401,F403
from .numerics import *  # noqa: F401,F403
from .region import *  # noqa: F401,F403
from .classical_simul import *  # noqa: F401,F403
from .classical_sic import *  # noqa: F401,F403
from .coop_mac import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for mod in (models, numerics, region, classical_simul, classical_sic, coop_mac, oracle)
    for name in mod.__all__
]
