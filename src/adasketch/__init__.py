"""adasketch: randomized recovery of high-dimensional vectors from few
adaptively or non-adaptively chosen linear measurements, with exact
information-cost accounting and a Monte Carlo benchmark harness.

Names are imported from their modules, e.g.
``from adasketch.adaptive import approximate``.
"""

from . import (adaptive, discover, errors, families, harness, hashing, nonadaptive,
               oracle, precondition, rng, spotting)

__version__ = "0.1.0"
