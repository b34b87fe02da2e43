"""Exact Clebsch-Gordan / 3jm coefficients and exact discrete distributions.

Coefficients are computed by three independent backends (Racah binomial sum,
terminating 3F2 series, ladder-operator construction) over exact rational
arithmetic, and every identity tying them to the hypergeometric and binomial
distributions can be verified exactly via the suites in cgexact.verify.

Each layer module's `__all__` is its public API, stated there once; this
package re-exports all four (angular, exact, prob, verify). `hypseries`
holds only the private series kernel that `angular` and `prob` share.
"""

from . import angular, exact, prob, verify
from .angular import *
from .exact import *
from .prob import *
from .verify import *

__version__ = "1.0.0"

__all__ = [*angular.__all__, *exact.__all__, *prob.__all__, *verify.__all__]
