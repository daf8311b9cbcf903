"""Restricted partition families, the merge correspondence between them,
part statistics, and exact generating function checks."""

from .classes import *
from .glaisher import *
from .partition import *
from .qseries import *
from .stats import *

__version__ = "0.1.0"

__all__ = (
    classes.__all__ + glaisher.__all__ + partition.__all__ + qseries.__all__ + stats.__all__
    + ["__version__"]
)
