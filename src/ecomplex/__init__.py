"""Economic-complexity metrics and a combinatorial model of knowhow.

The package turns country-product trade data into complexity metrics
(diversification/ubiquity, TDI/TSI, ECI/PCI, Fitness/Q), provides the
closed forms and simulator of a combinatorial knowhow model that
predicts how those metrics behave, and ships a statistical harness to
validate the two against income data and each other.
"""

from . import errors, matrix, metrics, model, validation, fileio
from .errors import *
from .matrix import *
from .metrics import *
from .model import *
from .validation import *
from .fileio import *

__version__ = "0.1.0"

__all__ = [*errors.__all__, *matrix.__all__, *metrics.__all__, *model.__all__,
           *validation.__all__, *fileio.__all__, "__version__"]
