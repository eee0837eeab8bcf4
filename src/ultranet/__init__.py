"""ultranet: ultrametric reaction networks on p-adic state trees."""

__version__ = "0.1.0"

# The two basin-matrix conventions (see network). They live here, with
# no model behind them, so the config layer can check a convention
# without importing the model.
CONVENTIONS = ("derived", "paper")

from .errors import (
    ClassificationError,
    NumericError,
    UltranetError,
    UsageError,
    ValidationError,
)

__all__ = [
    "CONVENTIONS",
    "ClassificationError",
    "NumericError",
    "UltranetError",
    "UsageError",
    "ValidationError",
]
