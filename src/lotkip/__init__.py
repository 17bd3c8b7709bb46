"""TKIP security pipeline, its low-overhead framing variant, the
operation-count/energy cost model, and an ad hoc network energy simulator."""

__version__ = "0.1.0"

# netsim (and with it numpy) loads only when imported by name, so the codec,
# the cost model and every CLI subcommand but `sim` start without numpy;
# `from lotkip import *` still binds netsim through __all__.
from lotkip import codec, cost, crypto

__all__ = ["codec", "cost", "crypto", "netsim", "__version__"]
