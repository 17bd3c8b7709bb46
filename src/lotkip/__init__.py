"""TKIP security pipeline, its low-overhead framing variant, the
operation-count/energy cost model, and an ad hoc network energy simulator."""

__version__ = "0.1.0"

# netsim (and with it numpy) and the cost model load only when imported by
# name, so the codec and every CLI subcommand but `sim` start without numpy,
# and `seal`/`open` without the cost model; `from lotkip import *` still
# binds both through __all__.
from lotkip import codec, crypto

__all__ = ["codec", "cost", "crypto", "netsim", "__version__"]
