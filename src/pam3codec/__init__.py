"""Low-power PAM-3 bus encodings and trace-driven power analysis.

Three frame encodings (DBI, MF, SORT) lower the termination power of
PAM-3 DRAM bus data; this package implements them, the binary-to-PAM-3
modulation they sit on, a normalized power model, and a trace analysis
pipeline with CSV/JSON reporting.

Anything imported here is public: __all__ lists every name in this
namespace that is not a submodule and does not start with an underscore,
so a helper imported here takes a leading underscore.
"""

from types import ModuleType as _ModuleType

from .analysis import TraceStats, analyze_trace, read_report, signal_distribution, write_report
from .core import (
    Pam3Frame,
    SymbolCounts,
    Word24,
    count_symbols,
    demodulate,
    modulate,
)
from .encoders import (
    Algorithm,
    EncodedFrame,
    brute_force_best_permutation,
    decode,
    encode,
)
from .errors import (
    EmptyInput,
    EmptyStream,
    InvalidFlag,
    InvalidPair,
    Pam3Error,
    ParseError,
    ZeroBaseline,
)
from .power import PowerReport, switching_power, termination_power, termination_ratio
from .traceio import (
    FrameStream,
    TraceRecord,
    format_text_trace,
    frame_records,
    parse_raw_trace,
    parse_text_trace,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
