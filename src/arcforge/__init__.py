"""Small complete arcs in PG(2,q): search, verification, bounds, statistics.

The package splits into exact field arithmetic (``gf``), the projective
plane index (``plane``), arc and coverage machinery (``arc``), randomized
greedy search (``greedy``), the reference size table with bound and band
checks (``bounds``), portable certificates (``certify``), and the command
line (``cli``).
"""

from .arc import Arc, Coverage, verify_arc, verify_complete
from .bounds import (
    BoundRecord, KnownTable, check_conjecture, check_observations,
    check_theorem_bands, compute_record, default_table, emit_stats_csv,
    lower_bound, multiplier_a_q,
)
from .certify import VerifyReport, read_and_verify, write_certificate
from .gf import Field, field_of_order
from .greedy import SearchConfig, SearchReport, greedy_trial, search
from .plane import PlaneIndex, build_plane

__version__ = "0.1.0"

__all__ = [
    "Arc", "BoundRecord", "Coverage", "Field", "KnownTable",
    "PlaneIndex", "SearchConfig", "SearchReport", "VerifyReport",
    "build_plane", "check_conjecture", "check_observations",
    "check_theorem_bands", "compute_record", "default_table",
    "emit_stats_csv", "field_of_order", "greedy_trial", "lower_bound",
    "multiplier_a_q", "read_and_verify", "search", "verify_arc",
    "verify_complete", "write_certificate",
]
