"""Cross-solve reuse: warm pools for MINLP solve families.

See :mod:`repro.reuse.family` for the :class:`SolveFamily` engine and
``docs/reuse.md`` for the pool lifecycle and validity rules.
"""

from repro.reuse.family import FamilyDelta, ReusePlan, SolveFamily, family_map

__all__ = [
    "FamilyDelta",
    "ReusePlan",
    "SolveFamily",
    "family_map",
]
