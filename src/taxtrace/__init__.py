"""Taxonomy-mediated traceability between engineering artifacts.

Instead of linking artifacts to each other directly, every artifact is
classified against a shared domain taxonomy; traces, coverage, and
impact queries then join those classifications through hierarchy
relations.  Submodules: taxonomy, store, linkage, suggest, query, audit,
cost, cli, errors.
"""

from .errors import TaxTraceError

__all__ = ["TaxTraceError"]
__version__ = "0.1.0"
