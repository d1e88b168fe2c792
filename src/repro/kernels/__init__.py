"""Shared compiled-kernel evaluation layer.

The LP/NLP branch-and-bound evaluates the same objective/constraint
gradients and Hessian entries thousands of times per solve, and B&B
children would otherwise recompile what their parent already compiled.
This subpackage turns an *expression set* — objective, constraint bodies,
their symbolic gradients and Hessian entries — into one vectorized,
bytecode-compiled callable with common-subexpression elimination, and
caches the result under structural hashes of the expression trees
(:meth:`repro.expr.node.Expr.struct_key`).

Layering: ``repro.expr`` emits the source, this package owns compilation
policy (CSE grouping, batching, caching, counters); ``repro.nlp`` evaluates
through :class:`SmoothKernel`, the ``repro.minlp`` solvers share one
:class:`KernelCache` per solve across all tree nodes (and each cache shares
its compiled cores with later solves through a bounded process-wide store),
and ``repro.hslb.oracle`` scores whole candidate-layout blocks through
:class:`BatchKernel`.  The tree-walk path (``Expr.evaluate``) stays intact
as the bit-identical reference implementation — select it with
``evaluator="tree"``.
"""

from repro.kernels.cache import KernelCache, default_cache
from repro.kernels.kernel import EVALUATORS, BatchKernel, SmoothCore, SmoothKernel

__all__ = [
    "BatchKernel",
    "SmoothCore",
    "SmoothKernel",
    "KernelCache",
    "EVALUATORS",
    "default_cache",
]
