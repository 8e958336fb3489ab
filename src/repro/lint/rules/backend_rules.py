"""BKD001 — kernel dispatch goes through the ``repro.kernels`` entry points.

The algorithm layers (:mod:`repro.core`, :mod:`repro.hetero`) must not
import the raw kernel implementation modules
(``repro.kernels.esc`` — the engine — or ``repro.kernels.hash_acc`` —
the scalar oracle) directly.  The package-level entry points in
:mod:`repro.kernels` resolve the ``backend=`` name through the
two-entry :data:`repro.kernels.BACKENDS` table — that is what makes a
run's backend selection (and its checkpoint fingerprint, bench row, and
``backend_selected`` event) truthful.  A direct import pins one
implementation behind the table's back: the run would *report* one
backend and *execute* another, and the cross-backend equivalence and
resume-refusal guarantees would silently not apply.

The sanctioned importers are the kernel package's own modules.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.base import ModuleContext, RawFinding, Rule, register

#: packages that must dispatch through the registry
_POLICED = ("repro.core", "repro.hetero")

#: raw implementation modules the dispatchers wrap
_RAW_KERNEL_MODULES = (
    "repro.kernels.hash_acc",
    "repro.kernels.esc",
)


@register
class BKD001(Rule):
    """Direct raw-kernel import above the backend table.

    ``repro.core`` / ``repro.hetero`` code that imports
    ``repro.kernels.hash_acc`` or ``repro.kernels.esc`` bypasses backend
    selection: ``backend="reference"`` can no longer substitute the
    scalar oracle, the ``backend`` recorded in fingerprints/bench rows
    stops describing what actually ran, and cross-backend checkpoint
    refusal loses its meaning.  Dispatch through :mod:`repro.kernels`.
    """

    id = "BKD001"
    description = (
        "repro.core / repro.hetero must not import the raw kernel "
        "implementation modules (repro.kernels.hash_acc / .esc) "
        "directly; dispatch through the repro.kernels entry points so "
        "the backend= name controls which implementation runs"
    )
    example_violation = (
        "# in repro/hetero/...\n"
        "from repro.kernels.esc import esc_multiply   # pins one impl\n"
        "out = esc_multiply(a, b)"
    )
    example_fix = (
        "from repro.kernels import esc_multiply       # backend-dispatched\n"
        "out = esc_multiply(a, b, backend=spec)"
    )

    def check(self, ctx: ModuleContext) -> Iterator[RawFinding]:
        if not any(ctx.in_package(pkg) for pkg in _POLICED):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name in _RAW_KERNEL_MODULES:
                        yield RawFinding(
                            node.lineno, node.col_offset,
                            f"direct import of raw kernel module "
                            f"`{alias.name}` above the backend registry; "
                            f"dispatch through repro.kernels instead",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level == 0 and module in _RAW_KERNEL_MODULES:
                    yield RawFinding(
                        node.lineno, node.col_offset,
                        f"direct import from raw kernel module "
                        f"`{module}` above the backend registry; "
                        f"dispatch through repro.kernels instead",
                    )
