"""Span recording around the public functions of the ``orthinst`` modules.

``traced(recorder)`` wraps every function listed in ``LAYERS`` in a span
recorder for the duration of a ``with`` block.  It rebinds the name in every
loaded ``orthinst`` module that holds it (so ``monad.rank``, ``cli.check_conditions``
and the ``rank`` calls inside ``linalg.principal_rank_subset`` are all
counted), wraps ``RatMatrix.__matmul__`` on the class, and restores every
original binding on exit.  Spans are kept in memory; ``layer_metrics`` turns
them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

# module -> public functions timed as spans of that layer
LAYERS = {
    "specfile": ("parse_spec", "generate"),
    "forms": ("flatten", "act", "wedge_membership"),
    "linalg": ("rank", "det", "kernel_basis", "pfaffian", "principal_rank_subset"),
    "monad": ("build_beta", "verify_monad_identity", "check_conditions", "nondegeneracy_witness_search"),
    "kronecker": ("gamma_eval", "splitting_type", "scan_lines", "kronecker_conditions"),
    "cohomology": ("h_table", "verify_instanton"),
    "moduli": ("orbit_probe",),
    "cli": ("run_command",),
    "jsonio": (
        "condition_report_json", "gamma_json", "verdict_json", "scan_report_json",
        "kronecker_report_json", "cohom_table_json", "instanton_report_json",
        "orbit_probe_json", "linform_matrix_json", "matrix_json",
    ),
}
MATMUL = "linalg.matmul"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Recorder.spans, -1 at top level
    cells: int = 0  # rows * cols of the matrix handed to rank
    hit: bool = False  # the witness search returned a witness


class Recorder:
    """In-memory span sink for one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        sp = Span(name, perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = perf_counter()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
                if name == "linalg.rank":
                    sp.cells = args[0].rows * args[0].cols
                elif name == "monad.nondegeneracy_witness_search":
                    sp.hit = out is not None
                return out

        return recorded


def _orthinst_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "orthinst" or name.startswith("orthinst.")]


@contextmanager
def traced(rec: Recorder):
    """Wrap the ``LAYERS`` functions and ``RatMatrix.__matmul__`` for the block;
    every original binding is restored on exit, also after an exception."""
    from orthinst.linalg import RatMatrix

    modules = _orthinst_modules()
    restore: list[tuple[object, str, object]] = []
    try:
        for layer, names in LAYERS.items():
            home = sys.modules[f"orthinst.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = rec.wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        restore.append((RatMatrix, "__matmul__", RatMatrix.__matmul__))
        RatMatrix.__matmul__ = rec.wrap(MATMUL, RatMatrix.__matmul__)
        yield rec
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


def bindings_snapshot() -> dict:
    """Every name bound in an ``orthinst`` module, for checking restoration."""
    from orthinst.linalg import RatMatrix

    snap = {(mod.__name__, attr): value for mod in _orthinst_modules() for attr, value in vars(mod).items()}
    snap[("RatMatrix", "__matmul__")] = RatMatrix.__dict__["__matmul__"]
    return snap


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------


def _module(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[Span], tags) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``<f>.ms`` sums the spans of ``f`` not nested in another span of ``f``;
    ``<module>.self_ms`` sums, over the module's spans, the duration minus the
    time covered by child spans.  ``tags`` are the counters the op checks
    returned for the pass.
    """
    ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    child_time = [0.0] * len(spans)
    for sp in spans:
        if sp.parent >= 0:
            child_time[sp.parent] += sp.end - sp.start
    for i, sp in enumerate(spans):
        dur = (sp.end - sp.start) * 1000.0
        calls[sp.name] = calls.get(sp.name, 0) + 1
        p = sp.parent
        while p >= 0 and spans[p].name != sp.name:
            p = spans[p].parent
        if p < 0:
            ms[sp.name] = ms.get(sp.name, 0.0) + dur
        mod = _module(sp.name)
        self_ms[mod] = self_ms.get(mod, 0.0) + dur - child_time[i] * 1000.0

    def parent_name(sp: Span) -> str:
        return spans[sp.parent].name if sp.parent >= 0 else ""

    ranks = [sp for sp in spans if sp.name == "linalg.rank"]
    searches = [sp for sp in spans if sp.name == "monad.nondegeneracy_witness_search"]
    jsonio_ms = sum(
        (sp.end - sp.start) * 1000.0 for sp in spans if _module(sp.name) == "jsonio" and _module(parent_name(sp)) != "jsonio"
    )
    lines = tags.get("lines", 0)

    out: dict[str, tuple[float, str]] = {}
    for name in (
        "specfile.parse_spec", "specfile.generate", "forms.flatten", "forms.act", "forms.wedge_membership",
        "linalg.rank", "linalg.principal_rank_subset", "linalg.det", "linalg.pfaffian", "linalg.kernel_basis",
        MATMUL, "monad.check_conditions", "monad.nondegeneracy_witness_search", "monad.build_beta",
        "monad.verify_monad_identity", "kronecker.scan_lines", "kronecker.splitting_type", "kronecker.gamma_eval",
        "kronecker.kronecker_conditions", "cohomology.h_table", "cohomology.verify_instanton", "moduli.orbit_probe",
        "cli.run_command",
    ):
        out[f"{name}.ms"] = (ms.get(name, 0.0), "ms")
    for name in (
        "forms.act", "linalg.rank", "linalg.principal_rank_subset", "linalg.det", "linalg.pfaffian",
        "linalg.kernel_basis", MATMUL, "monad.build_beta", "kronecker.splitting_type",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    for mod in ("forms", "linalg", "monad", "kronecker", "cohomology", "moduli", "cli"):
        out[f"{mod}.self_ms"] = (self_ms.get(mod, 0.0), "ms")
    out["jsonio.ms"] = (jsonio_ms, "ms")
    out["linalg.rank.cells"] = (sum(sp.cells for sp in ranks), "count")
    out["cohomology.section_cells"] = (
        sum(sp.cells for sp in ranks if _module(parent_name(sp)) == "cohomology"), "count"
    )
    out["monad.witness.tries"] = (
        sum(1 for sp in spans if sp.name == "linalg.kernel_basis" and parent_name(sp) == "monad.nondegeneracy_witness_search"),
        "count",
    )
    out["monad.witness.hit_ratio"] = (sum(sp.hit for sp in searches) / len(searches) if searches else 0.0, "ratio")
    out["monad.a2_unproved"] = (tags.get("a2_unproved", 0), "count")
    out["monad.a2_false_pass"] = (tags.get("a2_false_pass", 0), "count")
    out["kronecker.k1_false_pass"] = (tags.get("k1_false_pass", 0), "count")
    out["kronecker.degenerate_ratio"] = (tags.get("degenerate", 0) / lines if lines else 0.0, "ratio")
    out["moduli.trials"] = (tags.get("trials", 0), "count")
    return out
