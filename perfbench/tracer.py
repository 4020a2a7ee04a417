"""Outside-in tracing of curcat's public functions.

The tracer wraps a fixed list of module-level functions in spans and counts
calls of two constructors and one method, then rebinds every name that refers to the
original function in every loaded ``curcat`` module. Rebinding every binding matters: ``compose``
is imported by name into ``karoubi``, ``currents``, ``incarnate``, ``lie``,
``manifest`` and the package root, so patching ``curcat.diagrams`` alone
would let calls from ``karoubi`` escape the trace. Modules are looked up
through ``sys.modules`` because ``curcat.incarnate`` on the package is the
re-exported function, not the submodule.

Spans live in memory as parallel arrays (name id, start, end, parent span,
op id). Self time of a span is its duration minus the durations of its
direct children; children of one span never overlap, because everything
runs on one thread.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

# (module, function) pairs recorded as spans. The span name is
# "<module>.<function>", except where SPAN_ALIASES groups several functions
# under one layer name.
SPANNED = (
    ("diagrams", "compose"),
    ("diagrams", "tensor"),
    ("diagrams", "all_matchings"),
    ("diagrams", "parse_expr"),
    ("exact", "rref"),
    ("exact", "solve_affine"),
    ("karoubi", "kar_compose"),
    ("karoubi", "kar_tensor"),
    ("lie", "canonical_module"),
    ("lie", "check_module"),
    ("currents", "check_current_compatibility"),
    ("currents", "current_morphism_space"),
    ("currents", "incarnation_preimage_space"),
    ("incarnate", "incarnate_matching"),
    ("incarnate", "incarnate"),
    ("incarnate", "kernel_of_incarnation"),
    ("equivariant", "isotypic_projector"),
    ("equivariant", "equivariant_map_algebra"),
    ("equivariant", "algebra_action"),
    ("equivariant", "lie_action"),
    ("equivariant", "ideal_stabilizer"),
    ("equivariant", "equivariant_evaluation_module"),
)

SPAN_ALIASES = {
    "equivariant.algebra_action": "equivariant.action_validation",
    "equivariant.lie_action": "equivariant.action_validation",
}

# (module, class, method, counter) entries that only count calls.
COUNTED = (
    ("exact", "DeltaPoly", "__init__", "exact.deltapoly.created"),
    ("exact", "CycloNumber", "__init__", "exact.cyclo.created"),
    ("currents", "CurrentModule", "action", "currents.action.calls"),
)

SOLVER_SPANS = ("currents.current_morphism_space", "currents.incarnation_preimage_space")

def _module(name: str):
    return importlib.import_module(f"curcat.{name}")


class Tracer:
    """Records spans and counters for the calls made while it is enabled."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack: list[int] = []
        self.op_id = -1
        # per-op counters: counters[op_id][key] -> number
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._seen_rref: dict = {}
        self._seen_lhs: dict = {}
        self._patches: list[tuple[object, str, object]] = []
        self._solver_ids: set[int] = set()

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._seen_rref = {}
        self._seen_lhs = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[self.op_id][key] += amount

    def _span_wrapper(self, fn, name: str, before=None, after=None):
        name_id = self._name_id(name)
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op, stack = self.span_parent, self.span_op, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1] if stack else -1)
            span_op.append(self.op_id)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    # -- per-function counters ------------------------------------------

    def _before_compose(self, args, kwargs):
        f, g = args[0], args[1]
        self.count("diagrams.compose.term_pairs", len(f.terms) * len(g.terms))
        if not f.terms or not g.terms:
            self.count("diagrams.compose.zero_operand")

    @staticmethod
    def _seen_before(seen: dict, m) -> bool:
        """Whether a matrix equal to m was recorded in ``seen`` during this
        op; records it if not. Hashing only the first and last rows keeps
        the lookup cheap; equal fingerprints are confirmed entry by entry."""
        rows = m.entries
        fingerprint = (m.rows, m.cols, hash(rows[0]), hash(rows[-1])) if rows else (0, m.cols)
        bucket = seen.setdefault(fingerprint, [])
        if any(rows is other or rows == other for other in bucket):
            return True
        bucket.append(rows)
        return False

    def _after_rref(self, args, kwargs, result):
        m = args[0]
        self.count("exact.rref.cells", m.rows * m.cols)
        self.count("exact.rref.rows", m.rows)
        self.count("exact.rref.rank", result[1])
        if self._seen_before(self._seen_rref, m):
            self.count("exact.rref.repeat")

    def _before_solve_affine(self, args, kwargs):
        a = args[0]
        if self._seen_before(self._seen_lhs, a):
            self.count("exact.solve_affine.repeat_lhs")
        if any(self.span_name[i] in self._solver_ids for i in self.stack):
            self.count("currents.system_cells", a.rows * a.cols)

    def _after_incarnate_matching(self, args, kwargs, result):
        self.count("incarnate.realized_entries", result.rows * result.cols)

    # -- patching --------------------------------------------------------

    @staticmethod
    def _namespaces():
        return [
            vars(mod)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "curcat" or name.startswith("curcat."))
        ]

    def _rebind_everywhere(self, original, replacement) -> None:
        for space in self._namespaces():
            for key, value in list(space.items()):
                if value is original:
                    self._patches.append((space, key, original))
                    space[key] = replacement

    def enable(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already enabled")
        hooks = {
            "diagrams.compose": (self._before_compose, None),
            "exact.rref": (None, self._after_rref),
            "exact.solve_affine": (self._before_solve_affine, None),
            "incarnate.incarnate_matching": (None, self._after_incarnate_matching),
        }
        for mod_name, fn_name in SPANNED:
            original = vars(_module(mod_name))[fn_name]
            qualified = f"{mod_name}.{fn_name}"
            name = SPAN_ALIASES.get(qualified, qualified)
            before, after = hooks.get(qualified, (None, None))
            self._rebind_everywhere(original, self._span_wrapper(original, name, before, after))
        self._solver_ids = {self._name_id(n) for n in SOLVER_SPANS}
        for mod_name, cls_name, method, counter in COUNTED:
            cls = vars(_module(mod_name))[cls_name]
            original = cls.__dict__[method]

            def counting(*args, _original=original, _counter=counter, **kwargs):
                self.counters[self.op_id][_counter] += 1
                return _original(*args, **kwargs)

            self._patches.append((cls, method, original))
            setattr(cls, method, counting)

    def disable(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches = []

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Per op, the summed self seconds and call count of each span name."""
        n = len(self.span_name)
        child_time = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child_time[p] += self.span_end[i] - self.span_start[i]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name = self.names[self.span_name[i]]
            per_op = out[self.span_op[i]]
            per_op[name + ".self_s"] += self.span_end[i] - self.span_start[i] - child_time[i]
            per_op[name + ".calls"] += 1
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.span_op[i]}\t{self.names[self.span_name[i]]}\t"
                    f"{self.span_start[i]!r}\t{self.span_end[i]!r}\t{self.span_parent[i]}\n"
                )
