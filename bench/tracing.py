"""Traced runs: spans around the calls into each library layer.

`Tracer.install()` wraps the public functions listed in `TRACED` from the
outside.  Each wrapper replaces the name in its defining module and in
every `wittcert` module that imported it (so `vanish.buchberger` and
`dieudonne.smith_normal_form` are traced too); methods are replaced on
their class.  Nothing under `src/` changes, and an untraced run installs
no wrappers at all.

A span is (name, start, end, parent, op id).  Spans are kept in memory
and written out when the run ends; self time is a span's duration minus
the time covered by its child spans, accumulated online so that the
per-layer totals stay exact even when the stored span list is capped.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path) of every traced entry point.  Names are
# reported as "<module>.<attribute path>", e.g. "derham.PresentedRing.make".
TRACED = (
    ("polyring", "buchberger"),
    ("polyring", "normal_form"),
    ("polyring", "eliminate"),
    ("polyring", "pth_root_ideal"),
    ("polyring", "krull_dim"),
    ("derham", "PresentedRing.make"),
    ("derham", "PresentedRing.normal"),
    ("derham", "top_form_presentation"),
    ("wittvec", "build_witt_table"),
    ("wittvec", "witt_add"),
    ("wittvec", "witt_mul"),
    ("wittvec", "witt_neg"),
    ("wittvec", "frobenius"),
    ("wittvec", "ghost"),
    ("dieudonne", "DieudonneModel.block"),
    ("dieudonne", "DieudonneModel.op_matrix"),
    ("dieudonne", "DieudonneModel.apply"),
    ("dieudonne", "a1_model"),
    ("dieudonne", "check_axioms"),
    ("dieudonne", "saturation_witness"),
    ("dieudonne", "f_cancellation_check"),
    ("dieudonne", "compare_wr_with_cohomology"),
    ("dieudonne", "w1_vanishing_propagation_check"),
    ("dieudonne", "frobenius_injectivity_degree0_check"),
    ("modarith", "smith_normal_form"),
    ("modarith", "kernel_basis"),
    ("modarith", "solve_linear"),
    ("modarith", "SubmoduleBasis.__init__"),
    ("vanish", "certify_top_vanishing"),
    ("vanish", "verify_certificate"),
    ("vanish", "closure_state"),
    ("vanish", "VanishingCertificate.from_json"),
    ("vanish", "kernel_of_tuple"),
    ("vanish", "certify_tuple_vanishing"),
)

CHECKERS = (
    "check_axioms",
    "saturation_witness",
    "f_cancellation_check",
    "compare_wr_with_cohomology",
    "w1_vanishing_propagation_check",
    "frobenius_injectivity_degree0_check",
)

WITT_OPS = ("witt_add", "witt_mul", "witt_neg", "frobenius")

# Spans beyond this many are aggregated but not stored, so a traced run's
# memory stays bounded however many small calls a workload makes.
MAX_STORED_SPANS = 200_000


def _witt_domain_tag(vec) -> str:
    """int: integer oracle; fp: F_p (a presentation with no variables, as
    the CLI builds it, or plain residues); ring: any other presented ring."""
    domain = vec.domain
    if not getattr(domain, "char_p", False):
        return "int"
    presentation = getattr(domain, "presentation", None)
    if presentation is None or presentation.ring.nvars == 0:
        return "fp"
    return "ring"


def _metric_name(module: str, attr: str) -> str:
    if attr == "SubmoduleBasis.__init__":
        attr = "SubmoduleBasis"
    return f"{module}.{attr}"


class Tracer:
    """Span recorder and per-function aggregates for one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.op_id = -1
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span index or -1, child time, parent index]
        self._tables_seen: set = set()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"wittcert.{name}")
            for name in ("modarith", "polyring", "wittvec", "derham", "dieudonne", "vanish", "cli")
        }
        modules["__init__"] = importlib.import_module("wittcert")
        for module_name, attr in TRACED:
            module = modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                is_static = isinstance(raw, staticmethod)
                func = raw.__func__ if is_static else raw
                wrapped = self._wrap(func, module_name, attr)
                setattr(cls, meth, staticmethod(wrapped) if is_static else wrapped)
                continue
            func = getattr(module, attr)
            wrapped = self._wrap(func, module_name, attr)
            for other in modules.values():
                for key, value in list(vars(other).items()):
                    if value is func:
                        setattr(other, key, wrapped)

    def _wrap(self, func, module_name: str, attr: str):
        name = _metric_name(module_name, attr)
        witt_op = module_name == "wittvec" and attr in WITT_OPS
        on_result = self._result_hook(attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            span_name = f"{name}.{_witt_domain_tag(args[0])}" if witt_op else name
            frame = tracer._enter()
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(span_name, frame, start, time.perf_counter())
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = getattr(func, "__name__", attr)
        wrapper.__doc__ = func.__doc__
        return wrapper

    # -- spans ----------------------------------------------------------------

    def _enter(self) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        index = -1
        if len(self.spans) < MAX_STORED_SPANS:
            index = len(self.spans)
            self.spans.append(None)
        else:
            self.dropped += 1
        frame = [index, 0.0, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, start: float, end: float) -> None:
        self._stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration
        if frame[0] >= 0:
            self.spans[frame[0]] = (name, start, end, frame[2], self.op_id)

    # -- deterministic work counts, read off return values -------------------

    def _result_hook(self, attr: str):
        counts = self.counts
        if attr == "buchberger":
            def hook(args, ideal):
                counts["polyring.buchberger.basis_terms"] += sum(len(g.terms) for g in ideal.basis)
            return hook
        if attr == "build_witt_table":
            def hook(args, table):
                key = (table.p, table.r)
                if key not in self._tables_seen:
                    self._tables_seen.add(key)
                    polys = table.sum_polys + table.prod_polys + table.neg_polys + table.frob_polys
                    counts["wittvec.build_witt_table.terms"] += sum(len(t) for t in polys)
            return hook
        if attr == "smith_normal_form":
            def hook(args, snf):
                counts["modarith.smith_normal_form.cells"] += args[0].rows * args[0].cols
            return hook
        if attr == "certify_top_vanishing":
            def hook(args, cert):
                counts["vanish.descent_steps"] += len(cert.steps)
            return hook
        if attr == "closure_state":
            def hook(args, state):
                counts["vanish.closure_generations"] += state.generations
            return hook
        if attr in CHECKERS:
            def hook(args, report):
                counts["dieudonne.checked"] += report.checked
                counts["dieudonne.inconclusive"] += len(report.inconclusive)
            return hook
        return None

    # -- output ---------------------------------------------------------------

    def metric(self, name: str) -> float:
        """Value of one per-layer metric name (0 for a layer not exercised)."""
        if name in self.counts:
            return self.counts[name]
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            return self.calls.get(base, 0)
        if stat == "self_s":
            return self.self_s.get(base, 0.0)
        return 0

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"stored": len(self.spans), "dropped": self.dropped}) + "\n")
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
