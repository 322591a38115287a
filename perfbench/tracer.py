"""Spans around the public functions of every ``liebider`` module.

The package imports functions by name (``from .linalg import ...``), so a
wrapper is bound to the function's name in every ``liebider`` module that
holds it, and in module-level dicts such as the catalog table.  Nothing in
``src/`` is edited; the wrappers exist only in the traced workload process.

A span records its name, start, end, parent span and the operation it ran
under.  Spans stay in memory until ``layer_metrics`` turns them into self
times (a span's duration minus its children's) and counts.
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter

MODULES = ("cli", "documents", "liealg", "linalg", "derivations",
           "biderivations", "vdecomp", "catalog")

# Leaf converters called once per matrix entry; their time stays in the
# caller's self time instead of paying a wrapper per entry.
UNWRAPPED = {"as_vector", "rational_str", "parse_rational"}

SETUP = -1  # operation index of spans made before the first operation


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, tag]
        self.stack: list[int] = []
        self.op = SETUP
        self.kernel = {"rows_in": 0, "row_nonzeros_in": 0, "kernel_dim_out": 0}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op, None])
        self.stack.append(index)
        return index

    def _close(self, index: int, tag=None) -> None:
        self.stack.pop()
        span = self.spans[index]
        span[2] = perf_counter()
        span[5] = tag

    def wrap(self, name: str, fn, tagger=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            tag = None
            try:
                result = fn(*args, **kwargs)
                if tagger is not None:
                    tag = tagger(result)
                return result
            finally:
                self._close(index, tag)

        traced.__wrapped__ = fn
        return traced

    def _kernel_of_rows(self, fn):
        """Drain the caller's rows first, so assembly and elimination split."""

        def traced(rows, ncols):
            index = self._open("linalg.kernel_of_rows")
            try:
                inner = self._open("linalg.assembly")
                try:
                    rows = list(rows)
                finally:
                    self._close(inner)
                inner = self._open("linalg.elimination")
                try:
                    space = fn(rows, ncols)
                finally:
                    self._close(inner)
                if self.op != SETUP:
                    self.kernel["rows_in"] += len(rows)
                    self.kernel["row_nonzeros_in"] += sum(len(r) for r in rows)
                    self.kernel["kernel_dim_out"] += space.dim
                return space
            finally:
                self._close(index)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(f"liebider.{name}") for name in MODULES}
        replace = {}
        for short, mod in modules.items():
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    if attr == "kernel_of_rows":
                        replace[value] = self._kernel_of_rows(value)
                    elif attr == "biderivation_violation":
                        replace[value] = self.wrap(
                            f"{short}.{attr}", value,
                            lambda v: "accept" if v is None else "reject")
                    else:
                        replace[value] = self.wrap(f"{short}.{attr}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replace:
                    setattr(mod, attr, replace[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in replace:
                            value[key] = replace[item]
        linalg = modules["linalg"]
        linalg.Matrix.__mul__ = self.wrap("linalg.Matrix.__mul__", linalg.Matrix.__mul__)
        linalg.Subspace.coefficients_of = self.wrap(
            "linalg.Subspace.coefficients_of", linalg.Subspace.coefficients_of)

    # -----------------------------------------------------------------------

    def layer_metrics(self, commands: list[str]) -> dict[str, float]:
        """Per-layer self times and counts over the operations of one round.

        ``commands`` names each operation's command, indexed like the
        operations.  Set-up spans count only towards ``catalog.catalog_s``.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        calls: dict[str, int] = {}
        setup_catalog = 0.0
        per_vdecomp = {"vdecomp.compute_V": 0, "derivations.is_complete": 0}
        for index, (name, start, end, _parent, op, tag) in enumerate(self.spans):
            own = end - start - child[index]
            if op == SETUP:
                if name.startswith("catalog."):
                    setup_catalog += own
                continue
            self_s[name] = self_s.get(name, 0.0) + own
            if tag:
                self_s[f"{name}:{tag}"] = self_s.get(f"{name}:{tag}", 0.0) + own
            total_s[name] = total_s.get(name, 0.0) + end - start
            calls[name] = calls.get(name, 0) + 1
            if name in per_vdecomp and commands[op] == "vdecomp":
                per_vdecomp[name] += 1
        vdecomp_ops = sum(1 for c in commands if c == "vdecomp")

        def s(*names: str) -> float:
            return sum(self_s.get(n, 0.0) for n in names)

        def c(name: str) -> int:
            return calls.get(name, 0)

        def per_op(name: str) -> float:
            return per_vdecomp[name] / vdecomp_ops if vdecomp_ops else 0.0

        return {
            "linalg.assembly_s": s("linalg.assembly"),
            "linalg.elimination_s": s("linalg.elimination"),
            "linalg.kernel_calls": c("linalg.kernel_of_rows"),
            "linalg.rows_in": self.kernel["rows_in"],
            "linalg.row_nonzeros_in": self.kernel["row_nonzeros_in"],
            "linalg.kernel_dim_out": self.kernel["kernel_dim_out"],
            "linalg.matmul_calls": c("linalg.Matrix.__mul__"),
            "linalg.matmul_s": s("linalg.Matrix.__mul__"),
            "linalg.coefficients_of_calls": c("linalg.Subspace.coefficients_of"),
            "linalg.coefficients_of_s": s("linalg.Subspace.coefficients_of"),
            "linalg.solve_linear_calls": c("linalg.solve_linear"),
            "linalg.solve_linear_s": s("linalg.solve_linear"),
            "linalg.subspace_combine_s": s("linalg.subspace_combine"),
            "biderivations.violation_calls": c("biderivations.biderivation_violation"),
            "biderivations.violation_accept_s": s("biderivations.biderivation_violation:accept"),
            "biderivations.violation_reject_s": s("biderivations.biderivation_violation:reject"),
            "biderivations.closure_s": s("biderivations.bider_bracket_closure"),
            "biderivations.two_step_s": s("biderivations.two_step_properties"),
            "biderivations.phi_psi_calls": c("biderivations.extract_phi_psi"),
            "biderivations.phi_psi_s": s("biderivations.extract_phi_psi"),
            "vdecomp.compute_V_calls": c("vdecomp.compute_V"),
            "vdecomp.compute_V_s": s("vdecomp.compute_V"),
            "vdecomp.compute_Vpm_calls": c("vdecomp.compute_Vpm"),
            "vdecomp.compute_Vpm_s": s("vdecomp.compute_Vpm"),
            "vdecomp.compute_V_per_op": per_op("vdecomp.compute_V"),
            "derivations.is_complete_calls": c("derivations.is_complete"),
            "derivations.is_complete_s": s("derivations.is_complete"),
            "derivations.is_complete_per_op": per_op("derivations.is_complete"),
            "derivations.derivation_space_calls": c("derivations.derivation_space"),
            "derivations.ad_preimage_calls": c("derivations.ad_preimage"),
            "derivations.ad_preimage_s": s("derivations.ad_preimage"),
            "liealg.center_calls": c("liealg.center"),
            "liealg.killing_form_s": s("liealg.killing_form"),
            "liealg.validate_calls": c("liealg.validate"),
            "liealg.validate_s": s("liealg.validate"),
            "liealg.bracket_calls": c("liealg.bracket"),
            "liealg.bracket_s": s("liealg.bracket"),
            "documents.load_s": s("documents.load_algebra_document", "documents.parse_algebra",
                                  "documents.parse_biderivation"),
            "documents.serialize_s": s("documents.serialize_document",
                                       "documents.algebra_to_document",
                                       "documents.biderivation_to_document",
                                       "documents.matrix_strs", "documents.vector_strs"),
            "cli.emit_report_s": s("cli.emit_report"),
            "cli.run_command_s": total_s.get("cli.run_command", 0.0),
            "catalog.catalog_s": setup_catalog,
        }

