"""Span recorder for the traced benchmark run.

The recorder times calls into semimat's layers from outside the program.
It wraps every attribute of the loaded ``semimat`` modules that is bound
to one of the listed layer functions, so ``semimat.certifier.compose``
and ``semimat.domination.compose`` are both wrapped, and restores them on
exit.  A listed function its module no longer defines is recorded as
absent.  Each call becomes one span: name, start, end, parent span and
operation id, kept in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from array import array

LAYERS = {
    "linalg": ("determinant", "solve_linear"),
    "matcat": ("compose", "enumerate_hom", "dominates"),
    "domination": ("action_matrix", "assemble_witness", "linear_combination",
                   "nonvanishing_coefficients", "endomorphisms_through",
                   "identity_in_span", "span_oracle"),
    "certifier": ("certify", "verify_certificate", "column_preorder",
                  "factor_through", "verify_preorder_map"),
    "certfile": ("render_certificate", "parse_certificate"),
    "semiring": ("verify_axioms",),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Sizes read from a layer's result.  Each repeats exactly for identical
# inputs; the recorder keeps the largest value seen while ``sized`` is set.
SIZES = {
    "matcat.enumerate_hom": ("size.m", len),
    "domination.linear_combination": ("size.x_nnz",
                                      lambda rows: sum(1 for row in rows for v in row if v)),
    "linalg.determinant": ("size.det_bits", lambda det: abs(det.numerator).bit_length()),
    "domination.endomorphisms_through": ("size.endos", len),
}


def semimat_modules() -> dict:
    """The loaded semimat package and its submodules, by dotted name."""
    importlib.import_module("semimat.cli")
    return {name: mod for name, mod in sys.modules.items()
            if name == "semimat" or name.startswith("semimat.")}


class Recorder:
    """Context manager that wraps the layer functions and records spans."""

    def __init__(self) -> None:
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.op_ids = array("L")
        self.op = 0
        self.sized = True
        self.sizes = dict.fromkeys(key for key, _ in SIZES.values())
        self.absent: list[str] = []
        self.wrapped: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        mods = semimat_modules()
        for name_id, name in enumerate(FUNCTIONS):
            home, fn = name.split(".")
            original = getattr(mods.get(f"semimat.{home}"), fn, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name_id, name, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
                        self.wrapped[name] = self.wrapped.get(name, 0) + 1
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name_id: int, name: str, original):
        name_ids, starts, ends = self.name_ids, self.starts, self.ends
        parents, op_ids, stack = self.parents, self.op_ids, self._stack
        clock = time.perf_counter
        size = SIZES.get(name)
        sizes = self.sizes

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            op_ids.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if size is not None and self.sized:
                key, measure = size
                value = measure(result)
                if sizes[key] is None or value > sizes[key]:
                    sizes[key] = value
            return result

        return traced

    def __len__(self) -> int:
        return len(self.starts)

    def span_self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover.

        Calls nest (one thread), so child spans are disjoint and lie
        inside their parent; their durations add up to the time covered.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        own = [e - s for s, e in zip(starts, ends)]
        for i, parent in enumerate(parents):
            if parent >= 0:
                own[parent] -= ends[i] - starts[i]
        return own

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self seconds per listed function."""
        calls = [0] * len(FUNCTIONS)
        self_s = [0.0] * len(FUNCTIONS)
        for name_id, own in zip(self.name_ids, self.span_self_times()):
            calls[name_id] += 1
            self_s[name_id] += own
        return {name: (calls[i], self_s[i]) for i, name in enumerate(FUNCTIONS)}

    def write(self, path) -> None:
        """Write every span as gzip-compressed tab-separated text."""
        base = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, name_id in enumerate(self.name_ids):
                out.write(f"{i}\t{FUNCTIONS[name_id]}\t{self.starts[i] - base:.9f}\t"
                          f"{self.ends[i] - base:.9f}\t{self.parents[i]}\t{self.op_ids[i]}\n")
