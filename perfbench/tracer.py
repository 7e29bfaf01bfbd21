"""Layer timing from outside the package.

A Tracer replaces selected optbench functions with timed wrappers for
the duration of a `with tracer.installed():` block. Every module-level
name that is bound to the original function is rebound, so a call is
counted wherever the package sees it: `bs_price` as both `simgen` and
`cli` import it, `best_split` as `gbdt` looks it up, `read_csv` as `cli`
imports it. Class attributes (`Dataset.from_quotes`, `Tree.predict`)
are patched on the class. Nothing inside the package is edited.

Totals are kept in memory per span name: seconds, calls and any
counts a counter function extracts (rows, bytes). Spans nest: a
`simgen.generate_dataset` span includes the `blackscholes.bs_price`
calls made under it.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter, defaultdict


def _rows(arg) -> int:
    shape = getattr(arg, "shape", None)
    return int(shape[0]) if shape else len(arg)


# span name -> (module, attribute, counter). A counter maps
# (args, result) to {count name: amount}. Methods list their class.
TARGETS = {
    "simgen.generate_dataset": (
        "optbench.simgen", "generate_dataset",
        lambda args, result: {"simgen.quotes": len(result)},
    ),
    "blackscholes.bs_price": ("optbench.blackscholes", "bs_price", None),
    "simgen.realized_vol": ("optbench.simgen", "realized_vol", None),
    "ingest.write_csv": (
        "optbench.ingest", "write_csv",
        lambda args, result: {"ingest.write_csv_rows": len(args[0])},
    ),
    "ingest.read_csv": (
        "optbench.ingest", "read_csv",
        lambda args, result: {"ingest.read_csv_bytes": os.path.getsize(args[0])},
    ),
    "ingest.save_model": (
        "optbench.ingest", "save_model",
        lambda args, result: {"ingest.model_bytes": os.path.getsize(result)},
    ),
    "ingest.load_model": ("optbench.ingest", "load_model", None),
    "core.filter_quotes": (
        "optbench.core", "filter_quotes",
        lambda args, result: {"core.rows_dropped": result.dropped_count},
    ),
    "core.from_quotes": ("optbench.core", "Dataset.from_quotes", None),
    "core.split_dataset": ("optbench.core", "split_dataset", None),
    "gbdt.quantize_features": ("optbench.gbdt", "quantize_features", None),
    "gbdt.best_split": ("optbench.gbdt", "best_split", None),
    "gbdt.tree_predict": (
        "optbench.gbdt", "Tree.predict",
        lambda args, result: {"gbdt.tree_predict_rows": _rows(args[1])},
    ),
    "mlp.backward": ("optbench.mlp", "_backward_scaled", None),
    "mlp.adam_step": ("optbench.mlp", "adam_step", None),
    "mlp.forward": ("optbench.mlp", "_forward_scaled", None),
    "evaluation.compare_models": ("optbench.evaluation", "compare_models", None),
    "evaluation.write_report": ("optbench.evaluation", "write_report", None),
}


class Tracer:
    """Accumulated seconds, calls and counts per span name."""

    def __init__(self) -> None:
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def add(self, other: "Tracer", weight: float = 1.0) -> None:
        for mine, theirs in ((self.seconds, other.seconds), (self.calls, other.calls),
                             (self.counts, other.counts)):
            for name, value in theirs.items():
                mine[name] += weight * value

    def to_dict(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Tracer":
        tracer = cls()
        tracer.seconds.update(doc["seconds"])
        tracer.calls.update(doc["calls"])
        tracer.counts.update(doc["counts"])
        return tracer

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.seconds[name] += time.perf_counter() - start
                self.calls[name] += 1
            if counter is not None:
                self.counts.update(counter(args, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Route every TARGETS function through this tracer, then restore."""
        undo = []
        try:
            for name, (module_name, attr, counter) in TARGETS.items():
                undo.extend(self._install(name, module_name, attr, counter))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _install(self, name, module_name, attr, counter):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__.get(method)
            if raw is None:
                print(f"trace: {module_name}.{attr} not found; {name} reads 0",
                      file=sys.stderr)
                return []
            if isinstance(raw, classmethod):
                replacement = classmethod(self._wrap(name, raw.__func__, counter))
            else:
                replacement = self._wrap(name, raw, counter)
            setattr(cls, method, replacement)
            return [(cls, method, raw)]
        original = getattr(module, attr, None)
        if original is None:
            print(f"trace: {module_name}.{attr} not found; {name} reads 0",
                  file=sys.stderr)
            return []
        wrapper = self._wrap(name, original, counter)
        undo = []
        for mod_name, mod in list(sys.modules.items()):
            if (mod_name == "optbench" or mod_name.startswith("optbench.")) and (
                mod.__dict__.get(attr) is original
            ):
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, original))
        return undo
