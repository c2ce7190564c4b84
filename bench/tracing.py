"""Per-layer tracing for the benchmark's traced run.

The tracer rebinds each layer's public functions with a wrapper that records
a span: name, parent span, start and end.  A function is rebound in every
``berezin_lab`` module that holds a reference to it (``submersion.spectrum``
and ``symmetry.build_berezin`` as well as ``spectral.spectrum`` and
``symbols.build_berezin``), so calls are caught whichever module makes them.
Spans stay in memory until the run ends.  A function that no longer exists
is reported as absent and its metrics read zero.

Every per-layer metric names the end-to-end metric it should move and the
workloads on which it should move it.
"""

from __future__ import annotations

import functools
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "berezin_lab"
ALL = ("sweep-n4", "check-n16", "spectrum-n16", "verify-n12")

# (function, end-to-end metric it should move, workloads)
FUNCTIONS = [
    ("cli.main", "op_p50_ms", ("sweep-n4", "spectrum-n16")),
    ("matrices.haar_random_unitary", "matrices_per_s", ("sweep-n4",)),
    ("matrices.validate_unitary", "matrices_per_s", ("sweep-n4",)),
    ("matrices.load_matrix", "op_p50_ms", ("spectrum-n16",)),
    ("symbols.build_berezin", "op_p50_ms", ("check-n16", "spectrum-n16")),
    ("symbols.BerezinTransform.apply", "op_p50_ms", ("verify-n12",)),
    ("symbols.berezin_from_composition", "op_p50_ms", ("verify-n12",)),
    ("symbols.c_symbol_to_operator", "op_p50_ms", ("verify-n12",)),
    ("symbols.d_symbol_to_operator", "op_p50_ms", ("verify-n12",)),
    ("symbols.operator_to_c_symbol", "op_p50_ms", ("verify-n12",)),
    ("symbols.operator_to_d_symbol", "op_p50_ms", ("verify-n12",)),
    ("spectral.spectrum", "op_p50_ms", ("check-n16",)),
    ("spectral.standardized_matrix", "op_p50_ms", ("check-n16",)),
    ("spectral.cluster_eigenvalues", "matrices_per_s", ("sweep-n4",)),
    ("submersion.submersion_sweep", "matrices_per_s", ("sweep-n4",)),
    ("submersion.jacobian_report", "op_p50_ms", ("check-n16",)),
    ("submersion.tangent_direction", "matrices_per_s", ("sweep-n4",)),
    ("submersion.skew_hermitian_basis", "matrices_per_s", ("sweep-n4",)),
    ("symmetry.check_shift_commutation", "op_p50_ms", ("verify-n12",)),
    ("symmetry.fourier_eigenfunction_check", "op_p50_ms", ("verify-n12",)),
    ("symmetry.verify_symmetric_family_spectrum", "op_p50_ms", ("verify-n12",)),
    ("symmetry.check_weyl_relations", "op_p50_ms", ("verify-n12",)),
    ("symmetry.check_permutation_equivariance", "op_p50_ms", ("verify-n12",)),
]

# Spans kept only to tell who called spectrum(); their self time (output
# formatting) is credited to cli.main.
MARKERS = ("cli.cmd_spectrum", "cli.cmd_theorem_check", "cli.cmd_sweep", "cli.cmd_verify_all")
# spectrum() calls whose eigenvalues reach an output
USEFUL_SPECTRUM_PARENTS = ("cli.cmd_spectrum", "symmetry.verify_symmetric_family_spectrum")

# (name, unit, better, end-to-end metric it should move, workloads)
DERIVED = [
    ("cli.output_bytes", "B/op", "lower", "op_p50_ms", ("sweep-n4", "spectrum-n16")),
    ("symbols.dense_bytes", "B/op", "lower", "peak_rss_mb", ("check-n16", "spectrum-n16")),
    ("spectral.spectrum_useful_ratio", "ratio", "higher", "op_p50_ms", ("check-n16",)),
    ("trace.untraced_op_p50_ms", "ms", "lower", "op_p50_ms", ALL),
    ("trace.traced_op_p50_ms", "ms", "lower", "op_p50_ms", ALL),
    ("trace.overhead_frac", "ratio", "lower", "op_p50_ms", ALL),
    ("trace.accounted_frac", "ratio", "higher", "op_p50_ms", ALL),
]


def per_layer_metrics() -> list:
    """Every per-layer metric as {name, unit, better, moves, workloads}."""
    out = []
    for fn, moves, workloads in FUNCTIONS:
        out.append({"name": f"{fn}.calls", "unit": "count/op", "better": "lower",
                    "moves": moves, "workloads": workloads})
        out.append({"name": f"{fn}.self_s", "unit": "s/op", "better": "lower",
                    "moves": moves, "workloads": workloads})
    for name, unit, better, moves, workloads in DERIVED:
        out.append({"name": name, "unit": unit, "better": better,
                    "moves": moves, "workloads": workloads})
    return out


def _resolve(qualname: str):
    """(owner, attribute, function) for 'module.func' or 'module.Class.method',
    or None when it no longer exists."""
    module, *path = qualname.split(".")
    owner = sys.modules.get(f"{PACKAGE}.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    fn = getattr(owner, path[-1], None) if owner is not None else None
    return (owner, path[-1], fn) if callable(fn) else None


class Tracer:
    """Records spans while installed.  Each span is [name, parent, start, end],
    parent being the index of the enclosing span in the same thread or -1."""

    def __init__(self):
        self.spans: list = []
        self.dense_bytes = 0
        self.absent: list = []
        self._local = threading.local()
        self._undo: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        self.absent = []
        for qualname in [fn for fn, _, _ in FUNCTIONS] + list(MARKERS):
            found = _resolve(qualname)
            if found is None:
                self.absent.append(qualname)
                continue
            owner, attr, fn = found
            wrapper = self._wrap(qualname, fn)
            if isinstance(owner, type):
                self._rebind(owner, attr, fn, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        self._rebind(module, name, fn, wrapper)

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._undo):
            setattr(owner, name, fn)
        self._undo = []

    def _rebind(self, owner, name, fn, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, fn))

    def _wrap(self, qualname: str, fn):
        spans, local = self.spans, self._local
        counts_dense = qualname == "symbols.build_berezin"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            if counts_dense:  # 16 n^4 bytes of complex n^2 x n^2 matrix per build
                u = args[0] if args else next(iter(kwargs.values()), None)
                self.dense_bytes += 16 * getattr(u, "n", 0) ** 4
            span = [qualname, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()

        return wrapper

    def self_times(self) -> tuple:
        """(calls, self seconds) per name.  Self time is a span's duration
        minus its children's; a marker's self time goes to its parent."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, own = Counter(), defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            if name in MARKERS and parent >= 0:
                name = self.spans[parent][0]
            else:
                calls[name] += 1
            own[name] += end - start - child[i]
        return calls, own

    def useful_spectrum_ratio(self) -> float:
        """Share of spectrum() calls whose eigenvalues reach an output;
        1 when spectrum() is not called at all (nothing is wasted)."""
        parents = [self.spans[p][0] if p >= 0 else None
                   for name, p, _, _ in self.spans if name == "spectral.spectrum"]
        if not parents:
            return 1.0
        return sum(p in USEFUL_SPECTRUM_PARENTS for p in parents) / len(parents)

    def layer_metrics(self, ops: int) -> dict:
        """Per-op calls and self seconds of every traced function, plus the
        computed dense-matrix bytes and the spectrum usefulness ratio."""
        calls, own = self.self_times()
        out = {}
        for fn, _, _ in FUNCTIONS:
            out[f"{fn}.calls"] = calls[fn] / ops
            out[f"{fn}.self_s"] = own[fn] / ops
        out["symbols.dense_bytes"] = self.dense_bytes / ops
        out["spectral.spectrum_useful_ratio"] = self.useful_spectrum_ratio()
        return out

    def total_self(self) -> float:
        return sum(self.self_times()[1].values())
