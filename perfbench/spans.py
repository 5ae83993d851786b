"""In-memory span recorder and the wrappers that time rank1check's layers.

Spans are recorded from outside the package: `install` replaces each public
function listed in WRAPPED at the module attribute its callers look up, and
`uninstall` puts the originals back.  A span is
(id, name, tag, start, end, parent, op, phase); `tag` carries the argument
facts a per-layer metric is keyed by (test kind, shape).  Times come from
time.perf_counter, which is CLOCK_MONOTONIC on Linux and so comparable across
the benchmark's processes.
"""

from __future__ import annotations

import itertools
import json
import threading
import time


def shape_key(dims) -> str:
    """'d4n16' for equal axes, else the dims joined by 'x'."""
    dims = tuple(dims)
    if len(set(dims)) == 1:
        return f"d{len(dims)}n{dims[0]}"
    return "x".join(str(n) for n in dims)


def _tag_kind_shape(f, kind, *args, **kwargs) -> str:
    return f"{kind}|{shape_key(f.shape.dims)}"


def _tag_estimate(f, kind, trials, *args, **kwargs) -> str:
    return f"{kind}|{shape_key(f.shape.dims)}|{trials}"


def _tag_shape(f, *args, **kwargs) -> str:
    return shape_key(f.shape.dims)


def _tag_table(table, *args, **kwargs) -> str:
    return f"d{len(table).bit_length() - 1}"


def _tag_argv(argv=None) -> str:
    return " ".join(argv or ())


# (module, attribute, span name, tag function).  Every attribute a caller
# resolves at call time is listed, so calls made from inside the package go
# through the wrapper too (for example agreement's own `nearest_affine`).
WRAPPED = (
    ("harness", "estimate_rejection", "harness.estimate_rejection", _tag_estimate),
    ("harness", "generate", "harness.generate", None),
    ("harness", "run_sweep", "harness.run_sweep", None),
    ("harness", "BinaryTensor", "core.BinaryTensor", None),
    ("oracles", "exact_rejection", "oracles.exact_rejection", _tag_kind_shape),
    ("oracles", "exact_blr_rejection", "oracles.exact_blr_rejection", _tag_table),
    ("oracles", "nearest_direct_sum", "oracles.nearest_direct_sum", _tag_shape),
    ("oracles", "nearest_affine", "oracles.nearest_affine", _tag_table),
    ("oracles", "best_anchor_decode", "oracles.best_anchor_decode", None),
    ("agreement", "nearest_affine", "oracles.nearest_affine", _tag_table),
    ("agreement", "exact_alpha_rejection", "agreement.exact_alpha_rejection", None),
    ("agreement", "exact_fixed_t_rejection", "agreement.exact_fixed_t_rejection", None),
    ("agreement", "dp_plurality_decode", "agreement.dp_plurality_decode", None),
    ("agreement", "sic_to_dp_bridge", "agreement.sic_to_dp_bridge", None),
    ("cli", "BinaryTensor", "core.BinaryTensor", None),
    ("cli", "tensor_from_text", "core.tensor_text", None),
    ("cli", "tensor_to_text", "core.tensor_text", None),
    ("cli", "main", "cli.main", _tag_argv),
    ("spectral", "build_skeleton", "spectral.build_skeleton", None),
    ("spectral", "verify_spectrum", "spectral.verify_spectrum", None),
    ("testers", "blr_table", "testers.blr_table", None),
)

class Tracer:
    """Collects spans; `op` and `phase` label every span opened after they are set.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with nothing open there takes the innermost span open on the
    thread that created the tracer as its parent, which is the call that
    handed the work to the pool.
    """

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[list] = []
        self.op = 0
        self.phase = "setup"
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._main_stack: list = []
        self._local.stack = self._main_stack
        self._originals: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str, tag):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                main = tracer._main_stack
                parent = main[-1] if main else None
            span_id = next(tracer._ids)
            label = tag(*args, **kwargs) if tag is not None else ""
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    [span_id, name, label, start, end, parent, tracer.op, tracer.phase]
                )

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every WRAPPED attribute; `modules` maps short names to modules."""
        for mod_name, attr, name, tag in WRAPPED:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, tag))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def dump(self, path, mode: str = "w") -> None:
        with open(path, mode, encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[list]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def rank1check_modules() -> dict:
    from rank1check import agreement, cli, core, harness, oracles, spectral, testers

    return {"agreement": agreement, "cli": cli, "core": core, "harness": harness,
            "oracles": oracles, "spectral": spectral, "testers": testers}


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list] = {}
    for s in spans:
        if s[5] is not None:
            children.setdefault(s[5], []).append((s[3], s[4]))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s[3]
        for start, end in sorted(children.get(s[0], ())):
            start = max(start, cursor)
            end = min(end, s[4])
            if end > start:
                covered += end - start
                cursor = end
        out[s[0]] = (s[4] - s[3]) - covered
    return out
