"""The package functions a traced run wraps, and the per-layer metrics it reports.

A layer is one module of the package.  For each function below the traced run
reports ``<layer>.<function>.calls`` and ``.self_s``, plus the listed ratio or
count where a layer can waste work.  Nothing under ``src/`` is edited: the
wrappers are installed on every module-level binding of the function and, for
methods, on ``TensorOperator``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Callable

from spans import Tracer, inclusive_time, rebind, self_times

PACKAGE = "isotwirl"
SUITES = ("saturation", "support", "oracle", "tail", "xybound")
DENSE_BASELINE = (2, 8)  # the ROADMAP's projector-family row


@dataclass
class Layer:
    metric: str
    module: str
    attr: str
    leaf: bool = False  # aggregate per parent span: high-frequency calls
    distinct: Callable[[tuple, dict], object] | None = None
    nonzero: bool = False
    rows: Callable[[tuple, dict], int] | None = None
    label: Callable[[tuple, dict], object] | None = None
    keys: set = field(default_factory=set)
    nonzero_calls: int = 0
    row_total: int = 0

    def observe(self, args: tuple, kwargs: dict, result: object) -> None:
        if self.distinct is not None:
            self.keys.add(self.distinct(args, kwargs))
        if self.nonzero and result:
            self.nonzero_calls += 1
        if self.rows is not None:
            self.row_total += self.rows(args, kwargs)


def _three_frames(args: tuple, kwargs: dict) -> tuple:
    return tuple(f.reduced for f in args[:3])


def _dense_size(args: tuple, kwargs: dict) -> tuple[int, int]:
    return (args[0], args[1])


def make_layers() -> list[Layer]:
    """Fresh layer records; leaves are the functions called thousands of times per run."""
    return [
        Layer("frames.enumerate_frames", "frames", "enumerate_frames", leaf=True),
        Layer("frames.dim_sym", "frames", "dim_sym", leaf=True),
        Layer("frames.dim_unitary", "frames", "dim_unitary", leaf=True),
        Layer("symmetric_group.character", "symmetric_group", "character", leaf=True),
        Layer("symmetric_group.enumerate_group", "symmetric_group", "enumerate_group", leaf=True),
        Layer("lr.lr_coefficient", "lr", "lr_coefficient", leaf=True, distinct=_three_frames),
        Layer("lr.lr_nonzero_pairs", "lr", "lr_nonzero_pairs", leaf=True),
        Layer("lr.lr_via_characters", "lr", "lr_via_characters", leaf=True),
        Layer("horn.branching_disjoint", "horn", "branching_disjoint", leaf=True),
        Layer("horn.horn_feasible", "horn", "horn_feasible", leaf=True),
        Layer("spectra.channel_output_spectrum", "spectra", "channel_output_spectrum"),
        Layer("spectra.twirl_spectrum", "spectra", "twirl_spectrum",
              distinct=lambda a, kw: (a[0].reduced, a[1], a[2])),
        Layer("spectra.partial_trace_decomposition", "spectra", "partial_trace_decomposition", leaf=True),
        Layer("spectra.paired_block_overlap", "spectra", "paired_block_overlap", leaf=True, nonzero=True),
        Layer("spectra.sweep_to_csv", "spectra", "sweep_to_csv"),
        Layer("oracle.isotypical_projectors", "oracle", "isotypical_projectors", leaf=True,
              distinct=_dense_size, label=_dense_size),
        Layer("oracle.depolarise_n", "oracle", "depolarise_n"),
        Layer("oracle.insert_maximally_mixed", "oracle", "insert_maximally_mixed", leaf=True),
        Layer("oracle.partial_trace", "oracle", "TensorOperator.partial_trace", leaf=True),
        Layer("oracle.hs_product", "oracle", "TensorOperator.hs_product", leaf=True),
        Layer("oracle.matmul", "oracle", "TensorOperator.__matmul__", leaf=True),
        Layer("oracle.is_positive_semidefinite", "oracle", "is_positive_semidefinite", leaf=True,
              rows=lambda a, kw: a[0].mat.shape[0]),
        Layer("oracle.twirl", "oracle", "twirl", leaf=True),
        Layer("cli.main", "cli", "main"),
    ]


def install(tracer: Tracer, layers: list[Layer]) -> None:
    """Wrap every layer function and every verification suite in ``tracer`` spans."""
    for layer in layers:
        module = importlib.import_module(f"{PACKAGE}.{layer.module}")
        observe = layer.observe if (layer.distinct or layer.nonzero or layer.rows) else None
        if "." in layer.attr:
            cls_name, method = layer.attr.split(".")
            cls = getattr(module, cls_name)
            original = vars(cls)[method]
            setattr(cls, method, tracer.wrap(layer.metric, original, leaf=layer.leaf,
                                             observe=observe, label=layer.label))
            continue
        original = getattr(module, layer.attr)
        wrapper = tracer.wrap(layer.metric, original, leaf=layer.leaf, observe=observe, label=layer.label)
        if not rebind(PACKAGE, original, wrapper):
            raise RuntimeError(f"no binding of {layer.module}.{layer.attr} found")
    verify = importlib.import_module(f"{PACKAGE}.verify")
    for name in SUITES:
        original = verify.SUITES[name]
        wrapper = tracer.wrap(f"verify.suite.{name}", original)
        verify.SUITES[name] = wrapper
        rebind(PACKAGE, original, wrapper)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: list[tuple[str, str]] = []
    for layer in make_layers():
        out += [(f"{layer.metric}.calls", "count"), (f"{layer.metric}.self_s", "s")]
        if layer.distinct is not None:
            out.append((f"{layer.metric}.distinct_ratio", "ratio"))
        if layer.nonzero:
            out.append((f"{layer.metric}.nonzero_ratio", "ratio"))
        if layer.rows is not None:
            out.append((f"{layer.metric}.rows", "count"))
    for name in SUITES:
        out += [(f"verify.suite.{name}.self_s", "s"), (f"verify.suite.{name}.wall_s", "s")]
    d, n = DENSE_BASELINE
    out.append((f"oracle.isotypical_projectors.d{d}_n{n}_wall_s", "s"))
    return out


def layer_metrics(tracer: Tracer, layers: list[Layer]) -> dict[str, float]:
    """Per-layer values of one traced run; 0 for layers the workload never calls."""
    totals = self_times(tracer.spans)
    out: dict[str, float] = {}
    for layer in layers:
        calls, self_s = totals.get(layer.metric, (0, 0.0))
        out[f"{layer.metric}.calls"] = calls
        out[f"{layer.metric}.self_s"] = self_s
        if layer.distinct is not None:
            out[f"{layer.metric}.distinct_ratio"] = len(layer.keys) / calls if calls else 0.0
        if layer.nonzero:
            out[f"{layer.metric}.nonzero_ratio"] = layer.nonzero_calls / calls if calls else 0.0
        if layer.rows is not None:
            out[f"{layer.metric}.rows"] = layer.row_total
    for name in SUITES:
        span_name = f"verify.suite.{name}"
        out[f"{span_name}.self_s"] = totals.get(span_name, (0, 0.0))[1]
        out[f"{span_name}.wall_s"] = inclusive_time(tracer.spans, span_name)
    d, n = DENSE_BASELINE
    out[f"oracle.isotypical_projectors.d{d}_n{n}_wall_s"] = inclusive_time(
        tracer.spans, "oracle.isotypical_projectors", label=DENSE_BASELINE)
    return out
