"""In-memory span tracer for the benchmark and the per-layer metrics derived from it.

The tracer wraps the public entry points of each ``kitaev_chain`` layer from
the outside: the package modules stay untouched, and every wrapper records one
span ``[name, start, end, parent, run_id, attrs]``.  ``parent`` is the index of
the enclosing span in the same process (-1 for a root span), ``run_id`` names
the unit of work the span belongs to (a ladder point, a CLI command, an
observables state) and ``attrs`` holds the counts measured at that boundary
(bond dimension after a gate, SVD work, rotations in a plan, an exception
name).  Spans stay in memory until :meth:`Tracer.dump`.

``install`` needs ``kitaev_chain`` importable; ``layer_metrics`` and the
metric tables use the standard library only, so the orchestrator can use them
without importing numpy.
"""

from __future__ import annotations

import functools
import json
import time
from pathlib import Path

from workloads import LADDER_POINTS, LADDER_SIZES

LADDER_LABELS = tuple(f"{point}.N{n}" for point, _, _ in LADDER_POINTS for n in LADDER_SIZES)

#: Per-layer metrics reported by a traced run, with their units.  Times and
#: counts are per pass of the workload; ``peak_chi`` values are maxima.
PER_LAYER = {
    "tensor.svd_calls": "count",
    "tensor.svd_s": "s",
    "tensor.svd_work": "mnk-computed",
    "tensor.gate2_calls": "count",
    "tensor.gate2_s": "s",
    "tensor.gate2_other_s": "s",
    "tensor.gate1_calls": "count",
    "tensor.gate1_s": "s",
    "tensor.peak_chi": "bond-dim",
    "tensor.overflows": "count",
    "folding.plan_s": "s",
    "folding.rotations": "count",
    "folding.gates_applied": "count",
    "folding.gates_two_site": "count",
    "folding.replay_s": "s",
    "folding.replay_self_s": "s",
    **{f"tensor.peak_chi.{label}": "bond-dim" for label in LADDER_LABELS},
    **{f"folding.gates_applied.{label}": "count" for label in LADDER_LABELS},
    **{f"folding.replay_s.{label}": "s" for label in LADDER_LABELS},
    "quadratic.calls": "count",
    "quadratic.busy_s": "s",
    "tensor.rdm_ends_s": "s",
    "tensor.rdm_pair_s": "s",
    "tensor.rdm_site_s": "s",
    "tensor.energy_s": "s",
    "tensor.parity_s": "s",
    "tensor.canonical_s": "s",
    "tensor.json_s": "s",
    "correlations.z_s": "s",
    "correlations.particles_s": "s",
    "correlations.saturate_s": "s",
    "correlations.chains_built": "count",
    "correlations.converged": "count",
    "cli.zscan_s": "s",
    "cli.particles_s": "s",
    "cli.energy_accuracy_s": "s",
    "cli.self_s": "s",
    "failed_frac": "ratio",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

# Module-level functions wrapped wherever a module looks them up by name.
_FUNCTIONS = {
    "build_coupling_matrix": "quadratic.build",
    "schur_decompose": "quadratic.schur",
    "compute_folding_plan": "folding.plan",
    "reconstruct_eigenstate": "folding.replay",
    "prepare_eigenstate": "folding.prepare",
    "energy_expectation": "tensor.energy",
    "z_value": "correlations.z",
    "z_saturated": "correlations.saturate",
    "mean_particle_number": "correlations.particles",
    "cmd_zscan": "cli.zscan",
    "cmd_particles": "cli.particles",
    "cmd_energy_accuracy": "cli.energy_accuracy",
    "main": "cli.main",
}

# TensorChain methods, wrapped on the class.
_METHODS = {
    "apply_two_site_gate": "tensor.gate2",
    "apply_single_site_gate": "tensor.gate1",
    "rdm_ends": "tensor.rdm_ends",
    "rdm_pair": "tensor.rdm_pair",
    "rdm_site": "tensor.rdm_site",
    "parity_expectation": "tensor.parity",
    "canonical_residuals": "tensor.canonical",
    "to_json": "tensor.json",
}


def _gate2_attrs(args, kwargs, result):
    state, left_site = args[0], args[1]
    return {"chi": int(state.lambdas[left_site].size)}


def _svd_attrs(args, kwargs, result):
    m, n = args[0].shape[-2:]
    return {"work": int(m) * int(n) * min(int(m), int(n))}


def _plan_attrs(args, kwargs, result):
    return {"rotations": len(result.rotations)}


def _saturate_attrs(args, kwargs, result):
    return {"converged": bool(result.converged)}


_ATTRS = {
    "tensor.gate2": _gate2_attrs,
    "tensor.svd": _svd_attrs,
    "folding.plan": _plan_attrs,
    "correlations.saturate": _saturate_attrs,
}


class Tracer:
    """Records spans around wrapped calls; one instance per process."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        attrs_of = _ATTRS.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                span[2] = clock()
            if attrs_of is not None:
                span[5] = attrs_of(args, kwargs, result)
            return result

        return wrapper

    def per_span_cost(self, calls: int = 20000) -> float:
        """Seconds a wrapper adds to one call, measured on a no-op function."""

        def noop():
            return None

        wrapped = self.wrap(noop, "trace.calibrate")
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        traced = time.perf_counter() - start
        del self.spans[-calls:]
        return max(traced - bare, 0.0) / calls

    def dump(self, path: Path) -> None:
        payload = {"per_span_s": self.per_span_cost(), "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def install(tracer: Tracer):
    """Wrap the layer entry points of ``kitaev_chain``; returns an undo callable."""
    import numpy
    import kitaev_chain
    from kitaev_chain import cli, correlations, folding, quadratic, tensor

    modules = (kitaev_chain, quadratic, folding, tensor, correlations, cli)
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for attr, name in _FUNCTIONS.items():
        home = next(m for m in modules if attr in vars(m))
        original = getattr(home, attr)
        wrapped = tracer.wrap(original, name)
        for module in modules:
            if vars(module).get(attr) is original:
                patch(module, attr, wrapped)

    chain = tensor.TensorChain
    for attr, name in _METHODS.items():
        patch(chain, attr, tracer.wrap(getattr(chain, attr), name))
    from_json = chain.__dict__["from_json"].__func__
    patch(chain, "from_json", classmethod(tracer.wrap(from_json, "tensor.json")))
    # tensor calls numpy.linalg.svd through the module attribute; numpy's own
    # internal uses (norms, pinv) bind the function directly and stay untraced.
    patch(numpy.linalg, "svd", tracer.wrap(numpy.linalg.svd, "tensor.svd"))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def load(paths) -> tuple[list[list], float]:
    """Merge span files; parent indices are rebased into the merged list.

    Returns the spans and the total estimated wrapper overhead in seconds.
    """
    merged: list[list] = []
    overhead = 0.0
    for path in paths:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        offset = len(merged)
        for span in payload["spans"]:
            parent = span[3]
            merged.append(span[:3] + [parent + offset if parent >= 0 else -1] + span[4:])
        overhead += payload["per_span_s"] * len(payload["spans"])
    return merged, overhead


def layer_metrics(
    spans: list[list], passes: int, timed_wall_s: float, overhead_s: float, failed_frac: float
) -> dict[str, float]:
    """Per-layer metrics of a traced run, per pass of the workload."""
    names = [span[0] for span in spans]
    durations = [span[2] - span[1] for span in spans]
    child_time = [0.0] * len(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(i)
        if span[3] >= 0:
            child_time[span[3]] += durations[i]

    def select(name):
        return by_name.get(name, [])

    def total(indices) -> float:
        return sum(durations[i] for i in indices) / passes

    def self_time(indices) -> float:
        return sum(durations[i] - child_time[i] for i in indices) / passes

    def count(indices) -> float:
        return len(indices) / passes

    def attr_values(indices, key):
        return [spans[i][5][key] for i in indices if spans[i][5] and key in spans[i][5]]

    def parent_is(i, name) -> bool:
        return spans[i][3] >= 0 and names[spans[i][3]] == name

    def in_replay(i) -> bool:
        return parent_is(i, "folding.replay")

    def label_is(label):
        return lambda i: spans[i][4].split(":", 1)[-1] == label

    gate1, gate2, svd = select("tensor.gate1"), select("tensor.gate2"), select("tensor.svd")
    plans, replays = select("folding.plan"), select("folding.replay")
    saturations = select("correlations.saturate")
    quadratic = select("quadratic.build") + select("quadratic.schur")
    cli = [i for name, found in by_name.items() if name.startswith("cli.") for i in found]
    overflow_sites = gate2 + select("tensor.rdm_ends")
    metrics = {
        "tensor.svd_calls": count(svd),
        "tensor.svd_s": total(svd),
        "tensor.svd_work": sum(attr_values(svd, "work")) / passes,
        "tensor.gate2_calls": count(gate2),
        "tensor.gate2_s": total(gate2),
        "tensor.gate2_other_s": self_time(gate2),
        "tensor.gate1_calls": count(gate1),
        "tensor.gate1_s": total(gate1),
        "tensor.peak_chi": max(attr_values(gate2, "chi"), default=0),
        "tensor.overflows": count(
            [i for i in overflow_sites if attr_values([i], "error") == ["BondOverflowError"]]
        ),
        "folding.plan_s": total(plans),
        "folding.rotations": sum(attr_values(plans, "rotations")) / passes,
        "folding.gates_applied": count([i for i in gate1 + gate2 if in_replay(i)]),
        "folding.gates_two_site": count([i for i in gate2 if in_replay(i)]),
        "folding.replay_s": total(replays),
        "folding.replay_self_s": self_time(replays),
    }
    for label in LADDER_LABELS:
        here = label_is(label)
        metrics[f"tensor.peak_chi.{label}"] = max(
            attr_values([i for i in gate2 if here(i)], "chi"), default=0
        )
        metrics[f"folding.gates_applied.{label}"] = count(
            [i for i in gate1 + gate2 if here(i) and in_replay(i)]
        )
        metrics[f"folding.replay_s.{label}"] = total([i for i in replays if here(i)])
    metrics.update(
        {
            "quadratic.calls": count(quadratic),
            "quadratic.busy_s": total(quadratic),
            "tensor.rdm_ends_s": total(select("tensor.rdm_ends")),
            "tensor.rdm_pair_s": total(select("tensor.rdm_pair")),
            "tensor.rdm_site_s": total(select("tensor.rdm_site")),
            "tensor.energy_s": total(select("tensor.energy")),
            "tensor.parity_s": total(select("tensor.parity")),
            "tensor.canonical_s": total(select("tensor.canonical")),
            "tensor.json_s": total(select("tensor.json")),
            "correlations.z_s": total(select("correlations.z")),
            "correlations.particles_s": total(select("correlations.particles")),
            "correlations.saturate_s": total(saturations),
            "correlations.chains_built": count(
                [i for i in select("folding.prepare") if parent_is(i, "correlations.saturate")]
            ),
            "correlations.converged": count(
                [i for i in saturations if attr_values([i], "converged") == [True]]
            ),
            "cli.zscan_s": total(select("cli.zscan")),
            "cli.particles_s": total(select("cli.particles")),
            "cli.energy_accuracy_s": total(select("cli.energy_accuracy")),
            "cli.self_s": self_time(cli),
            "failed_frac": failed_frac,
            "trace.overhead_s": overhead_s / passes,
            "trace.coverage": sum(d for s, d in zip(spans, durations) if s[3] < 0)
            / timed_wall_s,
        }
    )
    return metrics
