"""Per-layer metrics of a traced run, computed from its spans.

A name ``L.f.ms`` is the self time of function f of layer L per workload step,
in milliseconds, and ``L.f.share`` the same self time over the traced wall;
``L.self_s``, ``L.share`` and ``L.calls`` sum over every public function of
layer L.  A function that no longer exists reports zero.
"""

from __future__ import annotations

from tracing import LAYERS, Tracer

# Self milliseconds per step of these functions; each is named in the
# layer -> metric table of perfbench/README.md with the workload it should move.
FUNCTION_MS = (
    "propagation.segment_hamiltonians",
    "propagation.segment_unitaries",
    "propagation.prefix_products",
    "propagation.suffix_products",
    "propagation.segment_lindblad_maps",
    "propagation.propagate_unitary",
    "propagation.propagate_lindblad",
    "spins.control_operator_stack",
    "objectives.pulse_table_gradient",
    "network.forward_batch",
    "network.forward_with_tape",
    "network.backprop_pulse",
    "optimizer.AdamState.update",
)
FORWARDS = {"network.forward", "network.forward_batch", "network.forward_with_tape"}
GRAPE = {"grape.grape_train"}

# Counts taken where the work is: segment Hamiltonians built, and the
# substeps per segment each Lindblad substep choice returns.
COUNTERS = {
    "propagation.segment_hamiltonians": lambda args, kwargs, result: len(result),
    "propagation.lindblad_substeps": lambda args, kwargs, result: result,
}


def layer_metrics(tracer: Tracer, steps: int, wall: float) -> dict[str, float]:
    own = tracer.self_times()
    per_step = max(steps, 1)
    fn_self: dict[str, float] = {}
    fn_calls: dict[str, int] = {}
    for name, s in zip(tracer.names, own):
        fn_self[name] = fn_self.get(name, 0.0) + s
        fn_calls[name] = fn_calls.get(name, 0) + 1

    out: dict[str, float] = {}
    for layer in LAYERS:
        names = [n for n in fn_self if n.split(".", 1)[0] == layer]
        self_s = sum(fn_self[n] for n in names)
        out[f"{layer}.self_s"] = self_s
        out[f"{layer}.share"] = self_s / wall if wall > 0 else 0.0
        out[f"{layer}.calls"] = sum(fn_calls[n] for n in names)
    for name in FUNCTION_MS:
        out[f"{name}.ms"] = 1e3 * fn_self.get(name, 0.0) / per_step
        out[f"{name}.share"] = fn_self.get(name, 0.0) / wall if wall > 0 else 0.0

    spins_builds = forwards = grape_grads = points = 0
    for i, name in enumerate(tracer.names):
        layer = name.split(".", 1)[0]
        parent = tracer.parent[i]
        parent_name = tracer.names[parent] if parent >= 0 else ""
        if layer == "spins" and not parent_name.startswith("spins."):
            spins_builds += 1
        if name in FORWARDS and tracer.top_level(i, FORWARDS):
            forwards += 1
        if name == "objectives.pulse_table_gradient" and not tracer.top_level(i, GRAPE):
            grape_grads += 1
        if name == "objectives.evaluate_fidelity" and parent_name.startswith("analysis."):
            points += 1
    substep_calls = fn_calls.get("propagation.lindblad_substeps", 0)
    out.update({
        "spins.builds_per_step": spins_builds / per_step,
        "network.forwards_per_step": forwards / per_step,
        "objectives.gradients_per_step": fn_calls.get("objectives.pulse_table_gradient", 0) / per_step,
        "propagation.segments_per_step":
            tracer.counts.get("propagation.segment_hamiltonians", 0) / per_step,
        "propagation.lindblad_substeps":
            tracer.counts.get("propagation.lindblad_substeps", 0) / substep_calls if substep_calls else 0.0,
        # each grape_train call scores its initial table once before iterating
        "grape.iterations": grape_grads - fn_calls.get("grape.grape_train", 0),
        "analysis.points": points,
        "trace.wall_s": wall,
        "trace.spans": len(tracer.names),
    })
    return out
