"""Spans around the calls into each soilcolumn layer, for the traced run.

install() replaces module attributes with timing wrappers. Names the
solver imports with `from ... import` are patched in the module that
calls them, since that is where the lookup happens. Each wrapper records
a span (name, start, end, parent, run id) in compact in-memory arrays;
save() writes them out and summarize() turns them into the per-layer
metrics. A span's self time is its duration minus that of its child
spans. The run id counts integrate calls, so the spans of one column
(solve, audit, artifacts) share it.
"""

from __future__ import annotations

import inspect
from array import array
from time import perf_counter

import numpy as np

FRONT_DOOR = "workload"


class Recorder:
    """Spans and counters of one traced repetition."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("q")
        self.parent = array("q")
        self.run = array("q")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        self._stack = [-1]
        self.run_id = 0
        self.integrations = 0
        self.solved_cells = 0
        self.estimates_accepted = 0
        self.estimates_rejected = 0
        self.traces: list[tuple[int, int, int]] = []

    def wrap(self, name, fn, on_call=None, on_result=None, outermost_of=None):
        """fn wrapped to record a span named name around each call.

        With outermost_of set, calls made from inside a span whose name
        starts with it are passed through unrecorded, so a layer's own
        internal calls do not split its self time.
        """
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, name_id, stack = self.names, self.name_id, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            if outermost_of and parent >= 0 \
                    and names[name_id[parent]].startswith(outermost_of):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            i = len(self.start)
            name_id.append(nid)
            self.parent.append(parent)
            self.run.append(self.run_id)
            self.failed.append(0)
            self.end.append(0.0)
            stack.append(i)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[i] = 1
                raise
            finally:
                self.end[i] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def front_door(self, fn):
        """fn wrapped as the root span: the workload's own calling code."""
        return self.wrap(FRONT_DOOR, fn)

    def _new_run(self, args):
        self.run_id = self.integrations
        self.integrations += 1

    def _keep_trace(self, trace):
        self.traces.append((len(trace) - 1, int(trace.step_newton_iters.sum()),
                            trace.profiles.nbytes))

    def _count_cells(self, args):
        self.solved_cells += args[1].size

    def _count_estimate(self, fn):
        def counted(*args, **kwargs):
            err = fn(*args, **kwargs)
            if err <= 1.0:
                self.estimates_accepted += 1
            else:
                self.estimates_rejected += 1
            return err
        return counted

    def install(self):
        """Wrap the layer boundaries of the imported soilcolumn package."""
        from soilcolumn import cli, diagnostics, discretization, timestepper, tridiag

        integrate = dict(on_call=self._new_run, on_result=self._keep_trace)
        patches = [
            (timestepper, "integrate", "timestepper.integrate", integrate),
            (cli, "integrate", "timestepper.integrate", integrate),
            (timestepper, "_newton_solve", "timestepper.stage", {}),
            (timestepper, "rhs", "discretization.rhs", {}),
            (timestepper, "jacobian", "discretization.jacobian", {}),
            (tridiag, "solve", "tridiag.solve", dict(on_call=self._count_cells)),
            (discretization, "gravity_flux", "model.gravity_flux", {}),
            (discretization, "gravity_flux_derivative",
             "model.gravity_flux_derivative", {}),
            (diagnostics, "face_fluxes", "discretization.face_fluxes", {}),
            (cli, "main", "cli.main", {}),
        ]
        for attr, fn in vars(diagnostics).copy().items():
            if inspect.isfunction(fn) and not attr.startswith("_") \
                    and fn.__module__ == diagnostics.__name__:
                patches.append((diagnostics, attr, f"diagnostics.{attr}",
                                dict(outermost_of="diagnostics.")))
        for module, attr, name, kwargs in patches:
            setattr(module, attr, self.wrap(name, getattr(module, attr), **kwargs))
        timestepper._error_estimate = self._count_estimate(timestepper._error_estimate)

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.asarray(self.name_id),
            "parent": np.asarray(self.parent),
            "run": np.asarray(self.run),
            "start": np.asarray(self.start),
            "end": np.asarray(self.end),
            "failed": np.asarray(self.failed),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.arrays())


def summarize(rec: Recorder) -> tuple[dict, list[str]]:
    """Per-layer metrics of a finished traced repetition, and the
    violations of the count identities (empty when they hold)."""
    a = rec.arrays()
    n_names = len(rec.names)
    duration = a["end"] - a["start"]
    nested = a["parent"] >= 0
    child = np.bincount(a["parent"][nested], weights=duration[nested],
                        minlength=duration.size)
    self_time = duration - child
    calls = np.bincount(a["name_id"], minlength=n_names)
    errors = np.bincount(a["name_id"], weights=a["failed"], minlength=n_names)
    self_s = np.bincount(a["name_id"], weights=self_time, minlength=n_names)
    total_s = np.bincount(a["name_id"], weights=duration, minlength=n_names)

    def stat(name):
        if name not in rec.names:
            return 0, 0.0, 0.0, 0
        i = rec.names.index(name)
        return int(calls[i]), float(self_s[i]), float(total_s[i]), int(errors[i])

    def per_call(seconds, count, scale):
        return seconds / count * scale if count else 0.0

    solve = stat("tridiag.solve")
    rhs = stat("discretization.rhs")
    jac = stat("discretization.jacobian")
    stage = stat("timestepper.stage")
    audit = stat("diagnostics.mass_balance_audit")
    face_fluxes = stat("discretization.face_fluxes")
    diagnostics_self = sum(stat(n)[1] for n in rec.names
                           if n.startswith("diagnostics.")) - audit[1]
    accepted = sum(steps for steps, _, _ in rec.traces)
    metrics = {
        "tridiag.solve.calls": solve[0],
        "tridiag.solve.self_s": solve[1],
        "tridiag.solve.us_per_call": per_call(solve[1], solve[0], 1e6),
        "tridiag.solve.ns_per_cell": per_call(solve[1], rec.solved_cells, 1e9),
        "tridiag.solve.errors": solve[3],
        "discretization.rhs.calls": rhs[0],
        "discretization.rhs.self_s": rhs[1],
        "discretization.rhs.us_per_call": per_call(rhs[2], rhs[0], 1e6),
        "discretization.jacobian.calls": jac[0],
        "discretization.jacobian.self_s": jac[1],
        "discretization.jacobian.us_per_call": per_call(jac[2], jac[0], 1e6),
        "discretization.face_fluxes.calls": face_fluxes[0],
        "discretization.face_fluxes.self_s": face_fluxes[1],
        "model.gravity_flux.calls": stat("model.gravity_flux")[0],
        "model.gravity_flux_derivative.calls": stat("model.gravity_flux_derivative")[0],
        "timestepper.steps_accepted": accepted,
        "timestepper.steps_rejected": rec.estimates_rejected + stage[3],
        "timestepper.newton_iters": sum(iters for _, iters, _ in rec.traces),
        "timestepper.stage.calls": stage[0],
        "timestepper.stage.errors": stage[3],
        "timestepper.solves_per_step": per_call(stage[0], accepted, 1.0),
        "timestepper.stage.self_s": stage[1],
        "timestepper.integrate.self_s": stat("timestepper.integrate")[1],
        "timestepper.profiles_mb": sum(b for _, _, b in rec.traces) / 2**20,
        "diagnostics.mass_balance_audit.self_s": audit[1],
        "diagnostics.events.self_s": diagnostics_self,
        "cli.self_s": stat("cli.main")[1] + stat(FRONT_DOOR)[1],
    }

    violations = []
    if accepted != rec.estimates_accepted:
        violations.append(f"{accepted} accepted steps in the traces, "
                          f"{rec.estimates_accepted} accepted error estimates")
    if stage[3] == 0 and not solve[0] == jac[0] == rhs[0] - stage[0]:
        violations.append(
            f"tridiag.solve.calls={solve[0]}, discretization.jacobian.calls={jac[0]}, "
            f"discretization.rhs.calls-timestepper.stage.calls={rhs[0] - stage[0]}")
    return metrics, violations
