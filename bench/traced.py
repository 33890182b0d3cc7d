"""Traced serial run of one refsde CLI command, in one process.

Usage: python3 bench/traced.py TRACE_JSON -- REFSDE_ARGS...

The benchmark's own wrappers replace the names through which one layer calls
the next (cli -> experiment and density, experiment -> simulate and estimate)
and record a span around each call: id, name, parent id, start and end, plus
the counts visible at that boundary (steps simulated, grid x observation
pairs, drift evaluations, cells, bytes written).  Spans stay in memory and
are written to TRACE_JSON when the command ends.  The program's source is not
touched and every wrapper returns exactly what the wrapped function returned,
so the output CSV is byte-identical to an untraced serial run.

The counts are taken after a span ends, inside its parent.  Each span records
as `overhead` the counting time spent between its start and end, so that a
span's own time is end - start - overhead.
"""
import json
import os
import sys
import time

_T0 = time.perf_counter()


class Tracer:
    """In-memory span recorder; `span` wraps a function in a timed span."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.drift_nodes = 0
        self.overhead = 0.0   # seconds spent taking counts so far

    def add(self, name, start, end):
        self.spans.append({"id": len(self.spans), "name": name,
                           "parent": self._stack[-1] if self._stack else None,
                           "start": start, "end": end, "overhead": 0.0})

    def span(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            rec = {"id": len(self.spans), "name": name,
                   "parent": self._stack[-1] if self._stack else None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            nodes0, overhead0 = self.drift_nodes, self.overhead
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            rec["overhead"] = self.overhead - overhead0
            if self.drift_nodes != nodes0:
                rec["drift_nodes"] = self.drift_nodes - nodes0
            if count is not None:
                rec.update(count(result, *args, **kwargs))
                self.overhead += time.perf_counter() - rec["end"]
            return result
        return wrapper


def _install(tracer, cli, experiment):
    import numpy as np
    from refsde.model import DriftSpec

    def path_counts(path, cfg, refine=1):
        reflected = (np.diff(path.l_reg) > 0.0) | (np.diff(path.r_reg) > 0.0)
        return {"steps": (cfg.burn_in + cfg.n_steps) * refine,
                "recorded": int(path.x.size - 1),
                "reflected": int(np.count_nonzero(reflected))}

    def nw_counts(result, path, k, grid):
        obs = np.sort(path.x[:-1])
        g, h = result.grid, k.bandwidth
        inside = (np.searchsorted(obs, g + h, side="right")
                  - np.searchsorted(obs, g - h, side="left"))
        return {"pairs": int(g.size * obs.size), "window": int(inside.sum()),
                "points": int(g.size),
                "undefined": int(np.count_nonzero(result.undefined_mask))}

    def table_counts(result, plan, **_):
        summaries, failures = result
        cells = len(summaries) + len(failures)
        return {"cells": cells, "reps": cells * plan.n_replications,
                "failed_cells": len(failures)}

    def write_counts(_result, out_path, _fn):
        return {"bytes": os.path.getsize(out_path)}

    builtin_drift = cli.builtin_drift

    def counting_drift(case_id):
        # Same function values; only counts how many nodes it is evaluated at.
        d = builtin_drift(case_id)

        def fn(x):
            tracer.drift_nodes += int(np.size(x))
            return d.fn(x)
        return DriftSpec(d.name, fn, d.lipschitz_bound)

    cli.builtin_drift = counting_drift
    wraps = [
        (cli, "run_table", "experiment.run_table", table_counts),
        (cli, "invariant_density", "density.invariant_density", None),
        (cli, "pi_eval", "density.pi_eval", None),
        (cli, "f_eval", "density.f_eval", None),
        (cli, "sigma_eval", "density.sigma_eval", None),
        (cli, "_write_guard", "cli.write", write_counts),
        (experiment, "run_cell", "experiment.run_cell", None),
        (experiment, "rase", "experiment.rase", None),
        (experiment, "simulate_path", "simulate.simulate_path", path_counts),
        (experiment, "nw_discrete", "estimate.nw_discrete", nw_counts),
        (experiment, "simulate_fine", "simulate.simulate_fine", path_counts),
        (experiment, "nw_continuous", "estimate.nw_continuous", nw_counts),
    ]
    for module, attr, name, count in wraps:
        setattr(module, attr, tracer.span(name, getattr(module, attr), count))


def main() -> int:
    trace_path, sep = sys.argv[1:3]
    if sep != "--":
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    from refsde import cli, experiment
    tracer.add("cli.import", _T0, time.perf_counter())
    _install(tracer, cli, experiment)
    cfg = tracer.span("cli.parse", cli.parse)(sys.argv[3:])
    rc = tracer.span("cli.main", cli.main)(cfg)
    with open(trace_path, "w") as f:
        json.dump({"argv": sys.argv[3:], "rc": rc, "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
