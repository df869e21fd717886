"""Microseconds per step of each part of the cavity's step loop, measured from outside.

Usage, from the root of a checkout::

    python3 tools/steptime.py --steps 220 --traj 100 --seed 1 --repeat 20

Runs one cavity leaf of ``--traj`` trajectories over ``--steps`` steps on the
population path and on the dense engine (density matrices), ``--repeat``
times each, with timers wrapped around the step loop's functions and the
representation's, policy's and fold's methods.  Nothing in ``oqst`` is
changed or hooked: the wrappers are set on the modules and classes and
removed afterwards.  Each part's time is its self time (its own time less
that of the wrapped parts it calls), divided by the steps, as the median
over the repeats; ``step`` is the whole loop per step and ``rest`` what no
part covers.  ``stream_uniforms`` is the leaf's one draw of every row's
uniforms, made before the loop and so not in ``step``, amortised over the
steps alike.  The timers add about a microsecond per wrapped call.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from oqst import trajectory  # noqa: E402
from oqst.scenarios import cavity  # noqa: E402

# (label, owner, attribute) of each timed part, the representation's methods filled in per path
PARTS = [
    ("_segment bookkeeping", trajectory, "_segment"),
    ("_control bookkeeping", trajectory, "_control"),
    ("policy plan", cavity.CavityPolicy, "plan"),
    ("choose_branch", trajectory, "choose_branch"),
    ("_Fold.__call__", cavity._Fold, "__call__"),
    ("keep", trajectory._Rows, "keep"),
    ("stream_uniforms", cavity, "stream_uniforms"),
]
REP_PARTS = [("branches", "branches"), ("two entropies", "entropy"), ("drift", "propagate"),
             ("energy", "energy")]


class _Timers:
    """Self times by label; ``stack`` holds the time of the wrapped calls inside each open one."""

    def __init__(self):
        self.self_s, self.stack = {}, [0.0]

    def wrap(self, label, owner, name):
        original = owner.__dict__[name]
        self.self_s.setdefault(label, 0.0)

        def timed(*args, **kwargs):
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                total = time.perf_counter() - start
                inner = self.stack.pop()
                self.self_s[label] += total - inner
                self.stack[-1] += total

        setattr(owner, name, timed)
        return lambda: setattr(owner, name, original)


def measure(chunk, rep_class, config) -> dict:
    """One leaf through ``chunk``; the self time of every part, in seconds."""
    timers = _Timers()
    parts = PARTS + [(label, rep_class, name) for label, name in REP_PARTS]
    restore = [timers.wrap(label, owner, name) for label, owner, name in parts]
    restore.append(timers.wrap("step", cavity, "_stepped"))
    try:
        chunk(config, range(config.trajectories), keep_records=False)
    finally:
        for undo in restore:
            undo()
    times = timers.self_s
    total = sum(times.values())
    times["rest"] = times.pop("step")
    times["step"] = total - times["stream_uniforms"]
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=220)
    parser.add_argument("--traj", type=int, default=100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args(argv)
    config = cavity.CavityConfig(steps=args.steps, trajectories=args.traj, seed=args.seed)
    paths = {"population": (cavity._diagonal_chunk, cavity._Populations),
             "dense": (cavity._dense_chunk, trajectory._Matrices)}
    table = {}
    for name, (chunk, rep_class) in paths.items():
        measure(chunk, rep_class, config)  # warm-up
        runs = [measure(chunk, rep_class, config) for _ in range(args.repeat)]
        table[name] = {label: statistics.median(run[label] for run in runs) / args.steps * 1e6
                       for label in runs[0]}
    print(f"us per step, {args.traj} rows x {args.steps} steps, seed {args.seed}, "
          f"median of {args.repeat}")
    print(f"{'part':<22}" + "".join(f"{name:>12}" for name in paths))
    for label in table["population"]:
        print(f"{label:<22}" + "".join(f"{table[name][label]:12.1f}" for name in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
