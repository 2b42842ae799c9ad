"""The benchmark tracer (perfbench/tracing.py) finds its targets and restores them.

The tracer looks package functions and methods up by name; a renamed or
deleted target would otherwise show up only as a crash of the benchmark.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import newton2pep.cli as cli
from newton2pep import NewtonNodes
from newton2pep.fileio import save_problem

from helpers import random_newton

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _patch_targets(spans):
    """(owner, name, object) for every attribute that instrumented() patches."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "newton2pep" or key.startswith("newton2pep.")]
    targets = []
    for _, module_name, attr, _ in spans:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            targets.append((cls, method, vars(cls)[method]))
            continue
        original = getattr(module, attr)
        targets += [(mod, key, value) for mod in modules
                    for key, value in vars(mod).items() if value is original]
    return targets


def test_tracer_targets_exist_and_are_restored(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    problem = tmp_path / "q.json"
    save_problem(problem, random_newton(np.random.default_rng(0), 1))
    targets = _patch_targets(tracing.SPANS)

    rng = np.random.default_rng(1)
    pair = [str(tmp_path / name) for name in ("q1.json", "q2.json")]
    for path in pair:
        save_problem(path, random_newton(rng, 1, NewtonNodes(1, 2, 0.5, -1)))

    with tracing.instrumented(tracing.Tracer()) as tracer:
        codes = [cli.main(["construct", str(problem), "--companion",
                           "--out", str(tmp_path / "p.json")]),
                 cli.main(["verify", str(problem), str(tmp_path / "p.json")]),
                 cli.main(["spectrum", pair[0], "--pair", pair[1]]),
                 cli.main(["delta", *pair, "--check-singular"])]
    assert codes == [0, 0, 0, 0]
    names = {span[0] for span in tracer.spans}
    for name in ("spaces.pencil_eval", "twoparam.spectrum_pair_oracle",
                 "twoparam.delta_operators", "twoparam.certify_singular"):
        assert name in names, name
    for owner, name, original in targets:
        assert vars(owner)[name] is original, (owner, name)
