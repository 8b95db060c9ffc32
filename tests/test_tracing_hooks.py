"""The benchmark's trace hooks still find every name they patch.

``perfbench/tracing.py`` replaces glme functions at the names their callers
look them up by (``glme.nonstationary.nelder_mead``,
``glme.estimators.gld``, ...).  A refactor that drops or moves one of those
names would otherwise fail only the traced benchmark run.  The module is
loaded from its file without writing to ``perfbench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_install_and_restore(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    targets = [(importlib.import_module(module), attr) for module, attr, *_ in tracing.FUNCTIONS]
    targets += [(importlib.import_module(module), "nelder_mead")
                for module in tracing.OPTIMIZER_USERS]
    before = [owner.__dict__[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn
                   for (owner, attr), fn in zip(targets, before))
        importlib.import_module("glme.estimators").fit_lme([1.0, 3.0, 2.0, 5.0, 4.0])
        assert [span[0] for span in tracer.spans] == [
            "estimators.fit_lme", "lmoments.sample_lmoments"]
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(targets, before))
