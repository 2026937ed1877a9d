"""The benchmark's layer tracer against the package as it is.

perfbench/spans.py wraps the package's layer functions from outside, by the
module and attribute names of its WRAPPED table.  A renamed, moved or
re-signatured layer function leaves the tracer blind to it or breaks a
traced study, so one small study per problem runs here under the tracer.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import dpglock
from dpglock import study_cli as sc

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from spans import WRAPPED, Tracer  # noqa: E402

OTHER_MODEL = {"poisson": "plate_uw", "plate": "poisson_uw"}


@pytest.mark.parametrize("problem", ["poisson", "plate"])
def test_tracer_wraps_every_layer_and_sees_it_called(problem, monkeypatch, tmp_path):
    for module, attr in WRAPPED:
        owner = getattr(dpglock, module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        # a no-op set, so that monkeypatch restores the unwrapped attribute
        monkeypatch.setattr(owner, leaf, getattr(owner, leaf))
    tracer = Tracer()
    tracer.install(dpglock)
    assert tracer.missing == []
    argv = ["--problem", problem, "--levels", "2", "--out", str(tmp_path / "study.csv")]
    assert sc.main(argv) == 0
    called = {span[0] for span in tracer.spans}
    assert called == {f"{module}.{attr}" for module, attr in WRAPPED
                      if module != OTHER_MODEL[problem]}
    # the tracer's own certificate reads the trace matrix after each solve
    certs = tracer.certify()
    assert [c["level"] for c in certs] == [0, 1]
    for c in certs:
        assert np.isfinite([c["rel_residual"], c["backward_error"]]).all()
        assert c["rel_residual"] <= 1e-10 or c["backward_error"] <= 1e-14
