"""What a fingap process loads: the 1-D model layer runs on numpy alone,
scipy.optimize is loaded only by the numeric dual-norm oracle, and no
layer loads scipy.sparse.csgraph."""

import json
import os
import subprocess
import sys

import fingap

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fingap.__file__)))

SCRIPT = """
import json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import fingap
from fingap import fit_model_solution, lambda1_model, model_solution
from fingap.domain import diameter
from fingap.harness import run_case

out = {"import": scipy_modules()}
lambda1_model(1.0, 3.0, 2.0)
lambda1_model(-1.0, float("inf"), 1.5)
model_solution(0.0, 2.0, 5.0)
fit_model_solution(1.0, 3.0, 6.0, 0.9)
fit_model_solution(0.0, float("inf"), 10.0, 0.2)
out["model"] = scipy_modules()
result = run_case({
    "id": "box", "domain": {"shape": "box", "lengths": [1.0, 1.0]},
    "norm": {"family": "euclidean", "dim": 2}, "weight": {"kind": "lebesgue"},
    "resolutions": [4, 8]})
out["verdict"] = result.report.verdict
out["diameter"] = diameter(result.domain, result.domain.spec.norm)
out["lattice"] = scipy_modules()
print(json.dumps(out))
"""


def test_model_layer_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, check=True)
    out = json.loads(proc.stdout)
    assert out["import"] == []
    assert out["model"] == []
    assert out["verdict"] in ("holds", "holds_within_tol")
    assert "scipy.sparse" in out["lattice"]
    assert not [m for m in out["lattice"] if m.startswith("scipy.optimize")]
    assert out["diameter"] == 2**0.5
    assert not [m for m in out["lattice"] if m.startswith("scipy.sparse.csgraph")]
