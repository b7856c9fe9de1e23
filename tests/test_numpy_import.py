"""numpy is loaded only when an array route runs: importing the package and
running its scalar routes, each in a fresh interpreter, leave it out of
sys.modules."""

import subprocess
import sys

import pytest

SCALAR = {
    "import": "",
    "thresholds": "cli.main(['thresholds', '--parity', 'odd', '--q0-max', '50'])",
    "field": "cli.main(['field', '--p', '7', '--m', '1', '--s', '3', '--dump'])",
    "mindist": "cli.main(['mindist', '--q0', '7', '--s', '3', '--variant', 'half'])",
    "radius": "cli.main(['radius', '--q0', '7', '--s', '3'])",
    "classify": "cli.main(['classify', '--q0', '7', '--s-max', '9', '--variant', 'half'])",
    "half witness": "code.weight3_witness_half_odd("
                    "code.build_code(gf.make_field_for_q0(7, 1), 'half'))",
    "full witness": "code.weight3_witness_even("
                    "code.build_code(gf.make_field_for_q0(4, 1), 'full'))",
}


def _numpy_loaded_after(statement: str) -> bool:
    script = "\n".join([
        "import sys",
        "import zetterberg, zetterberg.cli",
        "from zetterberg import cli, code, gf",
        statement,
        "print('numpy' in sys.modules)",
    ])
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return {"True": True, "False": False}[r.stdout.splitlines()[-1]]


@pytest.mark.parametrize("statement", SCALAR.values(), ids=SCALAR.keys())
def test_scalar_routes_load_no_numpy(statement):
    assert not _numpy_loaded_after(statement)


def test_criterion_route_loads_numpy():
    # the guard above can fail: an array route does load numpy
    assert _numpy_loaded_after(
        "cli.main(['radius', '--q0', '19', '--s', '3', '--method', 'criterion'])")
