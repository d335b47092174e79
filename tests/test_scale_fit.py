import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "scale_fit.py"
spec = importlib.util.spec_from_file_location("scale_fit", TOOL)
scale_fit = importlib.util.module_from_spec(spec)
spec.loader.exec_module(scale_fit)


@pytest.mark.parametrize("steps", [[], ["--steps", "1"]], ids=["sg", "asg"])
def test_prints_a_converged_fit_and_its_peak_memory(capsys, steps):
    assert scale_fit.main(["--dim", "2", "--level", "2", "--units", "40", *steps]) == 0
    line = capsys.readouterr().out.strip()
    assert "\n" not in line
    assert line.startswith("dim 2 level 2" + (" steps 1" if steps else "") + " units 40 ")
    assert re.search(r"peak RSS \d+ MB", line)
    assert ", converged, " in line
    assert float(re.search(r"KKT (\S+)$", line).group(1)) <= 1e-8
