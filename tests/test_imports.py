"""The runtime needs numpy and the standard library only."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import coneradon

SOURCES = sorted(Path(coneradon.__file__).resolve().parent.glob("*.py"))


def absolute_imports(path):
    # Top-level names of the module's absolute imports; relative ones are
    # the package's own modules.
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_imports_only_numpy_and_the_standard_library(path):
    foreign = {name for name in absolute_imports(path)
               if name != "numpy" and name not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


# Both round trips, the V-line's spectral oracle and grid I/O, in a fresh
# interpreter; prints whether numpy.ma was loaded after numpy's own import
# and after the work.
_WORKLOAD = """
import sys
from pathlib import Path
import numpy as np
before = "numpy.ma" in sys.modules
import coneradon as cr
out = Path(sys.argv[1])
geom = cr.ConeGeometry(np.pi / 8)
ax = cr.AxisSpec(16, -1.0, 1.0)
f2 = cr.render_bumps_2d([cr.BumpSpec((0.2, 0.1), 0.25, 1.0)], ax, ax)
rec2 = cr.vline_invert(cr.vline_forward(f2, geom))
cr.vline_spectral_oracle(f2, geom, 2)
f3 = cr.render_bumps_3d([cr.BumpSpec((0.2, 0.1, 0.0), 0.25, 1.0)], ax, ax, ax)
rec3 = cr.cone_invert(cr.cone_forward(f3, geom), geom, 2)
for name, grid in (("rec2", rec2), ("rec3", rec3)):
    cr.write_grid(out / f"{name}.crtg", grid)
    cr.read_grid(out / f"{name}.crtg")
    cr.write_grid_csv(out / f"{name}.csv", grid)
cr.export_heatmap(rec2.values, out / "rec2.pgm")
cr.relative_l2(rec3, f3)
print(before, "numpy.ma" in sys.modules)
"""


def test_numpy_ma_is_never_imported(tmp_path):
    # numpy imports numpy.ma lazily, on the first np.unique call that asks
    # for no indices (so np.union1d too), which costs 1.2 MiB resident.
    # The library calls np.unique with return_inverse only.
    package_parent = str(Path(coneradon.__file__).resolve().parent.parent)
    code = f"import sys; sys.path.insert(0, {package_parent!r})\n" + _WORKLOAD
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            capture_output=True, text=True, check=True)
    before, after = result.stdout.split()
    if before == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert after == "False"
