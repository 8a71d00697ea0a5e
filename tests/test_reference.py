"""The plain-Python reference itself: a closed form anchors its far cut, and it
reads no module but math and cmath."""

import ast
import math
from pathlib import Path

from risim import ArrayGeometry, Direction, UnitCellReflection, default_theta_grid

import reference


def test_reference_imports_only_math_and_cmath():
    nodes = list(ast.walk(ast.parse(Path(reference.__file__).read_text())))
    imported = {alias.name for node in nodes if isinstance(node, ast.Import) for alias in node.names}
    assert imported | {node.module for node in nodes if isinstance(node, ast.ImportFrom)} == {"math", "cmath"}


def test_far_cut_of_a_uniform_line_is_the_uniform_array_factor(cfg):
    # an ideal all-state-0 M x 1 board under normal incidence radiates
    # |sin(M psi / 2) / sin(psi / 2)|, psi = k0 p sin(theta), and M at psi = 0
    thetas = default_theta_grid().tolist()
    k0, p = 2 * math.pi / cfg.wavelength, cfg.geometry.periodicity_m
    for m in range(1, 17):
        geom = ArrayGeometry(m, 1, p)
        cut = reference.far_cut(geom, [[0]] * m, UnitCellReflection(), Direction(0.0), 0.0, thetas, cfg.wavelength)
        for theta, (field, _) in zip(thetas, cut):
            psi = k0 * p * math.sin(math.radians(theta))
            closed = abs(math.sin(m * psi / 2) / math.sin(psi / 2)) if psi else m
            assert abs(abs(field) - closed) <= 1e-12 * m, (m, theta)
