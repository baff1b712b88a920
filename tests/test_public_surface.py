"""The exported names and the package's re-exports stay in step, so a
deletion cannot leave a stale entry behind."""

import ast
import importlib
import inspect
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import levykit

PACKAGE = Path(levykit.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules([str(PACKAGE)]))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"levykit.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_package_imports_only_exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"levykit.{node.module}")
        # a module without __all__ exports its public names
        exported = getattr(module, "__all__", None) or [
            n for n in vars(module) if not n.startswith("_")]
        for alias in node.names:
            assert alias.name in exported, (node.module, alias.name)
            assert getattr(levykit, alias.name) \
                is getattr(module, alias.name)


def _referenced_names(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_exported_name_has_a_caller_outside_tests():
    # an export that only the tests call is API that nothing needs; the
    # package's __init__ only re-exports, so it does not count as a caller
    repo = Path(__file__).resolve().parents[1]
    files = [f for f in (repo / "src" / "levykit").glob("*.py")
             if f.name != "__init__.py"]
    for folder in ("bench", "demos", "tools"):
        files += (repo / folder).rglob("*.py")
    used = set().union(*map(_referenced_names, files))
    unused = [(name, n) for name in MODULES
              for n in getattr(importlib.import_module(f"levykit.{name}"),
                               "__all__", ())
              if n not in used]
    assert unused == []


def test_import_leaves_heavy_scipy_modules_out():
    # scipy.interpolate would bring in optimize, sparse and spatial: about
    # a third of the import time and resident memory of the package; the
    # post-last-zero check draws its Maxwell quantiles without scipy.stats;
    # scipy.linalg (about 6 MB resident) waits for the eigen recursion, its
    # only user, which a preset never runs
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.resolve().parent))
    code = ("import sys, levykit, levykit.cli; print(sorted({m for m in "
            "sys.modules if m.split('.')[:2] in (['scipy', 'interpolate'], "
            "['scipy', 'optimize'], ['scipy', 'sparse'], "
            "['scipy', 'spatial'])})); from levykit import penalization "
            "as pz; pz.post_lastzero_marginal_check(pz.indicator_weight("
            "1.0), u=5.0, n=200, seed=0); print('scipy.stats' in "
            "sys.modules); from levykit import spectral as sp; "
            "sp.transition_density(levykit.bessel_spec(1.5), 1.0, 0.5, 1.0); "
            "print('scipy.linalg' in sys.modules); sp.eigen_coefficients("
            "levykit.spec_from_expressions('x', '2'), 1.0, 'C', 4); "
            "print('scipy.linalg' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["[]", "False", "False", "True"]


def _nan_calls():
    from levykit import diffusions
    from levykit import penalization as pz
    from levykit import spectral as sp
    from levykit import subexp as sx
    bm = levykit.brownian_spec()
    ind = pz.indicator_weight(1.0)
    tail = sx.pareto_tail(0.5)
    killed = sp.bessel_killed_measure(0.5)
    return {
        "levy_exponent": lambda v: levykit.levy_exponent(bm, v),
        "cumulative_speed": lambda v: levykit.cumulative_speed(bm, v),
        "uparrow_density": lambda v: pz.uparrow_density(bm, 1.0, 1.0, v),
        "martingale_value": lambda v: pz.martingale_value(bm, ind, 1.0, v),
        "conv_tail": lambda v: sx.conv_tail(tail, tail, v),
        "subexp_ratio": lambda v: sx.subexp_ratio(tail, v),
        "hitting_tail_distribution":
            lambda v: sx.hitting_tail_distribution(bm, v),
        "levy_exponent_from_measure":
            lambda v: sp.levy_exponent_from_measure(killed, v),
        "uparrow_mass": lambda v: pz.uparrow_mass(bm, v),
        "series_bound_base": lambda v: diffusions.series_bound_base(bm, v),
    }


@pytest.mark.parametrize("name", sorted(_nan_calls()))
def test_nan_inputs_are_domain_errors(name):
    # a NaN passed every sign check: these returned NaN, a table of NaNs,
    # or raised ToleranceError from the quadrature
    from levykit.errors import DomainError
    with pytest.raises(DomainError):
        _nan_calls()[name](float("nan"))


def _record_calls(path: Path, passed: dict) -> None:
    """Add to ``passed[name]`` the most positional arguments and every
    keyword that a call of ``name`` in ``path`` passes; a call with
    ``*args`` or ``**kwargs`` passes everything."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        npos, keywords = passed.setdefault(name, (0, set()))
        if any(isinstance(a, ast.Starred) for a in node.args) or \
                any(k.arg is None for k in node.keywords):
            npos = math.inf
        keywords.update(k.arg for k in node.keywords)
        passed[name] = (max(npos, len(node.args)), keywords)


def test_every_option_is_passed_somewhere():
    # a parameter with a default that no call passes, tests included, is
    # an option nothing needs
    repo = Path(__file__).resolve().parents[1]
    passed = {}
    for folder in ("src/levykit", "bench", "demos", "tools", "tests"):
        for f in (repo / folder).rglob("*.py"):
            _record_calls(f, passed)
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"levykit.{name}")
        for fname in getattr(module, "__all__", ()):
            func = getattr(module, fname)
            if not inspect.isfunction(func):
                continue
            npos, keywords = passed.get(fname, (0, set()))
            params = inspect.signature(func).parameters.values()
            unused += [f"{fname}.{p.name}" for i, p in enumerate(params)
                       if p.default is not p.empty and p.name not in keywords
                       and (p.kind is p.KEYWORD_ONLY or i >= npos)]
    assert unused == []
