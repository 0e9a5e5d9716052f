"""Tests for the package namespace: what ``import serlab`` exports and loads."""

import importlib.util
import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import serlab

LIBRARY_MODULES = ("hilbert", "spin", "states", "measurement", "inference")


def test_package_reexports_each_module_all():
    modules = [importlib.import_module(f"serlab.{name}") for name in LIBRARY_MODULES]
    assert serlab.__all__ == [name for module in modules for name in module.__all__]
    assert {"SCENARIO_TABLE", "NEGLIGIBLE_PROBABILITY"} <= set(serlab.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(serlab, name) is getattr(module, name)
    assert serlab.spin is modules[1].spin  # the function, not the submodule of the same name


def test_every_annotation_resolves():
    # an annotation naming a module the function imports only inside its body made get_type_hints raise NameError
    for short in (*LIBRARY_MODULES, "cli"):
        module = importlib.import_module(f"serlab.{short}")
        own = [obj for obj in vars(module).values() if getattr(obj, "__module__", None) == module.__name__]
        functions = [inspect.unwrap(obj) for obj in own if callable(obj) and not inspect.isclass(obj)]
        for cls in filter(inspect.isclass, own):
            for attr in vars(cls).values():
                attr = getattr(attr, "fget", None) or getattr(attr, "func", None) or getattr(attr, "__func__", attr)
                if inspect.isfunction(attr) and attr.__globals__ is vars(module):  # not a generated method
                    functions.append(attr)
        assert len(functions) > 3, short
        for fn in functions:
            typing.get_type_hints(fn)  # raises NameError on a name the module does not hold


def test_import_loads_the_library_modules_and_not_the_cli():
    src = os.path.dirname(os.path.dirname(serlab.__file__))
    code = "import sys, serlab; print(' '.join(sorted(m for m in sys.modules if m.startswith('serlab.'))))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == sorted(f"serlab.{name}" for name in LIBRARY_MODULES)


def test_sampling_leaves_numpy_ma_unloaded():
    # numpy.ma loads lazily on first use (np.unique reaches it) and adds about 0.7 MB of peak RSS
    src = os.path.dirname(os.path.dirname(serlab.__file__))
    code = (
        "import sys; from serlab import *; state = psi_state(PsiParams(0.5, 0.5)); "
        "obs = [spin(Axis.Z, p, 3) for p in (1, 2, 3)]; "
        "sample_joint(state, obs, seed=1, trials=1000); sample_counts(state, obs, seed=1, trials=1000); "
        "print('numpy.ma' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False"]


def test_every_name_the_tracer_wraps_by_name_is_a_function():
    # the tracer skips a missing name silently, so a renamed function would read as a 0 per-layer metric
    path = Path(__file__).resolve().parents[1] / "serbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("serbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for short, names in tracer.EXTRA.items():
        module = importlib.import_module(f"serlab.{short}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"{short}.{name}"
    for short, classes in tracer.METHODS.items():
        module = importlib.import_module(f"serlab.{short}")
        for cls_name, methods in classes.items():
            for name in methods:
                assert inspect.isfunction(vars(getattr(module, cls_name)).get(name)), f"{short}.{cls_name}.{name}"
