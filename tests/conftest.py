from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from cayley.core import cyclic_group, symmetric_group
from cayley.products import direct_product


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def c6():
    return cyclic_group(6)


@pytest.fixture(scope="session")
def klein():
    return direct_product(cyclic_group(2), cyclic_group(2)).group


@pytest.fixture
def image_searches(monkeypatch):
    """The find_all flag of each generator-image search (isomorphism or
    automorphism group) that runs while the test runs."""
    from cayley import morphisms

    calls = []
    search = morphisms._image_search

    def counted(g1, g2, gens, *, find_all):
        calls.append(find_all)
        return search(g1, g2, gens, find_all=find_all)

    monkeypatch.setattr(morphisms, "_image_search", counted)
    return calls


@pytest.fixture
def product_builds(monkeypatch):
    """The (|N|, |H|) of each product that products._assemble builds while
    the test runs."""
    from cayley import products

    calls = []
    assemble = products._assemble

    def counted(n_grp, h_grp, perms):
        calls.append((n_grp.order, h_grp.order))
        return assemble(n_grp, h_grp, perms)

    monkeypatch.setattr(products, "_assemble", counted)
    return calls


@pytest.fixture(scope="session")
def compiled_kernel(tmp_path_factory):
    """The C kernel, freshly built by setup.py into a temporary directory;
    the build fails on any compiler warning for _fillcore.c (setuptools
    compiles with -Wall)."""
    build = tmp_path_factory.mktemp("fillcore_build")
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(build / "lib"), "--build-temp", str(build / "temp")],
        cwd=Path(__file__).resolve().parents[1],
        capture_output=True,
        text=True,
    )
    # The extension is optional, so a failed compile can still exit 0.
    built = sorted((build / "lib" / "cayley").glob("_fillcore_c.*"))
    if proc.returncode != 0 or not built:
        pytest.fail(f"building _fillcore.c failed:\n{proc.stdout}{proc.stderr}", pytrace=False)
    warnings = [line for line in (proc.stdout + proc.stderr).splitlines()
                if "_fillcore.c" in line and "warning:" in line]
    if warnings:
        pytest.fail("building _fillcore.c warned:\n" + "\n".join(warnings), pytrace=False)
    spec = importlib.util.spec_from_file_location("cayley._fillcore_c", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
