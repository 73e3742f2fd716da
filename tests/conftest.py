"""Shared fixtures: small kernels and cached TDGs."""

import os

import pytest

from repro.obs import set_blackbox_dir
from repro.programs import KernelBuilder
from repro.tdg import construct_tdg


@pytest.fixture(scope="session", autouse=True)
def _private_cache_dir(tmp_path_factory):
    """Keep the test session's cache entries and flight-recorder dumps
    out of ``~/.cache/repro-dse``: the default cache directory (and
    with it the default dump directory) is a session tmp dir.  Both
    are restored afterwards; a test that needs the real default
    ``monkeypatch.delenv("REPRO_CACHE_DIR")``."""
    root = tmp_path_factory.mktemp("repro-cache")
    saved = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(root)
    set_blackbox_dir(root / "blackbox")
    yield root
    set_blackbox_dir(None)
    if saved is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = saved


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite golden snapshot files under tests/golden/ "
             "instead of comparing against them")


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


def build_vector_kernel(n=128, passes=2):
    """Vectorizable streaming kernel: c[i] = a[i]*b[i] + 3."""
    k = KernelBuilder("vec")
    a = k.array("a", [float(i % 9) for i in range(n)])
    b = k.array("b", [1.5] * n)
    c = k.array("c", n)
    with k.function("main"):
        with k.loop(passes):
            with k.loop(n) as i:
                av = k.ld(a, i)
                bv = k.ld(b, i)
                t = k.fmul(av, bv)
                k.st(c, i, k.fadd(t, 3.0))
        k.halt()
    return k.build()


def build_branchy_kernel(n=256, threshold=11.0):
    """Biased-control reduction kernel (hot path ~85%)."""
    k = KernelBuilder("branchy")
    a = k.array("a", [float((i * 7) % 13) for i in range(n)])
    out = k.array("out", 1)
    with k.function("main"):
        acc = k.var(0.0)
        with k.loop(n) as i:
            v = k.ld(a, i)
            cond = k.fslt(v, threshold)

            def then_fn():
                k.set(acc, k.fadd(acc, k.fmul(v, 2.0)))

            def else_fn():
                k.set(acc, k.fsub(acc, v))

            k.if_(cond, then_fn, else_fn)
        k.st(out, 0, acc)
        k.halt()
    return k.build()


def build_reduction_kernel(n=128):
    """Dot-product style reduction (vectorizable with reduction)."""
    k = KernelBuilder("dot")
    a = k.array("a", [float(i % 5) for i in range(n)])
    b = k.array("b", [2.0] * n)
    out = k.array("out", 1)
    with k.function("main"):
        acc = k.var(0.0)
        with k.loop(n) as i:
            k.set(acc, k.fadd(acc, k.fmul(k.ld(a, i), k.ld(b, i))))
        k.st(out, 0, acc)
        k.halt()
    return k.build()


def build_nested_kernel(n=24, m=16):
    """Nested loop (outer-offloadable, NS-DF target)."""
    k = KernelBuilder("nested")
    a = k.array("a", [float(i % 7) for i in range(n * m)])
    out = k.array("out", n)
    with k.function("main"):
        with k.loop(n) as i:
            base = k.mul(i, m)
            acc = k.var(0.0)
            with k.loop(m) as j:
                with k.temps():
                    v = k.ld(k.const(a.base), k.add(base, j))
                    k.set(acc, k.fadd(acc, v))
            k.st(out, i, acc)
        k.halt()
    return k.build()


@pytest.fixture(scope="session")
def vector_tdg():
    program, memory = build_vector_kernel()
    return construct_tdg(program, memory)


@pytest.fixture(scope="session")
def branchy_tdg():
    program, memory = build_branchy_kernel()
    return construct_tdg(program, memory)


@pytest.fixture(scope="session")
def reduction_tdg():
    program, memory = build_reduction_kernel()
    return construct_tdg(program, memory)


@pytest.fixture(scope="session")
def nested_tdg():
    program, memory = build_nested_kernel()
    return construct_tdg(program, memory)
