"""The polyphase kernels against the zero-stuff / full-convolve reference."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fdsim
from fdsim import sigproc
from fdsim._kernels import (MAX_DIRECT_PHASES, MAX_PRODUCT_MACS, fft_size, matmul_rows,
                            phase_spectrum, product_rows, upsample_convolve_fft)

#: Only the summation order differs from the reference, so the outputs
#: agree to a few ulps of the signal's peak.
REL_TOL = 1e-15


def _filter(kind, sps):
    if kind == "srrc":
        return sigproc.srrc_taps(0.25, 8, sps)
    # a filter built directly, with a tap count that is not span * sps + 1
    # (an even one at even sps)
    taps = np.random.default_rng(sps).standard_normal(3 * sps + 2)
    return sigproc.SrrcFilter(taps=taps, samples_per_symbol=sps)


def _stuffed(symbols, sps):
    up = np.zeros(len(symbols) * sps, dtype=np.complex128)
    up[::sps] = symbols
    return up


def _assert_close(got, ref, scale):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref), initial=0.0) <= REL_TOL * scale


@pytest.mark.parametrize("sps", [2, 3, 4, 5, 10, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 1000, 1025])  # 1025: one past a block
@pytest.mark.parametrize("kind", ["srrc", "odd"])
def test_kernels_match_reference(sps, n, kind):
    filt = _filter(kind, sps)
    h = filt.taps
    rng = np.random.default_rng(n)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = np.convolve(_stuffed(symbols, sps), h)
    _assert_close(sigproc.pulse_shape(symbols, filt), ref, np.max(np.abs(ref)))

    x = ref + 1e-3 * (rng.standard_normal(len(ref)) + 1j * rng.standard_normal(len(ref)))
    full = np.convolve(x, h)
    scale = np.max(np.abs(full))
    # the matched filter's first instant is len(h) - 1 for any tap count;
    # output k reads samples k*sps ... (k + p)*sps - 1, p the taps' phases
    kept = full[len(h) - 1::sps]
    largest = len(x) // sps - -(-len(h) // sps) + 1
    for count in (0, 1, n, largest):
        _assert_close(sigproc.matched_filter_downsample(x, filt, count),
                      kept[:count], scale)
    # the later outputs' windows reach past the samples' end
    for count in (-1, largest + 1, len(kept), len(full)):
        with pytest.raises(ValueError):
            sigproc.matched_filter_downsample(x, filt, count)


#: The FFT kernel's rounding error grows with log2 of the transform length
#: (<= 11 here), a few ulps of the output's peak per stage.
FFT_REL_TOL = 1e-14


def _phases_named(name: str) -> int:
    """The taps per phase of a "K-1", "K", "K+1", "2K-1", "2K" or "2K+1"
    filter, K = ``MAX_DIRECT_PHASES``: the last one of each is past the
    direct route without a subtracted filter, or with one."""
    k, _, offset = name.partition("K")
    return int(k or 1) * MAX_DIRECT_PHASES + int(offset or 0)


def _n_taps(name: str, sps: int) -> int:
    """A tap count by name; a name with K has ``_phases_named`` taps per phase."""
    if "K" in name:
        return (_phases_named(name) - 2) * sps + 2
    return {"1": 1, "sps": sps, "3sps+2": 3 * sps + 2, "600": 600}[name]


@pytest.mark.parametrize("sps", [2, 3, 4, 5, 10, 20, 40])
@pytest.mark.parametrize("n", [1, 2, 1000])
@pytest.mark.parametrize("n_taps", ["1", "sps", "3sps+2", "600", "K-1", "K", "K+1"])
def test_fft_kernel_matches_reference(sps, n, n_taps):
    length = _n_taps(n_taps, sps)
    rng = np.random.default_rng(7 * sps + n)
    h = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
    ref = np.convolve(_stuffed(symbols, sps), h)
    # a spectrum built for more symbols serves fewer
    for n_built in (n, n + 500):
        spectrum = phase_spectrum(h, sps, n_built)
        got = upsample_convolve_fft(symbols, spectrum)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= FFT_REL_TOL * np.max(np.abs(ref))
    # the route follows the taps per phase
    p = (length + 2 * sps - 2) // sps
    assert (spectrum.direct is None) == (p > MAX_DIRECT_PHASES)
    if "K" in n_taps:
        assert p == _phases_named(n_taps)


@pytest.mark.parametrize("sps", [2, 3, 4, 10, 20, 40])
@pytest.mark.parametrize("n_minus", [0, 1, 57, 59, 599, 600])
def test_fft_kernel_subtracts_minus_taps(sps, n_minus):
    # a 600-tap filter, then filters of K - 1, K, K + 1, 2K - 1, 2K and
    # 2K + 1 taps per phase
    for n_taps in ("600", "K-1", "K", "K+1", "2K-1", "2K", "2K+1"):
        _check_subtracts_minus_taps(sps, n_minus, _n_taps(n_taps, sps))


def _check_subtracts_minus_taps(sps, n_minus, n_h):
    rng = np.random.default_rng(sps + n_minus)
    n_minus = min(n_minus, n_h)
    h = rng.standard_normal(n_h) + 1j * rng.standard_normal(n_h)
    minus = rng.standard_normal(n_minus) + 1j * rng.standard_normal(n_minus)
    symbols = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 300))
    kept_symbols, kept_minus = symbols.copy(), minus.copy()
    diff = h.copy()
    diff[:n_minus] -= minus
    ref = np.convolve(_stuffed(symbols, sps), diff)
    # a spectrum built for the replica's length, and one for the longest
    for n_built in (n_minus, len(h)):
        spectrum = phase_spectrum(h, sps, len(symbols), n_built)
        got = upsample_convolve_fft(symbols, spectrum, minus=minus)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= FFT_REL_TOL * np.max(np.abs(ref))
        # a spectrum built for a subtracted filter goes direct twice as far
        p = len(spectrum.phases)
        assert (spectrum.direct is None) == (p > MAX_DIRECT_PHASES * (2 if n_built else 1))
        # on either route, a replica longer than the filter
        with pytest.raises(ValueError, match=f"at most {len(h)} taps"):
            upsample_convolve_fft(symbols, spectrum, minus=np.ones(len(h) + 1))
    # the kernel works in a buffer of its own, never in its arguments
    assert np.array_equal(symbols, kept_symbols) and np.array_equal(minus, kept_minus)
    with pytest.raises(ValueError):
        phase_spectrum(h, sps, len(symbols), len(h) + 1)


@pytest.mark.parametrize("sps, n_symbols", [(0, 10), (2, 0)])
def test_phase_spectrum_rejects_no_phases_or_no_symbols(sps, n_symbols):
    with pytest.raises(ValueError, match="sps and n_symbols must be >= 1"):
        phase_spectrum(np.ones(8, dtype=complex), sps, n_symbols)


def test_fft_kernel_rejects_more_symbols_than_its_spectrum():
    spectrum = phase_spectrum(np.ones(600, dtype=complex), 40, 1000)
    n_fft = fft_size(1000 + 15 - 1)
    assert spectrum.spectra.shape == (n_fft, 40) and spectrum.spectra.flags.c_contiguous
    assert not spectrum.spectra.flags.writeable
    with pytest.raises(ValueError):
        upsample_convolve_fft(np.ones(n_fft), spectrum)


def test_fft_size_is_the_next_5_smooth_number():
    smooth = sorted(2**a * 3**b * 5**c for a in range(12) for b in range(8)
                    for c in range(6))
    for n in range(1, 2049):
        assert fft_size(n) == next(m for m in smooth if m >= n)


@pytest.mark.parametrize("n", [0, -1])
def test_fft_size_rejects_a_length_below_one(n):
    with pytest.raises(ValueError, match="n >= 1"):
        fft_size(n)


@pytest.mark.parametrize("sps", [2, 10, 40])
def test_sigproc_filters_match_reference(sps):
    filt = sigproc.srrc_taps(0.25, 8, sps)
    symbols = np.exp(1j * np.random.default_rng(sps).uniform(0.0, 7.0, 300))
    shaped = sigproc.pulse_shape(symbols, filt)
    ref = np.convolve(_stuffed(symbols, sps), filt.taps)
    _assert_close(shaped, ref, np.max(np.abs(ref)))

    # the matched filter samples from the peak of both filters in cascade
    full = np.convolve(shaped, filt.taps)
    _assert_close(sigproc.matched_filter_downsample(shaped, filt, len(symbols)),
                  full[len(filt.taps) - 1::sps][: len(symbols)], np.max(np.abs(full)))


def test_filter_rejects_complex_or_empty_taps():
    for taps in ([1.0 + 1j], [], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            sigproc.SrrcFilter(taps=np.array(taps), samples_per_symbol=2)


def test_filter_holds_read_only_copies():
    taps = np.hanning(17)
    filt = sigproc.SrrcFilter(taps=taps, samples_per_symbol=2)
    assert taps.flags.writeable and np.array_equal(filt.taps, taps)
    for a in (filt.taps, filt.shaping, filt.matched):
        assert not a.flags.writeable


#: (a, b) shapes and dtype of products that ``matmul_rows`` splits into
#: several blocks: 96 rows of 26 x 26 complex MACs, 182 rows of 18 x 80 real.
BLOCKED_PRODUCTS = [((775, 26), (26, 26), np.complex128), ((5000, 18), (18, 80), np.float64)]


def _operands(a_shape, b_shape, dtype, seed=0):
    rng = np.random.default_rng(seed)
    draw = [rng.standard_normal(shape) for shape in (a_shape, b_shape)]
    if dtype == np.complex128:
        draw = [x + 1j * rng.standard_normal(x.shape) for x in draw]
    return draw


@pytest.mark.parametrize("a_shape, b_shape, dtype", BLOCKED_PRODUCTS)
def test_matmul_rows_is_the_product_in_blocks_under_the_cap(monkeypatch, a_shape, b_shape,
                                                              dtype):
    a, b = _operands(a_shape, b_shape, dtype)
    blocks, matmul = [], np.matmul

    def recorded(x, y, out=None):
        blocks.append(len(x))
        return matmul(x, y, out=out)

    monkeypatch.setattr(np, "matmul", recorded)
    got = matmul_rows(a, b)
    monkeypatch.undo()
    real_macs_per_row = a_shape[1] * b_shape[1] * (4 if dtype == np.complex128 else 1)
    assert len(blocks) > 1 and sum(blocks) == len(a)
    assert max(blocks) * real_macs_per_row <= MAX_PRODUCT_MACS
    # only the blocking differs from one product: a few ulps of its peak
    want = a @ b
    assert np.abs(got - want).max() <= 4 * np.finfo(np.float64).eps * np.abs(want).max()


def test_matmul_rows_is_bitwise_the_product_at_one_blas_thread():
    code = ("import numpy as np\n"
            "from fdsim._kernels import matmul_rows\n"
            "from test_kernels import BLOCKED_PRODUCTS, _operands\n"
            "for shapes in BLOCKED_PRODUCTS:\n"
            "    a, b = _operands(*shapes)\n"
            "    print(matmul_rows(a, b).tobytes() == (a @ b).tobytes())\n")
    paths = [str(Path(fdsim.__file__).parents[1]), str(Path(__file__).parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.split() == ["True"] * len(BLOCKED_PRODUCTS)


@pytest.mark.parametrize("a_dtype, b_dtype", [(np.float64, np.float64),
                                              (np.complex128, np.float64),
                                              (np.float64, np.complex128)])
def test_matmul_rows_allocates_the_result_type_or_fills_out(a_dtype, b_dtype):
    a = np.arange(600.0).reshape(300, 2).astype(a_dtype)
    b = np.arange(6.0).reshape(2, 3).astype(b_dtype)
    got = matmul_rows(a, b)
    assert got.dtype == np.result_type(a, b) and got.shape == (300, 3)
    assert not np.shares_memory(got, a) and not np.shares_memory(got, b)
    assert np.array_equal(got, a @ b)
    out = np.full((300, 3), np.nan, dtype=np.result_type(a, b))
    assert matmul_rows(a, b, out) is out
    assert np.array_equal(out, a @ b)


def test_product_rows_is_one_where_a_single_row_is_above_the_cap():
    # a complex 1 x 775 by 775 x 128 row needs 396 800 multiply-adds
    a, b = _operands((128, 775), (775, 128), np.complex128)
    assert 775 * 128 * 4 > MAX_PRODUCT_MACS
    assert product_rows(a, b) == 1
    assert product_rows(a.real, b.real) == MAX_PRODUCT_MACS // (775 * 128)


def test_import_and_a_trial_of_every_scheme_load_no_scipy():
    # scipy costs about 0.6 s of start-up and half the peak memory that
    # every `fdsim` process would pay; it is a test-only dependency
    code = ("import sys, fdsim, numpy as np\n"
            "for scheme in fdsim.link.SCHEMES:\n"
            "    fdsim.run_trial(fdsim.LinkConfig(scheme=scheme, n_bits=200),\n"
            "                    np.random.default_rng(0))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(fdsim.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


#: The functions of ``src/fdsim`` that may issue a matrix product other
#: than through ``matmul_rows``: ``matmul_rows`` itself,
#: ``matched_filter_downsample``, whose blocks ``product_rows`` sizes, and
#: ``modulate_psk``, whose product is over integer bit weights.
UNCAPPED_PRODUCT_FUNCTIONS = {"matmul_rows", "matched_filter_downsample", "modulate_psk"}


def _matrix_products(tree: ast.AST) -> list[tuple[str | None, int]]:
    """(enclosing function, line) of each ``@``, ``@=`` and call of
    ``matmul``, ``dot``, ``inner``, ``tensordot`` or ``vdot`` in ``tree``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in {"matmul", "dot", "inner", "tensordot", "vdot"}):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_every_matrix_product_fdsim_issues_goes_through_the_cap():
    # a product outside matmul_rows can wake OpenBLAS's thread pool, whose
    # workers then spin the core that the receiver-noise draw runs on
    products = [(path.name, line, function)
                for path in sorted(Path(fdsim.__file__).parent.glob("*.py"))
                for function, line in _matrix_products(ast.parse(path.read_text()))]
    assert [p for p in products if p[2] not in UNCAPPED_PRODUCT_FUNCTIONS] == []
    # the scan sees the products it allows
    assert {p[2] for p in products} == UNCAPPED_PRODUCT_FUNCTIONS
