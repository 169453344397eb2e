import importlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bstar import intsets
from bstar.intsets import IntSet, is_bstar, max_rep, representation_counts


def test_rep_counts_small_example():
    counts = representation_counts(IntSet.of([1, 2]))
    assert counts.dtype == np.int64 and counts.tolist() == [0, 0, 1, 2, 1]


def test_rep_counts_modular_example():
    counts = representation_counts(IntSet.of([0, 1, 2, 4], 7))
    assert len(counts) == 7 and counts.max() == 3


def test_rep_counts_wraparound_doubles():
    # 7+7 and 1+1 land on the same residue mod 12
    counts = representation_counts(IntSet.of([0, 1, 3, 7], 12))
    assert counts[2] == 2
    assert counts.max() == 2


def test_max_rep_examples():
    assert max_rep(IntSet.of([1, 2, 5, 7])) == 2
    assert max_rep(IntSet.of([])) == 0
    assert max_rep(IntSet.of([1, 2, 3, 5, 8, 13])) == 3


def test_is_bstar_examples():
    assert is_bstar(IntSet.of([1, 2, 5, 7]), 2)
    assert not is_bstar(IntSet.of([1, 2, 5, 7]), 1)
    assert is_bstar(IntSet.of([0, 1, 2, 4], 7), 3)
    assert is_bstar(IntSet.of([]), 1)  # vacuous


def test_is_bstar_rejects_bad_g():
    with pytest.raises(ValueError):
        is_bstar(IntSet.of([1]), 0)


def test_validation():
    with pytest.raises(ValueError):
        IntSet((2, 1))
    with pytest.raises(ValueError):
        IntSet((0, 5), modulus=5)
    with pytest.raises(ValueError):
        IntSet((-1, 2))
    with pytest.raises(ValueError, match="nonnegative"):  # sign is checked before order
        IntSet.of([1, 2, -3])
    with pytest.raises(ValueError, match="modulus must be a positive integer"):
        IntSet.of([1], 0)  # checked before reducing by it


def test_dense_profile_refuses_huge_spans():
    for s in [IntSet.of([0, 1 << 40]), IntSet((), 1 << 40), IntSet((0,), 1 << 40)]:
        with pytest.raises(ValueError, match="exceeds the dense limit"):
            representation_counts(s)


def _loop_counts(s):
    """r(t) by the definition: every ordered pair, one at a time."""
    n = s.modulus
    counts = [0] * (n if n is not None else 2 * s.max_element + 1)
    for a in s.elements:
        for b in s.elements:
            counts[(a + b) % n if n is not None else a + b] += 1
    return counts


def _bincount_counts(s):
    """r(t) by bincounting all pair sums in row blocks."""
    a = np.asarray(s.elements, dtype=np.int64)
    n = s.modulus
    counts = np.zeros(n if n is not None else 2 * s.max_element + 1, dtype=np.int64)
    for lo in range(0, len(a), 500):
        sums = (a[lo:lo + 500, None] + a[None, :]).ravel()
        if n is not None:
            sums %= n
        counts += np.bincount(sums, minlength=len(counts))
    return counts


@st.composite
def any_sets(draw):
    n = draw(st.none() | st.integers(min_value=1, max_value=64))
    if n is not None and draw(st.booleans()):
        return IntSet.of(range(n), n)  # every residue
    top = 5000 if n is None else n - 1
    els = draw(st.sets(st.integers(min_value=0, max_value=top), min_size=1, max_size=40))
    return IntSet.of(els, n)


@given(any_sets())
@example(IntSet.of([0, 6], 7))  # residues 0 and n - 1, odd n
@example(IntSet.of([0, 3, 7], 8))  # and even n
@example(IntSet.of(range(12), 12))
@example(IntSet.of([0]))
@settings(max_examples=200)
def test_counts_match_the_double_loop(s):
    assert representation_counts(s).tolist() == _loop_counts(s)


def test_counts_match_a_blocked_bincount_on_large_sets():
    rng = np.random.default_rng(8)
    draws = [(rng.choice(10**6, 3000, replace=False) + 1, None),
             (rng.choice(200001, 3000, replace=False), 200001)]
    for elements, n in draws:
        s = IntSet.of(elements.tolist(), n)
        assert np.array_equal(representation_counts(s), _bincount_counts(s))


def _fft_size(s):
    """The transform size representation_counts uses for s."""
    return 1 << (2 * s.max_element).bit_length()


def _four_step_sets():
    """Sets on both sides of the four-step crossover, with an independent profile each.

    Linear widths 2^m - 1 and 2^m + 1, k = 1 and sets holding element 0,
    and moduli n = 2^m - 1, 2^m, 2^m + 1, 2^m + 2 whose linear profile
    folds past one period.
    """
    rng = np.random.default_rng(23)
    m0 = intsets._FOUR_STEP_MIN.bit_length() - 1
    for m in (m0 - 2, m0 - 1, m0, m0 + 1, m0 + 2, 21):
        for width in (2**m - 1, 2**m + 1):
            top = width // 2  # the largest element: width = 2 top + 1
            yield IntSet.of([top])
            els = rng.choice(top, size=min(top, 800), replace=False)
            yield IntSet.of([0, top, *els.tolist()])
        if m < 21:
            for n in (2**m - 1, 2**m, 2**m + 1, 2**m + 2):
                els = rng.choice(n, size=600, replace=False)
                yield IntSet.of([0, n - 1, *els.tolist()], n)
                yield IntSet.of([n - 1], n)


def test_both_schedules_match_an_independent_count():
    sizes = set()
    for s in _four_step_sets():
        sizes.add(_fft_size(s))
        expected = _loop_counts(s) if len(s) == 1 else _bincount_counts(s).tolist()
        assert representation_counts(s).tolist() == expected, (len(s), s.modulus, s.max_element)
    assert min(sizes) < intsets._FOUR_STEP_MIN <= max(sizes)


def test_the_crossover_is_the_benchmarked_one():
    record = json.loads((Path(__file__).resolve().parent.parent / "BENCH_intsets.json").read_text())
    assert intsets._FOUR_STEP_MIN == record["crossover"]


def test_bench_intsets_script_switches_the_schedule(monkeypatch):
    # scripts/bench_intsets.py times each schedule by moving the private
    # _FOUR_STEP_MIN around a transform size; a renamed name must fail
    # here, not at the next benchmark run.  Both schedules give one
    # profile, and the threshold is restored after each, even on error.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "scripts"))
    bench = importlib.import_module("bench_intsets")
    saved = intsets._FOUR_STEP_MIN
    s = IntSet.of([511, *range(0, 511, 7)])
    assert _fft_size(s) == 2**10
    profiles = []
    for four_step in (False, True):
        with bench.schedule(four_step, 2**10):
            assert (_fft_size(s) >= intsets._FOUR_STEP_MIN) == four_step
            profiles.append(representation_counts(s))
        assert intsets._FOUR_STEP_MIN == saved
    assert np.array_equal(*profiles)
    with pytest.raises(ZeroDivisionError), bench.schedule(True, 2**10):
        1 / 0
    assert intsets._FOUR_STEP_MIN == saved


def _set_of_size_2_21():
    size = 1 << 21
    rng = np.random.default_rng(21)
    els = rng.choice(size // 2, 10000, replace=False)
    s = IntSet.of([size // 2 - 1, *els.tolist()])
    assert _fft_size(s) == size
    return s


def _traced_peak(fn, s):
    """The tracemalloc peak of fn(s), in units of 8N bytes."""
    tracemalloc.start()
    try:
        fn(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * _fft_size(s))


def test_one_count_of_a_2_21_profile_peaks_near_two_arrays():
    # the transient memory of one count at N = 2^21: the spectrum and the
    # int64 counts, each about 8N bytes, with the indicator and the float
    # profile never whole
    peak = _traced_peak(representation_counts, _set_of_size_2_21())
    assert peak <= 2.25, peak


def test_max_rep_of_a_2_21_set_peaks_near_one_array():
    # max_rep keeps no profile: the spectrum is its one array of about 8N bytes
    peak = _traced_peak(max_rep, _set_of_size_2_21())
    assert peak <= 1.35, peak


def test_max_rep_is_the_largest_count():
    for s in _four_step_sets():
        assert max_rep(s) == representation_counts(s).max(), (len(s), s.modulus, s.max_element)


@pytest.mark.parametrize("delta", [0.3, 1.0])
def test_a_perturbed_fft_is_refused(monkeypatch, delta):
    # 0.3 fails the rounding check; 1.0 rounds cleanly but breaks the k^2
    # total.  The large set takes the four-step, whose irfft is 2-D.
    large = IntSet.of(range(0, 3 * intsets._FOUR_STEP_MIN // 2, 7))
    assert _fft_size(large) >= intsets._FOUR_STEP_MIN
    irfft = np.fft.irfft

    def perturbed(*args, **kwargs):
        c = irfft(*args, **kwargs)
        c.flat[3] += delta
        return c

    monkeypatch.setattr(np.fft, "irfft", perturbed)
    for s in (IntSet.of([1, 2, 5, 7]), large):
        with pytest.raises(ArithmeticError):
            representation_counts(s)


@pytest.mark.parametrize("delta", [0.3, 1.0, -1.0])
def test_a_perturbed_entry_past_the_profile_is_refused(monkeypatch, delta):
    # the last entry of the last block, t = N - 1, is beyond the profile's
    # width 2 max(S) + 1 and an exact zero; the checks cover it too
    s = IntSet.of(range(0, 3 * intsets._FOUR_STEP_MIN // 2, 7))
    size = _fft_size(s)
    assert size >= intsets._FOUR_STEP_MIN and size - 1 >= 2 * s.max_element + 1
    four_step = intsets._four_step
    perturbed = []

    def last_entry_perturbed(*args):
        for b0, c in four_step(*args):
            rows, cols = c.shape
            if b0 + cols == size // rows:  # the last block
                c[-1, -1] += delta
                perturbed.append(b0)
            yield b0, c

    monkeypatch.setattr(intsets, "_four_step", last_entry_perturbed)
    for count in (representation_counts, max_rep):
        with pytest.raises(ArithmeticError):
            count(s)
    assert len(perturbed) == 2


def test_a_flipped_twiddle_sign_is_refused(monkeypatch):
    # conjugate twiddles both ways still give an integral profile with
    # total k^2 on this set, with counts moved between sums; the first
    # moment check refuses it
    rng = np.random.default_rng(5)
    s = IntSet.of(rng.choice(2 * intsets._FOUR_STEP_MIN, 3000, replace=False).tolist())
    assert _fft_size(s) >= intsets._FOUR_STEP_MIN
    assert representation_counts(s).tolist() == _bincount_counts(s).tolist()
    twiddles = intsets._twiddles
    monkeypatch.setattr(intsets, "_twiddles",
                        lambda *args: tuple(w.conj() for w in twiddles(*args)))
    with pytest.raises(ArithmeticError):
        representation_counts(s)


int_sets = st.builds(
    lambda els: IntSet.of(els),
    st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=12),
)


@given(int_sets)
def test_total_count_is_size_squared(s):
    assert representation_counts(s).sum() == len(s) ** 2


@given(int_sets, st.integers(min_value=0, max_value=50))
def test_translation_invariance(s, c):
    assert max_rep(IntSet(tuple(e + c for e in s.elements))) == max_rep(s)


@given(st.data())
@settings(max_examples=60)
def test_modular_dilation_invariance(data):
    n = data.draw(st.integers(min_value=2, max_value=60))
    els = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                            min_size=1, max_size=8))
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    u = data.draw(st.sampled_from(units))
    s = IntSet.of(els, n)
    assert max_rep(IntSet.of((u * e for e in els), n)) == max_rep(s)


@given(int_sets)
def test_parity_of_counts(s):
    doubled = {2 * e for e in s.elements}
    for t, r in enumerate(representation_counts(s)):
        assert (r % 2 == 1) == (t in doubled)


@given(st.data())
@settings(max_examples=60)
def test_parity_of_counts_modular(data):
    # mod even n two elements can double to the same residue, so parity
    # follows the doubling multiplicity, not bare membership in 2S
    n = data.draw(st.integers(min_value=2, max_value=40))
    els = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1),
                            min_size=1, max_size=8))
    s = IntSet.of(els, n)
    counts = representation_counts(s)
    for t in range(n):
        doublers = sum(1 for e in s.elements if (2 * e) % n == t)
        assert counts[t] % 2 == doublers % 2
    if n % 2 == 1:
        doubled = {(2 * e) % n for e in s.elements}
        for t, r in enumerate(counts):
            assert (r % 2 == 1) == (t in doubled)


@given(st.data())
@settings(max_examples=40)
def test_trivial_size_bound(data):
    n = data.draw(st.integers(min_value=1, max_value=80))
    els = data.draw(st.sets(st.integers(min_value=1, max_value=n), min_size=1,
                            max_size=10))
    s = IntSet.of(els)
    g = max_rep(s)
    assert len(s) <= math.sqrt(2 * g * n) + 1e-9
