"""The fixed-base comb against the builtin ``pow``, and its table's size."""

import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ciphers import keyex
from repro.ciphers.keyex import GENERATOR, PRIME, generator_pow


@given(st.integers(min_value=2, max_value=PRIME - 3))
@settings(max_examples=60, deadline=None)
def test_comb_matches_pow(exponent):
    assert generator_pow(exponent) == pow(GENERATOR, exponent, PRIME)


@given(st.integers(min_value=0, max_value=keyex.ROWS * keyex.COLUMNS - 1))
@settings(max_examples=40, deadline=None)
def test_comb_matches_pow_on_powers_of_two(bit):
    assert generator_pow(1 << bit) == pow(GENERATOR, 1 << bit, PRIME)


@pytest.mark.parametrize("exponent", [-1, 1 << (keyex.ROWS * keyex.COLUMNS)])
def test_exponent_outside_the_comb_rejected(exponent):
    with pytest.raises(ValueError, match="comb"):
        generator_pow(exponent)


def test_comb_covers_every_secret():
    assert keyex.ROWS * keyex.COLUMNS >= PRIME.bit_length()


def test_table_stays_under_512_kib():
    tracemalloc.start()
    try:
        table = keyex._build_table()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 1 << keyex.ROWS
    assert held < 512 * 1024


def test_threads_building_the_table_agree(monkeypatch):
    monkeypatch.setattr(keyex, "_TABLE", None)
    exponents = [PRIME - 3 - n for n in range(4)]
    results = [None] * len(exponents)

    def work(slot):
        results[slot] = generator_pow(exponents[slot])

    threads = [threading.Thread(target=work, args=(n,)) for n in range(len(exponents))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [pow(GENERATOR, e, PRIME) for e in exponents]
    assert len(keyex._TABLE) == 1 << keyex.ROWS
