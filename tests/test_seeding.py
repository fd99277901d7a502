"""Power-of-two draws: ``seeding.draw_below`` against numpy's ``Generator.integers``.

The helper must give the same values and leave the generator in the same state
as ``integers`` for every numpy bit generator, in any interleaving with the
other draws a trial makes.  A guard keeps ``src/`` from drawing a power-of-two
bound through ``integers`` again.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from eprlink.seeding import MAX_DRAW_BOUND, draw_below

BIT_GENERATORS = ("PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64")
BOUNDS = (2, 4, 8, MAX_DRAW_BOUND)
SIZES = (None, 0, 1, 7, 8)
SEEDS = range(100)

SRC = Path(__file__).resolve().parent.parent / "src" / "eprlink"


def _generator(name: str, seed: int) -> np.random.Generator:
    return np.random.Generator(getattr(np.random, name)(seed))


def _same_state(a, b) -> bool:
    """Bit-generator states are nested dicts holding ints and arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return type(a) is type(b) and a == b


def _as_python(value):
    return value.tolist() if isinstance(value, np.ndarray) else int(value)


def _other_draw(script: np.random.Generator):
    """One of the draws a trial interleaves with its power-of-two ones."""
    kind = int(script.integers(4))
    if kind == 0:
        return lambda rng: rng.random()
    if kind == 1:
        n = int(script.integers(1, 6))
        return lambda rng: rng.random(n).tolist()
    if kind == 2:
        n = int(script.integers(3, 12))
        k = int(script.integers(1, n + 1))
        return lambda rng: rng.choice(n, size=k, replace=False).tolist()
    return lambda rng: int(rng.integers(3))


@pytest.mark.parametrize("name", BIT_GENERATORS)
def test_draws_equal_integers_in_value_and_generator_state(name):
    for seed in SEEDS:
        ref, got = _generator(name, seed), _generator(name, seed)
        script = np.random.default_rng([seed, 1])
        for _ in range(80):
            if script.random() < 0.5:
                draw = _other_draw(script)
                assert draw(got) == draw(ref)
                continue
            k = BOUNDS[int(script.integers(len(BOUNDS)))]
            size = SIZES[int(script.integers(len(SIZES)))]
            value = draw_below(got, k, size)
            assert value == _as_python(ref.integers(k, size=size)), (name, seed, k, size)
            if size is None:
                assert type(value) is int
            else:
                assert type(value) is list and all(type(x) is int for x in value)
        assert _same_state(got.bit_generator.state, ref.bit_generator.state), (name, seed)


@pytest.mark.parametrize("name", BIT_GENERATORS)
@pytest.mark.parametrize("k", BOUNDS)
@pytest.mark.parametrize("size", SIZES)
def test_every_bound_and_size_after_an_odd_word(name, k, size):
    # An odd number of 32-bit draws leaves half a 64-bit word buffered.
    for seed in range(3):
        ref, got = _generator(name, seed), _generator(name, seed)
        for rng in (ref, got):
            rng.integers(2, size=3)
        value = draw_below(got, k, size)
        assert value == _as_python(ref.integers(k, size=size))
        assert got.random() == ref.random()
        assert _same_state(got.bit_generator.state, ref.bit_generator.state)


def test_the_top_bound_reads_every_float32_bit():
    # Each value below 2**24 needs all 24 bits of the float, none rounded.
    ref, got = _generator("PCG64", 5), _generator("PCG64", 5)
    values = draw_below(got, MAX_DRAW_BOUND, 4096)
    assert values == ref.integers(MAX_DRAW_BOUND, size=4096).tolist()
    assert any(v % 2 for v in values) and max(values) < MAX_DRAW_BOUND


@pytest.mark.parametrize("k", [0, 1, 3, 6, 2**25, -2])
@pytest.mark.parametrize("size", [None, 4])
def test_other_bounds_are_refused_before_drawing(k, size):
    rng = _generator("PCG64", 3)
    rng.integers(2)  # half a word buffered, which a draw would use up
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="power of two"):
        draw_below(rng, k, size)
    assert _same_state(rng.bit_generator.state, before)


# --- the guard: no power-of-two bound goes through ``integers`` ---------------


def _literal_int(node):
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    return None


def _power_of_two_integers_calls(source: str):
    """(line, bound) of every ``.integers(...)`` call whose literal range is a power of two >= 2."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "integers"
        ):
            continue
        args = {kw.arg: kw.value for kw in node.keywords}
        for name, arg in zip(("low", "high"), node.args):
            args[name] = arg
        low, high = _literal_int(args.get("low")), _literal_int(args.get("high"))
        if "high" not in args:
            span = low
        elif low is None or high is None:
            span = None
        else:
            span = high - low
        endpoint = args.get("endpoint")
        if span is not None and isinstance(endpoint, ast.Constant) and endpoint.value is True:
            span += 1
        if span is not None and span >= 2 and not span & (span - 1):
            found.append((node.lineno, span))
    return found


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("rng.integers(2)", True),
        ("int(rng.integers(4))", True),
        ("rng.integers(4, size=n)", True),
        ("rng.integers(0, 2, size=n)", True),
        ("rng.integers(low=0, high=8)", True),
        ("rng.integers(3, 5)", True),
        ("rng.integers(0, 1, endpoint=True)", True),
        ("rng.integers(1 << 24)", False),  # not a literal
        ("rng.integers(1)", False),
        ("rng.integers(3)", False),
        ("rng.integers(0, 3, size=n)", False),
        ("rng.integers(len(qubits))", False),
        ("rng.integers(0, n)", False),
        ("rng.choice(4, size=2, replace=False)", False),
    ],
)
def test_the_guard_sees_each_form_of_a_power_of_two_bound(source, flagged):
    assert bool(_power_of_two_integers_calls(source)) is flagged


def test_no_power_of_two_bound_is_drawn_through_integers():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [
        f"{path.name}:{line} (bound {span})"
        for path in files
        for line, span in _power_of_two_integers_calls(path.read_text())
    ]
    assert not found, "draw these with seeding.draw_below: " + ", ".join(found)
