"""Bounded fuzz of ``cli.main``: every input ends in exit 0, 1 or 2.

Flags are float strings drawn from the whole double range plus the
values that used to escape as tracebacks or print ``nan``/``inf``.
A Python warning fails a case too: a numpy ``RuntimeWarning`` is a
leak, and the CLI reports coincident references as a ``warning:`` line
on stderr, not as a ``UserWarning``.
"""

import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohcirc.cli import main

pytestmark = [
    pytest.mark.filterwarnings("error::RuntimeWarning"),
    pytest.mark.filterwarnings("error::UserWarning"),
]

SPECIAL = ["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "-1e-320", "0", "-0"]
number = st.one_of(
    st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False).map(repr)
)
pair = st.tuples(number, number).map(",".join)
quad = st.tuples(pair, pair).map(",".join)

fuzz = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


NON_FINITE = re.compile(r"\b(nan|inf)\b")


def run(argv, capsys) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), (argv, code)
    return out


@fuzz
@given(n=st.integers(min_value=-2, max_value=8), alpha=pair)
def test_qkd_never_escapes(n, alpha, capsys):
    out = run(["qkd", f"--n={n}", f"--alpha={alpha}"], capsys)
    assert not NON_FINITE.search(out), out


@fuzz
@given(v1=quad, v2=quad, alpha=pair, target=st.sampled_from(["B00", "B01", "B10", "B11"]))
def test_bellcat_never_escapes(v1, v2, alpha, target, capsys):
    out = run(
        ["bellcat", f"--v1={v1}", f"--v2={v2}", f"--alpha={alpha}", "--target", target],
        capsys,
    )
    assert not NON_FINITE.search(out), out


def mostly(common, rare, one_in: int = 10):
    """``rare`` in about one draw of ``one_in``, ``common`` otherwise."""
    return st.sampled_from([common] * (one_in - 1) + [rare]).flatmap(lambda s: s)


# Searches mostly get valid flags, so that most examples reach the sampler;
# every flag still takes any value of the full strategies now and then.
moderate = st.floats(min_value=-8, max_value=8).map(repr)
search_number = mostly(moderate, number, one_in=20)
search_pair = st.tuples(search_number, search_number).map(",".join)


@fuzz
@given(
    refs=mostly(
        st.lists(search_pair, min_size=2, max_size=4, unique=True),
        st.lists(pair, min_size=1, max_size=4),
    ),
    data=pair,
    match=mostly(st.sampled_from([0, 1, 2, 3]), st.none()),
    c=mostly(st.none() | st.floats(0.01, 0.44).map(repr), number),
    trials=mostly(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3)),
    seed=mostly(st.integers(0, 2**32), st.integers(min_value=-2, max_value=2**64)),
    mode=mostly(st.just("dilation"), st.just("explicit")),
)
def test_search_never_escapes(refs, data, match, c, trials, seed, mode, capsys):
    # A datum taken from the references passes the match check and reaches the sampler.
    data = data if match is None else refs[match % len(refs)]
    argv = ["search", "--refs=" + ";".join(refs), f"--data={data}", f"--trials={trials}"]
    argv += [f"--seed={seed}", f"--mode={mode}"] + ([] if c is None else [f"--c={c}"])
    run(argv, capsys)


small = st.floats(min_value=-0.5, max_value=0.5).map(repr)
entry = st.one_of(number, small)


def numbers_file(header: str, count: int, data) -> str:
    values = data.draw(st.lists(entry, min_size=count, max_size=count))
    return "\n".join([header] + [" ".join(values[i : i + 2]) for i in range(0, count, 2)]) + "\n"


@fuzz
@given(
    rows=st.integers(min_value=1, max_value=4),
    cols=st.integers(min_value=1, max_value=4),
    match_width=st.booleans(),
    data=st.data(),
)
def test_synth_then_run_never_escapes(rows, cols, match_width, data, tmp_path, capsys):
    matrix, circuit, amplitudes = (tmp_path / name for name in ("m.txt", "c.txt", "a.txt"))
    circuit.unlink(missing_ok=True)
    matrix.write_text(numbers_file(f"{rows} {cols}", 2 * rows * cols, data))
    run(["synth", str(matrix), str(circuit)], capsys)
    width = data.draw(st.integers(min_value=1, max_value=8))
    if match_width and circuit.exists():
        width = int(circuit.read_text().split("\n", 1)[0].removeprefix("width="))
    amplitudes.write_text(numbers_file(f"n={width}", 2 * width, data))
    run(["run", str(circuit), str(amplitudes)], capsys)
