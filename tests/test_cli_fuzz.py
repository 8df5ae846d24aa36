"""Bounded fuzz of ``cli.main``: every input ends in exit 0, 1 or 2.

Flags are float strings drawn from the whole double range plus the
values that used to escape as tracebacks or print ``nan``/``inf``.
"""

import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cohcirc.cli import main

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


@fuzz
@given(
    refs=st.lists(pair, min_size=1, max_size=4),
    data=pair,
    c=st.none() | number,
    trials=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=-2, max_value=2**64),
    mode=st.sampled_from(["dilation", "explicit"]),
)
def test_search_never_escapes(refs, data, c, trials, seed, mode, capsys):
    argv = ["search", "--refs=" + ";".join(refs), f"--data={data}", f"--trials={trials}"]
    argv += [f"--seed={seed}", f"--mode={mode}"] + ([] if c is None else [f"--c={c}"])
    run(argv, capsys)
