"""Bounded fuzz of ``cli.main``: every input ends in exit 0, 1 or 2.

Flags are float strings drawn from the whole double range plus the
values that used to escape as tracebacks or print ``nan``/``inf``.
A Python warning fails a case too: a numpy ``RuntimeWarning`` is a
leak, and the CLI reports coincident references as a ``warning:`` line
on stderr, not as a ``UserWarning``.

``CacheMachine`` runs mixed command sequences in one process, as the
benchmark does, and holds each step to the answer of a fresh process.
"""

import contextlib
import functools
import io
import os
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from cohcirc import cli, formats, protocols, random_unitary
from cohcirc.cli import main
from conftest import format_amplitudes, format_matrix
from test_cli import BAD_INPUT_FILES, BAD_INPUTS

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
    argv = ["run", str(circuit), str(amplitudes)]
    kept = main(argv), capsys.readouterr().out  # may reuse the circuit synth wrote
    assert kept[0] in (0, 1, 2), (argv, kept)
    formats._last_circuit = None  # the same run, parsing the circuit file afresh
    assert (main(argv), capsys.readouterr().out) == kept


# The caches that outlive a ``cli.main`` call, as (module, name) of an
# ``lru_cache``-wrapped function; ``formats._last_circuit`` is the other one.
CACHED = ((cli, "build_parser"), (protocols, "_search_operator"), (protocols, "_dft_circuit"))


@contextlib.contextmanager
def fresh_caches():
    """Run the body with every cache empty, as a fresh process would, then
    put back the caches the process had kept, contents and all."""
    kept_circuit, kept = formats._last_circuit, [getattr(m, name) for m, name in CACHED]
    formats._last_circuit = None
    for (module, name), fn in zip(CACHED, kept):
        empty = functools.lru_cache(fn.cache_parameters()["maxsize"])(fn.__wrapped__)
        setattr(module, name, empty)
    try:
        yield
    finally:
        formats._last_circuit = kept_circuit
        for (module, name), fn in zip(CACHED, kept):
            setattr(module, name, fn)


def scaled_matrix(seed: int, rows: int, cols: int, sigma: float) -> np.ndarray:
    """A random complex ``rows`` x ``cols`` matrix with largest singular value ``sigma``."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    return z * (sigma / np.linalg.svd(z, compute_uv=False)[0])


CIRCUITS = ("c0.txt", "c1.txt", "c2.txt")
small_number = st.integers(-30, 30).map(lambda k: repr(k / 10))
small_pair = st.tuples(small_number, small_number).map(",".join)
tol_flag = st.one_of(
    st.just([]),
    st.sampled_from(["1e-14", "1e-6", "0.25"]).map(lambda tol: ["--tol", tol]),
    st.floats(1e-14, 0.25).map(lambda tol: [f"--tol={tol!r}"]),
)
SHEAR = "2 2\n1 0 0.2 0\n0 0 1 0\n"  # largest singular value 1.105


class CacheMachine(RuleBasedStateMachine):
    """Mixed commands in one process.  After each step the exit code,
    stdout, stderr and the files in the working directory equal those of
    the same argv run on the same files with every cache cleared."""

    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="cohcirc-cache-"))
        for name, text in BAD_INPUT_FILES.items():
            (self.dir / name).write_text(text)
        self.circuits = {"splitter.txt"}  # names of files holding circuit text
        # Each example starts as a fresh process does.
        formats._last_circuit = None
        for module, name in CACHED:
            getattr(module, name).cache_clear()

    def teardown(self):
        shutil.rmtree(self.dir)

    def files(self) -> dict[str, bytes]:
        return {path.name: path.read_bytes() for path in self.dir.iterdir()}

    def call(self, argv):
        stdout, stderr, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        os.chdir(self.dir)  # argv names its files relative to the working directory
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        return code, stdout.getvalue(), stderr.getvalue(), self.files()

    def check(self, argv, codes=(0, 1, 2)) -> int:
        """Run ``argv`` with the kept caches, then afresh from the same files."""
        before = self.files()
        kept = self.call(argv)
        for name in kept[3].keys() - before.keys():
            (self.dir / name).unlink()
        for name, data in before.items():
            (self.dir / name).write_bytes(data)
        with fresh_caches():
            fresh = self.call(argv)
        assert kept == fresh, argv
        assert kept[0] in codes, (argv, kept)
        return kept[0]

    @rule(
        kind=st.sampled_from(["unitary", "contraction", "unit", "expansion", "shear"]),
        seed=st.integers(0, 2**16),
        rows=st.integers(1, 5),
        cols=st.integers(1, 5),
        out=st.sampled_from(CIRCUITS),
        tol=tol_flag,
    )
    def synth(self, kind, seed, rows, cols, out, tol):
        if kind == "shear":
            text = SHEAR
        elif kind == "unitary":
            text = format_matrix(random_unitary(rows, np.random.default_rng(seed)))
        else:
            sigma = {"contraction": 0.9, "unit": 1.0, "expansion": 1.5}[kind]
            text = format_matrix(scaled_matrix(seed, rows, cols, sigma))
        (self.dir / "m.txt").write_text(text)
        if self.check(["synth", "m.txt", out, *tol]) == 0:
            self.circuits.add(out)

    @rule(data=st.data(), seed=st.integers(0, 2**16), width=st.none() | st.integers(1, 6))
    def run(self, data, seed, width):
        name = data.draw(st.sampled_from(sorted(self.circuits)))
        if width is None:  # the circuit's own width
            width = int((self.dir / name).read_text().split("\n", 1)[0].removeprefix("width="))
        rng = np.random.default_rng(seed)
        amplitudes = rng.standard_normal(width) + 1j * rng.standard_normal(width)
        (self.dir / "a.txt").write_text(format_amplitudes(amplitudes))
        self.check(["run", name, "a.txt"])

    @rule(data=st.data(), to=st.sampled_from(CIRCUITS), respell=st.booleans())
    def rewrite_circuit(self, data, to, respell):
        """Equal text at another path, or the same circuit in other text."""
        name = data.draw(st.sampled_from(sorted(self.circuits)))
        text = (self.dir / name).read_text()
        (self.dir / to).write_text(text + "\n" if respell else text)
        self.circuits.add(to)

    @rule(
        refs=st.lists(small_pair, min_size=2, max_size=4, unique=True),
        match=st.integers(0, 3),
        trials=st.integers(1, 40),
        seed=st.integers(0, 2**32),
        mode=st.sampled_from(protocols.SEARCH_MODES),
        c=st.sampled_from([[], ["--c", "0.1"], ["--c=0.44"]]),
        out=st.sampled_from([[], ["--out", "s.csv"]]),
        clicks=st.sampled_from([[], ["--clicks-out", "k.csv"]]),
    )
    def search(self, refs, match, trials, seed, mode, c, out, clicks):
        argv = ["search", "--refs=" + ";".join(refs), f"--data={refs[match % len(refs)]}"]
        argv += [f"--trials={trials}", f"--seed={seed}", f"--mode={mode}"]
        self.check(argv + c + out + clicks)

    @rule(n=st.integers(1, 8), alpha=small_pair)
    def qkd(self, n, alpha):
        self.check(["qkd", f"--n={n}", f"--alpha={alpha}"])

    @rule(
        v1=st.tuples(small_pair, small_pair).map(",".join),
        v2=st.tuples(small_pair, small_pair).map(",".join),
        alpha=small_pair,
        bell=st.sampled_from(sorted(protocols.BELL_TARGETS)),
    )
    def bellcat(self, v1, v2, alpha, bell):
        self.check(["bellcat", f"--v1={v1}", f"--v2={v2}", f"--alpha={alpha}", "--target", bell])

    @rule(case=st.sampled_from(list(BAD_INPUTS.values())))
    def rejected(self, case):
        argv, code = case
        self.check(argv, codes=(code,))


CacheMachine.TestCase.settings = settings(
    max_examples=25,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestCacheMachine = CacheMachine.TestCase
