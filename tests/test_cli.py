import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import traceback
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from k3cone import configio, errors
from k3cone.cli import main
from k3cone.errors import FrameError, InputError
from k3cone.frame import FibrationFrame
from k3cone.lattice import form_from_dict

ROOT = pathlib.Path(__file__).resolve().parent.parent
FRAME = str(ROOT / "configs" / "f4_frame.json")
PENCIL = str(ROOT / "configs" / "default_pencil.json")
DATA = ROOT / "tests" / "data"


@pytest.fixture
def runner():
    return CliRunner()


def test_public_names_resolve():
    import k3cone
    assert [n for n in k3cone.__all__ if not hasattr(k3cone, n)] == []


def test_validate_passes(runner):
    result = runner.invoke(main, ["validate", FRAME])
    assert result.exit_code == 0
    assert result.output.strip().endswith("pass")
    assert "lorentzian signature" in result.output


def test_validate_fails_on_broken_frame(runner, tmp_path):
    doc = json.loads(pathlib.Path(FRAME).read_text())
    doc["O"] = doc["E"]
    doc.pop("sections", None)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    # E.P = 0: a reported frame error, not an uncaught exception
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tFrameError\t" in result.output


def test_a_frame_error_inside_validate_is_reported(runner, monkeypatch):
    """The group turns a `K3ConeError` raised anywhere in a command, here
    in `FibrationFrame.validate` itself, into an ERROR line and exit 1."""
    def broken(self):
        raise FrameError("broken inside validate")

    monkeypatch.setattr(FibrationFrame, "validate", broken)
    result = runner.invoke(main, ["validate", FRAME])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tFrameError\tbroken inside validate" in result.output


def test_validate_reports_input_error(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = runner.invoke(main, ["validate", str(bad)])
    assert result.exit_code == 1
    assert "ERROR\tInputError" in result.output


def test_orbit_tsv(runner):
    result = runner.invoke(main, ["orbit", FRAME, "--N", "1"])
    assert result.exit_code == 0
    lines = result.output.strip().splitlines()
    assert lines[0] == "class\tself_intersection\tfiber_product"
    assert len(lines) == 10  # header + 9 classes
    for line in lines[1:]:
        _, self_int, fiber = line.split("\t")
        assert self_int == "-2" and fiber == "1"


def test_render_uhs_and_ball(runner, tmp_path):
    for model in ("uhs", "ball"):
        out = tmp_path / f"{model}.svg"
        result = runner.invoke(
            main, ["render", FRAME, "--model", model, "--N", "1",
                   "--out", str(out)])
        assert result.exit_code == 0, result.output
        text = out.read_text()
        assert text.startswith("<svg")
        assert text.endswith("</svg>\n")


def test_render_is_deterministic(runner, tmp_path):
    outs = []
    for k in range(2):
        out = tmp_path / f"r{k}.svg"
        runner.invoke(main, ["render", FRAME, "--N", "2", "--out", str(out)])
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_synthetic_pair_noiseless(runner):
    result = runner.invoke(
        main, ["synthetic-pair", FRAME, "--noise", "0", "--fibers", "10,100",
               "--n-max", "50"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    assert lines[0].split("\t") == ["hE", "i", "j", "pairing", "normalized",
                                    "target", "deviation"]
    for line in lines[1:]:
        fields = line.split("\t")
        assert fields[4] == fields[5]  # normalized == target exactly
        assert float(fields[6]) == 0.0


@pytest.mark.parametrize("args", [["--noise", "nan"], ["--noise", "inf"],
                                  ["--fibers", "10,nan"], ["--fibers", "inf"]])
def test_synthetic_pair_rejects_non_finite(runner, args):
    result = runner.invoke(main, ["synthetic-pair", FRAME] + args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


def test_synthetic_pair_rejects_an_empty_fiber_list(runner):
    """An empty fibre list is an error, not a header-only table."""
    result = runner.invoke(main, ["synthetic-pair", FRAME, "--fibers", ",,"])
    assert result.exit_code == 1
    assert "ERROR\tInputError\t" in result.output


def test_synthetic_pair_seed_reproducible(runner):
    args = ["synthetic-pair", FRAME, "--noise", "1", "--seed", "7",
            "--fibers", "10", "--n-max", "50"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_curve_heights(runner):
    result = runner.invoke(
        main, ["curve-heights", "--a", "0", "--b", "-2", "--point", "3,5",
               "--tolerance", "1e-5"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().splitlines()
    kinds = [line.split("\t")[0] for line in lines[1:]]
    assert kinds == ["naive", "canonical", "pairing"]
    canonical = float(lines[2].split("\t")[3])
    pairing = float(lines[3].split("\t")[3])
    # <P, P> = hhat(2P) - 2 hhat(P) ~ 2 hhat(P) up to the estimator defect
    assert abs(pairing - 2.0 * canonical) < 2e-2


def test_curve_heights_bad_point(runner):
    result = runner.invoke(
        main, ["curve-heights", "--a", "0", "--b", "-2", "--point", "1,1"])
    assert result.exit_code == 1
    assert "ERROR" in result.output


def test_specialize_scan(runner, tmp_path):
    out = tmp_path / "scan.tsv"
    result = runner.invoke(
        main, ["specialize-scan", PENCIL, "--t-min", "8", "--t-max", "32",
               "--tolerance", "1e-3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t\theight\ti\tj\tpairing\tnormalized"
    data = [line for line in lines if not line.startswith("#")]
    assert len(data) == 1 + 3 * 4  # header + 3 t-values x 2x2 matrix
    assert any(line.startswith("# successive normalized max-entry diffs")
               for line in lines)


def test_specialize_scan_skips_a_zero_height_fiber(runner):
    result = runner.invoke(
        main, ["specialize-scan", PENCIL, "--t-min", "1", "--t-max", "4",
               "--tolerance", "1e-2"])
    assert result.exit_code == 0, result.output
    assert ("# skipped t=1: parameter height 0 at t = 1"
            in result.output.splitlines())


def test_specialize_scan_rejects_bad_range(runner):
    result = runner.invoke(
        main, ["specialize-scan", PENCIL, "--t-min", "0", "--t-max", "8"])
    assert result.exit_code == 1
    assert "ERROR" in result.output


@pytest.mark.parametrize("args", [
    ["synthetic-pair", FRAME, "--fibers", "10,abc"],
    ["specialize-scan", PENCIL, "--t-min", "abc"],
    ["specialize-scan", PENCIL, "--t-min", "1/0"],
    ["specialize-scan", PENCIL, "--t-min", "0", "--t-max", "8"],
    ["curve-heights", "--a", "0", "--b", "x", "--point", "3,5"],
    ["curve-heights", "--a", "0", "--b", "-2", "--point", "3"],
    ["specialize-scan", PENCIL, "--t-min", "8", "--t-max", "9",
     "--geometric-step", "1.000001"],
    ["specialize-scan", PENCIL, "--t-min", "9", "--t-max", "8"],
])
def test_malformed_input_is_an_input_error(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


@pytest.mark.parametrize("field, value", [
    ("translations", 5),
    ("gram", 3),
    ("E", None),
    ("E", "1000"),
    ("E", {"a": 1, "b": 0, "c": 0, "d": 0}),
    ("translations", ["0010", "0001"]),
    ("ample", ["x", 1, 0, 0]),
    ("ample", ["1/0", 1, 0, 0]),
    ("ample", [2.0, 1, 0, 0]),
    ("sections", 7),
    ("E", [True, False, False, False]),
    ("labels", 5),
])
def test_malformed_config_is_an_input_error(runner, tmp_path, field, value):
    """A config of the wrong shape is an `InputError` where it is coerced,
    not a traceback, and never read as something else."""
    doc = json.loads(pathlib.Path(FRAME).read_text())
    doc[field] = value
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    result = runner.invoke(main, ["validate", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


# the loaders of each command's config, called directly below
LOADERS = {"validate": (form_from_dict, configio.frame_from_dict),
           "specialize-scan": (configio.pencil_from_dict,)}


@pytest.mark.parametrize("command, doc", [
    ("validate", 3),
    ("validate", "gram"),
    ("specialize-scan", 3),
    ("specialize-scan", {"a": 5, "b": [0], "sections": []}),
    ("specialize-scan", {"a": [0, 0, -1], "b": [0, 0, 1], "sections": 5}),
    ("specialize-scan", {"a": [0, 0, -1], "b": [0, 0, 1], "sections": [5]}),
    ("specialize-scan", {"a": [False, 0, -1], "b": [0, 0, 1],
                         "sections": []}),
    ("validate", ["gram"]),
    ("validate", 5),
    ("validate", {"labels": ["E", "P"]}),
])
def test_malformed_config_document_is_an_input_error(runner, tmp_path,
                                                      command, doc):
    """A top level that is not an object, and pencil fields of the wrong
    shape, are an `InputError` at load, not a traceback or a silent read:
    from the command line and from each loader of the parsed document."""
    for load in LOADERS[command]:
        with pytest.raises(InputError):
            load(doc)
    config = tmp_path / "bad.json"
    config.write_text(json.dumps(doc))
    scan = (["--t-min", "8", "--t-max", "8"] if command == "specialize-scan"
            else [])
    result = runner.invoke(main, [command, str(config), *scan])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


@pytest.mark.parametrize("case", ["directory", "not-utf8", "unwritable-out"])
def test_file_errors_are_input_errors(runner, tmp_path, case):
    """A config that is a directory or not UTF-8, and an --out that cannot
    be written, are an `InputError` with exit 1, not a traceback."""
    config = tmp_path / "bad.json"
    config.write_bytes(b"\xff\xfe")
    args = {"directory": ["validate", str(ROOT / "configs")],
            "not-utf8": ["validate", str(config)],
            "unwritable-out": ["render", FRAME, "--out",
                               str(tmp_path / "missing" / "x.svg")]}[case]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
@pytest.mark.parametrize("args", [
    ["curve-heights", "--a", "0", "--b", "-2", "--point", "3,5"],
    ["specialize-scan", PENCIL, "--t-min", "8", "--t-max", "8"],
], ids=["curve-heights", "specialize-scan"])
def test_non_finite_tolerance_is_an_input_error(runner, args, tol):
    result = runner.invoke(main, args + ["--tolerance", tol])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


RANK0 = {"gram": [[0, 1], [1, 0]], "E": [1, 0], "O": [-1, 1],
         "ample": [2, 1], "translations": []}


def test_render_ball_rejects_a_rank_zero_frame(runner, tmp_path):
    """A rank-0 frame's ball is 1-dimensional: its walls have no trace."""
    config = tmp_path / "rank0.json"
    config.write_text(json.dumps(RANK0))
    out = tmp_path / "rank0.svg"
    result = runner.invoke(main, ["render", str(config), "--model", "ball",
                                  "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output
    assert not out.exists()


def test_render_uhs_rejects_a_rank_zero_frame(runner, tmp_path):
    """A rank-0 frame's UHS boundary is a point that no wall meets."""
    config = tmp_path / "rank0.json"
    config.write_text(json.dumps(RANK0))
    out = tmp_path / "rank0.svg"
    result = runner.invoke(main, ["render", str(config), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output
    assert not out.exists()


def test_synthetic_pair_rejects_a_rank_zero_frame(runner, tmp_path):
    """A rank-0 frame has no pairing: its table would be the header alone."""
    config = tmp_path / "rank0.json"
    config.write_text(json.dumps(RANK0))
    result = runner.invoke(main, ["synthetic-pair", str(config)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "ERROR\tInputError\t" in result.output


# Generated by the CLI before the (E, P) splitting was rewritten; any
# refactor must leave these outputs byte-identical.
def _golden_runs():
    """(arguments, golden file) of each run in the table that
    tests/cli_checks.sh reads too; its paths are relative to ROOT."""
    lines = (DATA / "cli_golden_runs.txt").read_text().splitlines()
    runs = [line.split() for line in lines
            if line.strip() and not line.startswith("#")]
    return [(args, golden) for golden, *args in runs]


GOLDEN_RUNS = _golden_runs()


@pytest.mark.parametrize("args, golden", GOLDEN_RUNS,
                         ids=[g.split(".")[0] for _, g in GOLDEN_RUNS])
def test_cli_output_matches_golden(runner, monkeypatch, args, golden):
    monkeypatch.chdir(ROOT)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA / golden).read_bytes()


@pytest.mark.parametrize("args, golden", [
    ([], "golden_uhs.svg"), (["--model", "ball"], "golden_ball.svg")])
def test_render_matches_golden_svg(runner, tmp_path, args, golden):
    out = tmp_path / golden
    result = runner.invoke(
        main, ["render", FRAME, *args, "--N", "2", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert out.read_bytes() == (DATA / golden).read_bytes()


def test_synthetic_pair_noise_is_the_same_in_every_process():
    """The noise streams are keyed by strings, never through hash(), so a
    fresh interpreter with any hash seed prints the golden table."""
    golden = (DATA / "cli_synthetic_pair_noise1_seed7.tsv").read_bytes()
    args = [sys.executable, "-m", "k3cone.cli", "synthetic-pair", FRAME,
            "--noise", "1", "--seed", "7"]
    src = str(ROOT / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        done = subprocess.run(args, env=env, capture_output=True,
                              timeout=120, check=True)
        assert done.stdout == golden


# -- generated runs: every command ends in one of three known ways ----------

ERROR_NAMES = {c.__name__ for c in vars(errors).values()
               if isinstance(c, type) and issubclass(c, errors.K3ConeError)}
JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(),
                 st.sampled_from(["x", "1/2", "1/0", "", [], {}, [[1]]]))
SMALL = st.integers(-3, 3)


def _pick(draw, valid, good, bad):
    """One of good, or of good and bad unless the run is a valid one."""
    return draw(st.sampled_from(good if valid else good + bad))


@st.composite
def _vector(draw, dim):
    """dim small integers; now and then one more or one fewer, or an
    entry that is junk."""
    v = draw(st.lists(SMALL, min_size=dim, max_size=dim))
    how = draw(st.sampled_from(["keep"] * 6 + ["short", "long", "entry"]))
    if how == "short":
        return v[:-1]
    if how == "long":
        return v + [0]
    if how == "entry" and v:
        v[draw(st.integers(0, dim - 1))] = draw(JUNK)
    return v


def _mutate(draw, doc, fields):
    """doc with one field replaced by junk or dropped, or junk in its
    place."""
    how = draw(st.sampled_from(["junk", "drop", "top"]))
    if how == "junk":
        doc[draw(st.sampled_from(fields))] = draw(JUNK)
    elif how == "drop":
        doc.pop(draw(st.sampled_from(fields)), None)
    else:
        doc = draw(JUNK)
    return doc


@st.composite
def _frame_docs(draw, valid):
    """Frame configs of dims 1-6 (3-6 in a valid run): U + a negative
    definite block with the standard E, O, ample class and some
    translations (at least one in a valid run), or any symmetric
    Gram (mostly degenerate or indefinite) with any vectors; unless the
    run is a valid one, some field may then be junk or missing."""
    dim = draw(st.integers(3 if valid else 1, 6))
    r = max(dim - 2, 0)
    if valid or dim >= 2 and draw(st.booleans()):
        gram = [[int(i + j == 1) if max(i, j) < 2 else 0 for j in range(dim)]
                for i in range(dim)]
        for i in range(r):
            gram[2 + i][2 + i] = -draw(st.sampled_from([1, 2, 4, 6]))
        if r >= 2 and draw(st.booleans()):
            gram[2][3] = gram[3][2] = draw(st.sampled_from([-1, 1]))
        unit = [[int(k == i) for k in range(dim)] for i in range(dim)]
        doc = {"gram": gram, "E": unit[0], "O": [-1, 1] + [0] * r,
               "ample": [draw(st.integers(1, 4)), 1]
               + draw(st.lists(st.integers(-1, 1), min_size=r, max_size=r)),
               "translations": unit[2:2 + draw(st.integers(valid, r))]}
    else:
        rows = draw(st.lists(st.lists(SMALL, min_size=dim, max_size=dim),
                             min_size=dim, max_size=dim))
        gram = [[rows[min(i, j)][max(i, j)] for j in range(dim)]
                for i in range(dim)]
        doc = {"gram": gram, **{k: draw(_vector(dim))
                                for k in ("E", "O", "ample")},
               "translations": draw(st.lists(_vector(dim), max_size=r))}
    if valid or draw(st.booleans()):
        return doc
    return _mutate(draw, doc, ["gram", "E", "O", "ample", "translations",
                               "labels", "sections"])


@st.composite
def _pencil_docs(draw, valid):
    """The default pencil with some of its sections, or random small
    polynomials (sections that rarely satisfy the equation), or junk."""
    poly = st.lists(SMALL, max_size=3)
    if valid or draw(st.booleans()):
        sections = draw(st.lists(st.sampled_from(
            [{"x": [0], "y": [0, 1]}, {"x": [0, 1], "y": [0, 1]}]),
            min_size=valid, max_size=2))
        doc = {"a": [0, 0, -1], "b": [0, 0, 1], "sections": sections}
    else:
        doc = {"a": draw(poly), "b": draw(poly),
               "sections": draw(st.lists(st.fixed_dictionaries(
                   {"x": poly, "y": poly}), max_size=2))}
    if valid or draw(st.booleans()):
        return doc
    return _mutate(draw, doc, ["a", "b", "sections"])


RATIONALS = st.builds(lambda p, q: Fraction(p, q), st.integers(-5, 5),
                      st.sampled_from([1, 2, 4]))
TOLERANCES = (["1e-2", "0.1", "1"], ["0", "-1", "nan", "inf"])


@st.composite
def _runs(draw):
    """(arguments, config document): "{config}" and "{out}" in the
    arguments stand for the document's file and an SVG to write.  Half
    the runs draw only valid arguments and configs, the rest any."""
    valid = draw(st.booleans())
    command = draw(st.sampled_from(["validate", "orbit", "render",
                                    "synthetic-pair", "curve-heights",
                                    "specialize-scan"]))
    if command == "curve-heights":
        # a point on the curve (b solved for), or b and the point at random
        a, x, y = draw(RATIONALS), draw(RATIONALS), draw(RATIONALS)
        b = y * y - x ** 3 - a * x if valid or draw(st.booleans()) else a
        points = [f"{x},{y}", _pick(draw, valid, [f"{x},{-y}"],
                                    ["0,1", "3,5", "1", "x,1"])]
        points = points[:draw(st.integers(1, 2))]
        return [command, "--a", str(a),
                "--b", _pick(draw, valid, [str(b)], ["x", "1/0"]),
                *itertools.chain.from_iterable(("--point", p) for p in points),
                "--tolerance", _pick(draw, valid, *TOLERANCES)], None
    if command == "specialize-scan":
        return [command, "{config}",
                "--t-min", _pick(draw, valid, ["1", "3/2", "2", "8"], ["0"]),
                "--t-max", draw(st.sampled_from(["2", "4", "8", "16"])),
                "--geometric-step", _pick(draw, valid, ["2", "3/2", "3"],
                                          ["1", "1/2"]),
                "--tolerance", _pick(draw, valid, *TOLERANCES)
                ], draw(_pencil_docs(valid))
    args = [command, "{config}"]
    if command in ("orbit", "render"):
        args += ["--N", _pick(draw, valid, ["0", "1"], ["-1"])]
    if command == "render":
        args += ["--model", draw(st.sampled_from(["uhs", "ball"])),
                 "--out", "{out}"]
    if command == "synthetic-pair":
        args += ["--seed", str(draw(st.integers(-5, 100))),
                 "--noise", _pick(draw, valid, ["0", "0.5", "1"],
                                  ["-1", "nan", "inf"]),
                 "--fibers", _pick(draw, valid, ["10,100", "1e3"],
                                   ["", ",,", "10,abc", "0", "-5", "inf"]),
                 "--n-max", _pick(draw, valid, ["1", "4", "10"], ["0", "-1"])]
    return args, draw(_frame_docs(valid))


@settings(max_examples=60, deadline=None)
@given(run=_runs())
def test_generated_runs_end_in_a_known_way(run):
    """Each run exits 0; or exits 1 with `ERROR\\t<K3ConeError subclass>\\t`;
    or, for validate only, exits 1 with a report that ends in `fail`.
    Never a traceback or a usage error."""
    args, doc = run
    with tempfile.TemporaryDirectory() as tmp:
        config, out = pathlib.Path(tmp, "config.json"), pathlib.Path(tmp, "o")
        config.write_text(json.dumps(doc))
        result = CliRunner().invoke(main, [
            a.replace("{config}", str(config)).replace("{out}", str(out))
            for a in args])
    if result.exit_code == 0:
        return
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), (
        "".join(traceback.format_exception(*result.exc_info)) + result.output)
    error = re.match(r"ERROR\t(\w+)\t", result.output)
    if error:
        assert error.group(1) in ERROR_NAMES
    else:
        assert args[0] == "validate", result.output
        assert result.output.splitlines()[-1] == "fail"
