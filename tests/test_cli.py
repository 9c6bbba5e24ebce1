import json
import pathlib

import pytest
from click.testing import CliRunner

from k3cone.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FRAME = str(ROOT / "configs" / "f4_frame.json")
PENCIL = str(ROOT / "configs" / "default_pencil.json")
DATA = ROOT / "tests" / "data"


@pytest.fixture
def runner():
    return CliRunner()


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


def test_specialize_scan_rejects_bad_range(runner):
    result = runner.invoke(
        main, ["specialize-scan", PENCIL, "--t-min", "0", "--t-max", "8"])
    assert result.exit_code == 1
    assert "ERROR" in result.output


# Generated by the CLI before the (E, P) splitting was rewritten; any
# refactor must leave these outputs byte-identical.
GOLDEN_RUNS = [
    (["validate", FRAME], "cli_validate_f4.txt"),
    (["orbit", FRAME, "--N", "3"], "cli_orbit_f4_N3.tsv"),
    (["synthetic-pair", FRAME, "--noise", "1", "--seed", "7"],
     "cli_synthetic_pair_noise1_seed7.tsv"),
    (["specialize-scan", PENCIL, "--t-min", "8", "--t-max", "32",
      "--tolerance", "1e-3"], "cli_specialize_scan_8_32.tsv"),
    (["curve-heights", "--a", "0", "--b", "-2", "--point", "3,5",
      "--tolerance", "1e-3"], "cli_curve_heights_3_5.tsv"),
]


@pytest.mark.parametrize("args, golden", GOLDEN_RUNS,
                         ids=[g.split(".")[0] for _, g in GOLDEN_RUNS])
def test_cli_output_matches_golden(runner, args, golden):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA / golden).read_bytes()
