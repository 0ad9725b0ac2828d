"""The shared artifact codec, and seeded mutations of every artifact."""

import numpy as np
import pytest

from goofloc import ExperimentConfig
from goofloc.dataset import load_snapshot_dataset, save_snapshot_dataset
from goofloc.errors import ConfigError, FormatError
from goofloc.experiments import (
    Report,
    config_from_text,
    config_to_text,
    load_bmatrices,
    load_report,
    report_to_text,
    save_bmatrices,
    simulate_cell,
)
from goofloc.fingerprints import KIND_ORDER, build_goof, load_goof, save_goof
from goofloc.forest import (
    _COLUMNS,
    PredictionMatrix,
    WeakLearnerSpec,
    deserialize_forest,
    load_bank,
    save_bank,
    serialize_forest,
    train_bank,
)
from goofloc.textio import read_document, read_header, write_document

from forest_reference import nonfinite_probe, predict_forest


def test_write_then_read_round_trip():
    text = write_document("GOOF-TEST", 2, {"a": 1, "b": 0.5, "c": ["x", "y"], "d": None})
    assert text == "GOOF-TEST 2\na=1\nb=0.5\nc=x,y\nd=none\n"
    doc = read_document(text.encode("utf-8"), "GOOF-TEST", 2)
    assert doc.get("a", int) == 1 and doc.get("b", float) == 0.5
    assert doc.get("c") == "x,y" and doc.get("d") == "none"
    assert doc.get("absent", int, 7) == 7
    # records are written (the fusion result), but no reader takes them
    text = write_document("GOOF-TEST", 2, {"a": 1}, ["rec one", "k=v w=z"])
    assert text == "GOOF-TEST 2\na=1\nrec one\nk=v w=z\n"
    with pytest.raises(FormatError, match="^line 3: expected key=value, got 'rec one'$"):
        read_document(text.encode("utf-8"), "GOOF-TEST", 2)


def test_blank_lines_are_skipped_and_a_record_line_is_refused():
    doc = read_document("\nGOOF-TEST 1\n\na=1\n\nb=2\n", "GOOF-TEST", 1)
    assert doc.line == 2 and doc.values == {"a": ("1", 4), "b": ("2", 6)}
    with pytest.raises(FormatError, match="^line 5: expected key=value, got 'record'$"):
        read_document("\nGOOF-TEST 1\n\na=1\nrecord\nb=2\n", "GOOF-TEST", 1)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "empty"),
        ("GOOF-OTHER 1\n", "line 1: expected 'GOOF-TEST 1'"),
        ("GOOF-TEST 9\n", "line 1: expected 'GOOF-TEST 1'"),
        ("GOOF-TEST 1\nn=1\nn=2\n", "line 3: duplicate field 'n'"),
        ("GOOF-TEST 1\nn=abc\n", "line 2: bad n 'abc'"),
        ("GOOF-TEST 1\nm=1\n", "line 1: missing field 'n'"),
    ],
)
def test_typed_accessor_errors_name_key_and_line(text, match):
    with pytest.raises(FormatError, match=match):
        read_document(text, "GOOF-TEST", 1).get("n", int)


def test_invalid_utf8_is_a_format_error_at_its_byte():
    with pytest.raises(FormatError) as err:
        read_document(b"GOOF-TEST 1\nn=\xff\n", "GOOF-TEST", 1)
    assert err.value.byte_offset == 14


def test_header_lines_need_one_key_value_token():
    assert read_document("GOOF-TEST 1\nb=x=y\n", "GOOF-TEST", 1).get("b") == "x=y"
    for line in ("a=1 b=2", "loose", "=1"):
        with pytest.raises(FormatError, match=f"^line 3: expected key=value, got '{line}'$"):
            read_document(f"GOOF-TEST 1\nb=2\n{line}\n", "GOOF-TEST", 1)


def test_binary_header_stops_at_end_header():
    raw = b"GOOF-TEST 1\nn=3\nend-header\n\x00\xff\n"
    doc, offset = read_header(raw, "GOOF-TEST", 1)
    assert doc.get("n", int) == 3 and raw[offset:] == b"\x00\xff\n"
    with pytest.raises(FormatError, match="line 2: expected key=value"):
        read_header(b"GOOF-TEST 1\nn 3\nend-header\n", "GOOF-TEST", 1)
    with pytest.raises(FormatError, match="no end-header"):
        read_header(b"GOOF-TEST 1\nn=3\n", "GOOF-TEST", 1)


CONFIG = ExperimentConfig(
    seed=11, grid_count=4, num_elements=4, snapshot_count=64, group_count=4,
    train_count=2, test_count=2, tree_count=2, depth_limit=3,
    noise_kinds=("gaussian",), snr_grid_db=(12.0,), windows=(2,), repetitions=1,
)


def _snap(out):
    save_snapshot_dataset(out / "cell.goofsnap", simulate_cell(CONFIG, "gaussian", 12.0))
    return [out / "cell.goofsnap"], lambda: load_snapshot_dataset(out / "cell.goofsnap")


def _goof():
    return build_goof(simulate_cell(CONFIG, "gaussian", 12.0), CONFIG.group_count)


def _fpstore(out):
    save_goof(_goof(), out / "goof")
    return [out / "goof"], lambda: load_goof(out / "goof")


def _forest(out):
    train, _ = _goof().split(2, 2)
    save_bank(train_bank(train, 2, 3, WeakLearnerSpec(), 1), out)
    return [out / "forest_cmf.goofforest", out / "forest_psdf.goofforest"], lambda: load_bank(out)


def _bmat(out):
    rng = np.random.default_rng(0)
    matrices = {
        g: PredictionMatrix(matrix=rng.integers(1, 5, size=(3, len(KIND_ORDER))), true_label=g)
        for g in (1, 2, 3, 4)
    }
    save_bmatrices(out / "b.txt", matrices)
    return [out / "b.txt"], lambda: load_bmatrices(out / "b.txt")


def _report(out):
    report = Report(config_hash="ab12", seed=11)
    for snr in (0.0, 12.0):
        for method in ("cmf", "mode", "swim_w2"):
            for rho in (0.25, 1.0):
                report.add("gaussian", snr, method, rho, 1.5 * rho)
    report.add_timing("bank", train_s=0.5, test_s=0.1, predictions=8)
    (out / "report.txt").write_text(report_to_text(report), encoding="utf-8")
    return [out / "report.txt"], lambda: load_report(out / "report.txt")


def _config(out):
    (out / "config.txt").write_text(config_to_text(CONFIG), encoding="utf-8")
    # callers hand the config over as text; undecodable files are a CLI case
    path = out / "config.txt"
    return [path], lambda: config_from_text(path.read_text("utf-8", errors="replace"))


ARTIFACTS = {
    "snap": _snap,
    "fpstore": _fpstore,
    "forest": _forest,
    "bmat": _bmat,
    "report": _report,
    "config": _config,
}


def mutants(originals: list):
    """Seeded truncations, byte flips and dropped lines of the files
    ``originals``: 300 ``(file index, mutated bytes)`` pairs."""
    rng = np.random.default_rng(5)
    for trial in range(300):
        which = trial % len(originals)
        data = bytearray(originals[which])
        op = trial % 3
        if op == 0:
            data = data[: rng.integers(len(data))]
        elif op == 1:
            data[rng.integers(len(data))] = rng.integers(256)
        else:
            lines = bytes(data).split(b"\n")
            del lines[rng.integers(len(lines))]
            data = b"\n".join(lines)
        yield which, bytes(data)


@pytest.mark.parametrize("make", ARTIFACTS.values(), ids=ARTIFACTS.keys())
def test_mutated_artifact_loads_or_raises_typed_error(tmp_path, make):
    # every mutant either loads or raises FormatError/ConfigError, never
    # another exception
    targets, load = make(tmp_path)
    originals = [path.read_bytes() for path in targets]
    load()
    for which, data in mutants(originals):
        targets[which].write_bytes(data)
        try:
            load()
        except (FormatError, ConfigError):
            pass
        targets[which].write_bytes(originals[which])


# an infinite feature times a zero weight, or opposite infinities in a
# hyperplane, give NaN projections, as in the reference walk
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_forest_mutants_fail_typed_or_predict_like_the_reference_walk(tmp_path):
    # a mutant either raises FormatError/ConfigError, or loads into a forest
    # that votes as the per-sample reference walk does and whose file loads
    # back to the same table
    targets, _ = _forest(tmp_path)
    originals = [path.read_bytes() for path in targets]
    outcomes = set()
    for trial, (_, data) in enumerate(mutants(originals)):
        try:
            forest = deserialize_forest(data)
        except (FormatError, ConfigError):
            outcomes.add(False)
            continue
        outcomes.add(True)
        probe = nonfinite_probe(forest.feature_dim, seed=trial)
        reference = [predict_forest(forest, row) for row in probe]
        assert np.array_equal(forest.predict_batch(probe), reference)
        back = deserialize_forest(serialize_forest(forest))
        for name in (*_COLUMNS, "roots"):
            got, want = getattr(back, name), getattr(forest, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert outcomes == {True, False}  # the mutants both fail and load
