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
    train_bank,
)
from goofloc.textio import Fields, read_document, read_header, write_document

from forest_reference import reference_deserialize_forest


def test_write_then_read_round_trip():
    text = write_document("GOOF-TEST", 2, {"a": 1, "b": 0.5, "c": ["x", "y"], "d": None},
                          ["rec one", "k=v w=z"])
    assert text == "GOOF-TEST 2\na=1\nb=0.5\nc=x,y\nd=none\nrec one\nk=v w=z\n"
    doc = read_document(text.encode("utf-8"), "GOOF-TEST", 2)
    assert doc.get("a", int) == 1 and doc.get("b", float) == 0.5
    assert doc.get("c") == "x,y" and doc.get("d") == "none"
    assert doc.get("absent", int, 7) == 7
    assert doc.records == [(6, "rec one"), (7, "k=v w=z")]


def test_header_ends_at_first_record_and_blank_lines_are_skipped():
    doc = read_document("\nGOOF-TEST 1\n\na=1\nrecord\nb=2\n", "GOOF-TEST", 1)
    assert list(doc.values) == ["a"]
    assert doc.records == [(5, "record"), (6, "b=2")]


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


def test_record_fields_need_key_value_tokens():
    assert Fields(4, ["a=1", "b=x=y"]).get("b") == "x=y"
    with pytest.raises(FormatError, match="line 4: expected key=value"):
        Fields(4, ["a=1", "loose"])


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
    save_goof(_goof(), out)
    return [out / "index.txt", out / "focf.f64"], lambda: load_goof(out)


def _forest(out):
    train, _ = _goof().split(2, 2)
    save_bank(train_bank(train, 2, 3, WeakLearnerSpec(), 1), out)
    return [out / "forest_cmf.txt", out / "forest_psdf.txt"], lambda: load_bank(out)


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


def _decoded(decode, data: bytes):
    """The error type ``decode(data)`` raises, or the decoded forest's
    table (dtype, shape and bytes of each column) and header fields."""
    try:
        forest = decode(data)
    except (FormatError, ConfigError) as exc:
        return type(exc)
    columns = [getattr(forest, name) for name in (*_COLUMNS, "roots")]
    return ([(c.dtype.str, c.shape, c.tobytes()) for c in columns], forest.depth_limit,
            forest.feature_dim, forest.seed, forest.spec, forest.kind)


def test_forest_mutants_decode_as_in_the_reference_codec(tmp_path):
    # the column codec fails exactly where the per-record reference codec
    # fails, and otherwise reads the same table
    targets, _ = _forest(tmp_path)
    originals = [path.read_bytes() for path in targets]
    outcomes = set()
    for _, data in mutants(originals):
        got = _decoded(deserialize_forest, data)
        assert got == _decoded(reference_deserialize_forest, data)
        outcomes.add(got is FormatError)
    assert outcomes == {True, False}  # the mutants both fail and load
