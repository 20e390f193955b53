"""File formats: float64 array payloads, reader checks, exact round trips,
files in the older list form, and a pinned end-to-end CLI chain."""
import base64
import copy
import json
import os
import re
import subprocess
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptycho import (
    CalibrationMatrix,
    ReadoutNoiseModel,
    StateVector,
    UnitarySpec,
    build_calibration,
    circuit_settings,
    generate_dataset,
    load_calibration,
    load_dataset,
    load_state,
    mitigate_dataset,
    save_calibration,
    save_dataset,
    save_state,
    states,
)
from qptycho.cli import main
from qptycho.protocol import dataset_to_dict
from qptycho.states import _decode_array, _encode_array

from conftest import JSON_VALUES, peak_traced_bytes
from oracles import haar_state

#: Values a text format tends to lose: signed zero, subnormals, extremes.
SPECIALS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1e308, -1e308]


def payload(values, **change):
    doc = _encode_array(np.asarray(values, dtype=np.float64))
    doc.update(change)
    return doc


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return path


def small_dataset(mitigated=False):
    data = generate_dataset(StateVector(1, [1, 0]), UnitarySpec.qft(), 10, seed=1)
    return replace(data, mitigated=mitigated)


class TestArrayPayload:
    @given(st.lists(st.floats(allow_nan=False) | st.sampled_from(SPECIALS), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, values):
        arr = np.array(values, dtype=np.float64)
        doc = json.loads(json.dumps(_encode_array(arr)))
        back = _decode_array(doc, "x")
        assert np.array_equal(back, arr)
        assert np.array_equal(np.signbit(back), np.signbit(arr))

    def test_keeps_shape_and_little_endian_bytes(self):
        arr = np.arange(6.0).reshape(2, 3)
        doc = _encode_array(arr)
        assert doc["dtype"] == "<f8" and doc["shape"] == [2, 3]
        assert zlib.decompress(base64.b64decode(doc["data"])) == arr.astype("<f8").tobytes()
        assert np.array_equal(_decode_array(doc, "x"), arr)

    def test_uncompressed_payload_still_reads(self):
        doc = {"dtype": "<f8", "shape": [2, 3],
               "data": "AAAAAAAAAAAAAAAAAADwPwAAAAAAAABAAAAAAAAACEAAAAAAAAAQQAAAAAAAABRA"}
        assert np.array_equal(_decode_array(doc, "x"), np.arange(6.0).reshape(2, 3))

    def test_returns_owned_writable_float64(self):
        for value in (payload([1.0, 2.0]), [1, 2]):
            arr = _decode_array(value, "x")
            assert arr.dtype == np.float64 and arr.flags.writeable and arr.flags.owndata
            arr[0] = 7.0

    @pytest.mark.parametrize("shape", [[0], [2, 0], [1], [7], [3, 4], [2, 5000]])
    def test_every_form_decodes_to_an_owned_contiguous_copy(self, shape):
        arr = np.random.default_rng(len(shape)).standard_normal(shape)
        arr.flat[: len(SPECIALS)] = SPECIALS[: arr.size]
        doc = payload(arr)
        # What the reader returned before it inflated in steps.
        expected = np.frombuffer(
            zlib.decompress(base64.b64decode(doc["data"])), dtype="<f8"
        ).reshape(shape).astype(np.float64)
        for value in (doc, raw_payload(arr), arr.tolist()):
            back = _decode_array(value, "x")
            assert back.dtype == np.float64 and back.shape == tuple(shape)
            assert back.flags.owndata and back.flags.writeable and back.flags.c_contiguous
            assert np.array_equal(back, expected)
            assert np.array_equal(np.signbit(back), np.signbit(expected))

    @given(values=st.lists(st.floats(allow_nan=False) | st.sampled_from(SPECIALS), max_size=60),
           step=st.sampled_from([1, 7, 64]), level=st.sampled_from([0, 1, 9]),
           cut=st.integers(1, 12), junk=st.binary(min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_small_inflate_steps(self, values, step, level, cut, junk):
        arr = np.array(values, dtype=np.float64)
        stream = zlib.compress(arr.tobytes(), level)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(states, "_INFLATE_STEP", step)
            back = _decode_array(payload(arr, data=base64.b64encode(stream).decode()), "x")
            assert np.array_equal(back, arr) and np.array_equal(np.signbit(back), np.signbit(arr))
            for bad in (stream + junk, stream[: max(0, len(stream) - cut)]):
                with pytest.raises(ValueError, match="x: data is not a valid zlib stream"):
                    _decode_array(payload(arr, data=base64.b64encode(bad).decode()), "x")

    def test_list_form_still_reads(self):
        assert np.array_equal(_decode_array([[1, 2.5], [0, -3]], "x"), [[1, 2.5], [0, -3]])

    def test_rejects_other_dtype(self):
        with pytest.raises(ValueError, match="x: dtype must be '<f8', got '>f8'"):
            _decode_array(payload([1.0], dtype=">f8"), "x")

    @pytest.mark.parametrize(
        "data", ["AAAA AAAAAAA=", "AAAAAAAAAAA=\n", "AAAA*AAAAAA=", "AAAAAAAAAAA", "é", None, 5]
    )
    def test_rejects_invalid_base64(self, data):
        with pytest.raises(ValueError, match="x: data is not valid base64"):
            _decode_array(payload([1.0], data=data), "x")

    @pytest.mark.parametrize("shape", [None, 1, "1", [-1], [1.0], [True], [[1]]])
    def test_rejects_bad_shape(self, shape):
        with pytest.raises(ValueError, match="x: shape must be a list of integers >= 0"):
            _decode_array(payload([1.0], shape=shape), "x")

    @pytest.mark.parametrize("shape", [[2], [1, 0], [3, 1]])
    def test_rejects_byte_count_other_than_shape(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"x: data holds 8 bytes, shape {shape} needs")):
            _decode_array(payload([1.0], shape=shape), "x")

    def test_rejects_a_zlib_stream_too_short_for_its_shape_before_allocating(self):
        # No stream of 11 bytes inflates to the 8 MiB the shape declares.
        value = payload([0.0], shape=[1 << 20])

        def decode():
            with pytest.raises(ValueError, match=r"^x: data holds 8 bytes, shape \[1048576\] needs 8388608$"):
                _decode_array(value, "x")

        assert peak_traced_bytes(decode) < 1 << 20

    def test_a_stream_near_the_deflate_ceiling_still_decodes(self):
        # 2^20 zero bytes at level 9 compress about 1028:1; deflate's ceiling is 1032:1.
        stream = zlib.compress(bytes(1 << 20), 9)
        assert len(stream) * 1000 < 1 << 20
        back = _decode_array(payload([0.0], shape=[1 << 17], data=base64.b64encode(stream).decode()), "x")
        assert back.shape == (1 << 17,) and not back.any()

    @pytest.mark.parametrize("value", [["1.0"], [1.0, "a"], [[1.0], [1.0, 2.0]], [{"a": 1}], "AAAA", 3])
    def test_rejects_non_numeric_values(self, value):
        with pytest.raises(ValueError, match="x must be"):
            _decode_array(value, "x")


# The dataset reader on a 10^7-qubit document with no records, in a child
# under a 1 GiB address-space limit; it prints the reader's ValueError.
HUGE_N_CHILD = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qptycho.protocol import dataset_from_dict
try:
    dataset_from_dict({"n": 10**7, "records": []})
except ValueError as exc:
    print(exc)
"""

# The reader of kind argv[1] on the file argv[2], in a child under the same
# limit; it prints the reader's ValueError.
LIMITED_READER_CHILD = """
import resource
import sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from qptycho import load_calibration, load_dataset, load_state
readers = {"state": load_state, "dataset": load_dataset, "calibration": load_calibration}
try:
    readers[sys.argv[1]](sys.argv[2])
except ValueError as exc:
    print(exc)
"""

# The rise of the process peak, in bytes, across mitigate_dataset at
# n = argv[1]: a sampled calibration and a noisy 8192-shot qft dataset.
MITIGATION_PEAK_CHILD = """
import resource
import sys
import numpy as np
from qptycho import (ReadoutNoiseModel, UnitarySpec, build_calibration, generate_dataset,
                     mitigate_dataset, random_arbitrary)
n = int(sys.argv[1])
noise = ReadoutNoiseModel.symmetric(n + 1, 0.025)
cal = build_calibration(n, noise, 20_000, seed=n)
state = random_arbitrary(n, np.random.default_rng(n))
dataset = generate_dataset(state, UnitarySpec.qft(), 8192, noise=noise, seed=n)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
mitigate_dataset(dataset, cal)
print(1024 * (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before))  # ru_maxrss is in KiB on Linux
"""


def run_child(code, *args):
    """``python -c code *args`` on this checkout's package."""
    pythonpath = [str(Path(states.__file__).resolve().parent.parent)]
    if os.environ.get("PYTHONPATH"):
        pythonpath.append(os.environ["PYTHONPATH"])
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
        capture_output=True, text=True, timeout=120,
    )


def empty_payload(shape, encoding="zlib"):
    """A payload that declares ``shape`` and holds no data."""
    doc = {"dtype": "<f8", "shape": shape, "data": ""}
    return doc if encoding is None else {**doc, "encoding": encoding}


def empty_dataset(n):
    """A dataset document of n qubits whose 3n records hold no data."""
    records = [{"xi": axis, "q": q, "counts": empty_payload([2 << n])} for axis, q in circuit_settings(n)]
    return {"n": n, "unitary": UnitarySpec.qft().to_dict(), "shots": 0, "records": records}


def read_n20_file(tmp_path, later):
    """(path, output) of the dataset reader under 1 GiB of address space on
    an n = 20 file under 30 KB: record 0 is a full row of zeros at zlib
    level 9, and each later record's counts are ``later(counts)``."""
    doc = empty_dataset(20)
    full = zlib.compress(bytes(8 << 21), 9)
    doc["records"][0]["counts"]["data"] = base64.b64encode(full).decode()
    for record in doc["records"][1:]:
        record["counts"] = later(record["counts"])
    path = write_json(tmp_path / "f.json", doc)
    assert path.stat().st_size < 30_000
    proc = run_child(LIMITED_READER_CHILD, "dataset", str(path))
    assert proc.returncode == 0, proc.stderr
    return path, proc.stdout


class TestReaderChecks:
    def test_state_rejects_bool_qubit_count(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": True, "amps": [[1, 0], [0, 0]]})
        with pytest.raises(ValueError, match=r"state file .*s\.json: n must be an integer >= 1, got True"):
            load_state(path)

    def test_state_rejects_negative_qubit_count(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": -1, "amps": []})
        with pytest.raises(ValueError, match=r"s\.json: n must be an integer >= 1, got -1"):
            load_state(path)

    def test_state_rejects_string_amplitudes(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 1, "amps": [["1", "0"], ["0", "0"]]})
        with pytest.raises(ValueError, match=r"s\.json: amps must be a list of numbers"):
            load_state(path)

    def test_state_rejects_amplitudes_that_are_not_pairs(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 1, "amps": [1.0, 0.0]})
        with pytest.raises(ValueError, match=r"s\.json: amps must be a list of \[re, im\] pairs"):
            load_state(path)

    @pytest.mark.parametrize("doc", [[], [1, 2], "state", 3, None])
    def test_every_reader_rejects_a_non_object_document(self, tmp_path, doc):
        path = write_json(tmp_path / "f.json", doc)
        for reader, kind in ((load_state, "state"), (load_dataset, "dataset"),
                             (load_calibration, "calibration")):
            with pytest.raises(ValueError, match=rf"{kind} file .*f\.json: expected a JSON object"):
                reader(path)

    @pytest.mark.parametrize("field, value, message", [
        ("n", True, "n must be an integer >= 1, got True"),
        ("n", 0, "n must be an integer >= 1, got 0"),
        ("mitigated", "yes", "mitigated must be true or false, got 'yes'"),
        ("mitigated", 1, "mitigated must be true or false, got 1"),
        ("shots", 10.0, "shots must be an integer >= 0, got 10.0"),
        ("shots", -10, "shots must be an integer >= 0, got -10"),
        ("unitary", "qft", "unitary must be an object"),
        ("records", {}, "records must be a list of objects"),
    ])
    def test_dataset_rejects_bad_fields(self, tmp_path, field, value, message):
        doc = dataset_to_dict(small_dataset())
        doc[field] = value
        path = write_json(tmp_path / "d.json", doc)
        with pytest.raises(ValueError, match=rf"dataset file .*d\.json: {message}"):
            load_dataset(path)

    def test_dataset_rejects_bool_qubit_index(self, tmp_path):
        doc = dataset_to_dict(generate_dataset(StateVector(2, [1, 0, 0, 0]), UnitarySpec.qft(), 10, seed=1))
        doc["records"][1]["q"] = True
        path = write_json(tmp_path / "d.json", doc)
        with pytest.raises(ValueError, match=r"d\.json: records\[1\]\.q must be an integer"):
            load_dataset(path)

    def test_calibration_rejects_bool_qubit_count(self, tmp_path):
        path = tmp_path / "c.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(2)), path)
        doc = json.loads(path.read_text())
        doc["n"] = True
        write_json(path, doc)
        with pytest.raises(ValueError, match=r"calibration file .*c\.json: n must be an integer >= 1, got True"):
            load_calibration(path)

    @pytest.mark.parametrize("n", [59, 10**4])
    def test_every_reader_bounds_the_qubit_count(self, tmp_path, n):
        # No state of more than 58 qubits fits a numpy array. At n = 10^4 the
        # readers once failed on Python's 4300-digit limit for printing 2^n.
        cal_path = tmp_path / "c.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(2)), cal_path)
        for reader, kind, doc in (
            (load_state, "state", {"n": 1, "amps": [[1, 0], [0, 0]]}),
            (load_dataset, "dataset", dataset_to_dict(small_dataset())),
            (load_calibration, "calibration", json.loads(cal_path.read_text())),
        ):
            path = write_json(tmp_path / "f.json", {**doc, "n": n})
            with pytest.raises(ValueError, match=rf"{kind} file .*f\.json: n must be at most 58: "):
                reader(path)

    def test_the_qubit_bound_admits_58(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"n": 58, "amps": [[1, 0], [0, 0]]})
        with pytest.raises(ValueError, match=r"s\.json: expected 288230376151711744 amplitudes"):
            load_state(path)

    def test_huge_qubit_count_fails_cleanly_under_a_memory_limit(self):
        # The settings list of 3n circuits once came before the record count:
        # at n = 10^7 under 1 GiB of address space that was a MemoryError.
        proc = run_child(HUGE_N_CHILD)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("n must be at most 58: ")

    @pytest.mark.parametrize("kind, doc, field", [
        ("calibration", {"n": 29, "M1": _encode_array(np.eye(2)), "Mn": empty_payload([1 << 40])}, "Mn"),
        ("calibration", {"n": 29, "M1": _encode_array(np.eye(2)), "Mn": empty_payload([1 << 40], None)},
         "Mn"),
        ("state", {"n": 40, "amps": empty_payload([1 << 40, 2])}, "amps"),
        ("dataset", empty_dataset(40), "records[0].counts"),
        ("dataset", empty_dataset(58), "records[0].counts"),
    ], ids=["calibration-zlib", "calibration-raw", "state", "dataset-40", "dataset-58"])
    def test_a_huge_shape_with_no_data_fails_cleanly_under_a_memory_limit(self, tmp_path, kind, doc, field):
        # Each reader once allocated what the shape declares before it read
        # the data: 8 TiB to 1.9 PiB, a MemoryError under 1 GiB; at n = 58 the
        # dataset table was numpy's "array is too big".
        path = write_json(tmp_path / "f.json", doc)
        proc = run_child(LIMITED_READER_CHILD, kind, str(path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(f"{kind} file {path}: {field}: ")

    @pytest.mark.parametrize("later_shape, message", [
        ([1 << 21], r"records\[1\]\.counts: data holds 0 bytes, shape \[2097152\] needs 16777216"),
        ([0], r"record \(x, 1\) has length 0, expected 2097152"),
    ], ids=["full-shape", "no-entries"])
    def test_records_that_cannot_fill_the_table_fail_before_it_is_allocated(self, tmp_path, later_shape,
                                                                            message):
        # Records 1-59 are empty streams. The table is 960 MiB, so the reader
        # once failed under 1 GiB with a MemoryError after the first record.
        empty = base64.b64encode(zlib.compress(b"")).decode()
        path, out = read_n20_file(tmp_path, lambda counts: {**counts, "shape": later_shape, "data": empty})
        assert re.fullmatch(rf"dataset file {re.escape(str(path))}: {message}\n", out)

    @pytest.mark.parametrize("filler, message", [
        ([0.0], r"record \(x, 1\) has length 1, expected 2097152"),
        ([], r"record \(x, 1\) has length 0, expected 2097152"),
        (None, r"records\[1\]\.counts must be a payload object or a list of numbers"),
        ("x", r"records\[1\]\.counts must be a payload object or a list of numbers"),
    ], ids=["short-list", "empty-list", "null", "string"])
    def test_records_that_are_not_payloads_fail_before_the_table_is_allocated(self, tmp_path, filler,
                                                                              message):
        # Records 1-59 are no payload object: the reader once allocated the
        # 960 MiB table before it decoded them.
        path, out = read_n20_file(tmp_path, lambda counts: filler)
        assert re.fullmatch(rf"dataset file {re.escape(str(path))}: {message}\n", out)

    def test_a_valid_load_peaks_near_its_table(self, tmp_path):
        # The check of every record before the table is allocated decodes one
        # record's bytes at a time; it adds no copy of the table.
        state = StateVector(12, haar_state(12, np.random.default_rng(1)))
        data = generate_dataset(state, UnitarySpec.qft(), 8192, seed=1)
        path = tmp_path / "d.json"
        save_dataset(data, path)
        assert peak_traced_bytes(lambda: load_dataset(path)) < 1.4 * data.counts.nbytes

    @pytest.mark.parametrize("change, message", [
        ({"dtype": "<f4"}, "dtype must be '<f8'"),
        ({"data": "not base64!"}, "data is not valid base64"),
        ({"shape": [-4]}, "shape must be a list of integers >= 0"),
        ({"shape": [3]}, "data holds 32 bytes, shape \\[3\\] needs 24"),
        ({"encoding": "gzip"}, "encoding must be 'zlib' or absent, got 'gzip'"),
        ({"encoding": 5}, "encoding must be 'zlib' or absent, got 5"),
        ({"data": base64.b64encode(b"not a zlib stream").decode()}, "data is not a valid zlib stream"),
        ({"data": base64.b64encode(zlib.compress(bytes(40))).decode()}, "data holds 40 bytes, shape .* needs 32"),
        ({"data": base64.b64encode(zlib.compress(bytes(32)) + b"junk").decode()},
         "data is not a valid zlib stream \\(4 bytes follow the end of the stream\\)"),
        ({"data": base64.b64encode(zlib.compress(bytes(32))[:-2]).decode()},
         "data is not a valid zlib stream \\(the stream ends early\\)"),
    ])
    def test_bad_payloads_name_the_file_and_field(self, tmp_path, change, message):
        data_path, cal_path = tmp_path / "d.json", tmp_path / "c.json"
        doc = dataset_to_dict(small_dataset())
        doc["records"][2]["counts"].update(change)
        write_json(data_path, doc)
        with pytest.raises(ValueError, match=rf"d\.json: records\[2\]\.counts: {message}"):
            load_dataset(data_path)
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(2)), cal_path)
        doc = json.loads(cal_path.read_text())
        doc["Mn"].update(change)
        write_json(cal_path, doc)
        with pytest.raises(ValueError, match=rf"c\.json: Mn: {message}"):
            load_calibration(cal_path)

    def test_dataset_checks_the_declared_size_before_allocating(self, tmp_path):
        doc = dataset_to_dict(small_dataset())
        doc["records"][2]["counts"]["shape"] = [1 << 34]
        path = write_json(tmp_path / "d.json", doc)
        with pytest.raises(ValueError, match=r"d\.json: records\[2\]\.counts: shape \[17179869184\] "
                                             r"declares 17179869184 entries, expected 4"):
            load_dataset(path)

    @pytest.mark.parametrize("key, shape, message", [
        ("Mn", [1 << 34], r"Mn: shape \[17179869184\] declares 17179869184 entries, expected 16"),
        ("M1", [1 << 20, 1 << 20], r"M1: shape \[1048576, 1048576\] declares 1099511627776 entries, expected 4"),
    ])
    def test_calibration_checks_the_declared_size_before_allocating(self, tmp_path, key, shape, message):
        path = tmp_path / "c.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(4)), path)
        doc = json.loads(path.read_text())
        doc[key]["shape"] = shape
        write_json(path, doc)
        with pytest.raises(ValueError, match=rf"c\.json: {message}"):
            load_calibration(path)

    def test_state_checks_the_declared_size_before_allocating(self, tmp_path):
        doc = {"n": 2, "amps": dict(raw_payload(np.eye(4, 2)), shape=[1 << 33, 2])}
        path = write_json(tmp_path / "s.json", doc)
        with pytest.raises(ValueError, match=r"s\.json: amps: shape \[8589934592, 2\] "
                                             r"declares 17179869184 entries, expected 8"):
            load_state(path)

    def test_length_and_finiteness_checks_run_after_decoding(self, tmp_path):
        path = tmp_path / "d.json"
        doc = dataset_to_dict(small_dataset(mitigated=True))
        doc["records"][0]["counts"] = payload([np.inf, 0, 0, 10.0])
        write_json(path, doc)
        with pytest.raises(ValueError, match="counts must be finite"):
            load_dataset(path)
        doc["records"][0]["counts"] = payload([0, 10.0])
        write_json(path, doc)
        with pytest.raises(ValueError, match="has length 2, expected 4"):
            load_dataset(path)
        # The right number of entries in the wrong shape is no record either.
        doc["records"][0]["counts"] = payload([[0, 10.0], [0, 0]])
        write_json(path, doc)
        with pytest.raises(ValueError, match=r"d\.json: record \(x, 0\) has shape \(2, 2\), expected \(4,\)$"):
            load_dataset(path)
        cal_path = tmp_path / "c.json"
        save_calibration(CalibrationMatrix(np.eye(2), np.eye(4)), cal_path)
        doc = json.loads(cal_path.read_text())
        for key, values, message in (("Mn", [1.0] * 15, "Mn has 15 entries, expected 16"),
                                     ("M1", [1.0, np.nan, 0.0, 1.0], "M1 holds non-finite")):
            write_json(cal_path, dict(doc, **{key: payload(values)}))
            with pytest.raises(ValueError, match=message):
                load_calibration(cal_path)


BAD_UNITARIES = [
    ({}, "kind must be one of .*, got None"),
    ({"kind": "separable", "angles": 5}, "separable angles must be .* triples of finite numbers, got 5"),
    ({"kind": "aqft", "m": True}, "aqft requires an integer degree m >= 1, got True"),
    ({"kind": "aqft", "m": 2.5}, "aqft requires an integer degree m >= 1, got 2.5"),
]


class TestMetadataChecks:
    @pytest.mark.parametrize("doc, message", BAD_UNITARIES)
    def test_unitary_from_dict_names_the_field(self, doc, message):
        with pytest.raises(ValueError, match=f"^unitary: {message}"):
            UnitarySpec.from_dict(doc)

    @pytest.mark.parametrize("doc, message", BAD_UNITARIES)
    def test_load_dataset_prefixes_the_file(self, tmp_path, doc, message):
        data = dataset_to_dict(small_dataset())
        data["unitary"] = doc
        path = write_json(tmp_path / "d.json", data)
        with pytest.raises(ValueError, match=rf"^dataset file .*d\.json: unitary: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("field, value, message", [
        ("seed", "x", "seed must be an integer or null, got 'x'"),
        ("seed", True, "seed must be an integer or null, got True"),
        ("seed", 1.0, "seed must be an integer or null, got 1.0"),
        ("noise_model_id", 5, "noise_model_id must be a string or null, got 5"),
        ("noise_model_id", ["ro"], "noise_model_id must be a string or null, got \\['ro'\\]"),
    ])
    def test_dataset_rejects_bad_metadata(self, tmp_path, field, value, message):
        doc = dataset_to_dict(small_dataset())
        doc[field] = value
        path = write_json(tmp_path / "d.json", doc)
        with pytest.raises(ValueError, match=rf"^dataset file .*d\.json: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("seed, noise_model_id", [(None, None), (7, "readout-0.025")])
    def test_dataset_keeps_good_metadata(self, tmp_path, seed, noise_model_id):
        doc = dataset_to_dict(small_dataset())
        doc.update(seed=seed, noise_model_id=noise_model_id)
        loaded = load_dataset(write_json(tmp_path / "d.json", doc))
        assert (loaded.seed, loaded.noise_model_id) == (seed, noise_model_id)


class TestDatasetOwnsItsChecks:
    """A dataset built directly refuses what the reader refuses, with the same
    message; the reader adds only the file's name."""

    @pytest.mark.parametrize("field, value, message", [
        ("mitigated", "no", "mitigated must be true or false, got 'no'"),
        ("seed", "x", "seed must be an integer or null, got 'x'"),
        ("shots_per_circuit", 10.0, "shots must be an integer >= 0, got 10.0"),
        ("n", True, "n must be an integer >= 1, got True"),
        ("noise_model_id", 5, "noise_model_id must be a string or null, got 5"),
        ("unitary", {"kind": "qft"}, "unitary must be a UnitarySpec, got dict"),
    ])
    def test_built_dataset_rejects_bad_fields(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            replace(small_dataset(), **{field: value})

    @pytest.mark.parametrize("field", ["n", "shots_per_circuit", "seed"])
    def test_numpy_integers_round_trip(self, tmp_path, field):
        data = generate_dataset(StateVector(2, [1, 0, 0, 0]), UnitarySpec.qft(), 10, seed=1)
        built = replace(data, **{field: np.int64(getattr(data, field))})
        assert all(type(v) is int for v in (built.n, built.shots_per_circuit, built.seed))
        assert all(type(r.qubit) is int for r in built.records)
        path = tmp_path / "d.json"
        assert_datasets_equal(assert_round_trips(save_dataset, load_dataset, built, path), built)


def _not_json(path):
    path.write_text('{"n": 2,')
    return path


def _aqft_degree_above_n(path):
    doc = dataset_to_dict(generate_dataset(StateVector(2, [1, 0, 0, 0]), UnitarySpec.qft(), 10, seed=1))
    doc["unitary"] = {"kind": "aqft", "m": 3}
    return write_json(path, doc)


def _five_records(path):
    doc = dataset_to_dict(generate_dataset(StateVector(2, [1, 0, 0, 0]), UnitarySpec.qft(), 10, seed=1))
    del doc["records"][-1]
    return write_json(path, doc)


BAD_FILES = {
    "not JSON": (_not_json, "Expecting"),
    "aqft m=3 at n=2": (_aqft_degree_above_n, "aqft degree m=3 exceeds qubit count n=2"),
    "5 records at n=2": (_five_records, "dataset must hold 6 records in canonical"),
}


class TestEveryReaderNamesTheFile:
    @pytest.mark.parametrize("case", BAD_FILES)
    def test_readers(self, tmp_path, case):
        make, message = BAD_FILES[case]
        path = make(tmp_path / "bad.json")
        for reader, kind in ((load_state, "state"), (load_dataset, "dataset"),
                             (load_calibration, "calibration")):
            with pytest.raises(ValueError, match=rf"^{kind} file {re.escape(str(path))}: "):
                reader(path)
        with pytest.raises(ValueError, match=rf"^dataset file {re.escape(str(path))}: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("case", BAD_FILES)
    def test_cli_data_and_config(self, tmp_path, capsys, case):
        make, message = BAD_FILES[case]
        path = make(tmp_path / "bad.json")
        out = str(tmp_path / "e.json")
        assert main(["estimate", "--data", str(path), "--out", out]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"ValueError: dataset file {path}: {message}")
        # A dataset document is a JSON object, so only a file that is not JSON
        # fails as a config file.
        config = path if case == "not JSON" else write_json(tmp_path / "list.json", [1])
        assert main(["estimate", "--config", str(config), "--data", str(path), "--out", out]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error.startswith(f"ValueError: config file {config}: ")


#: By kind: write a sample file, save a value, load a file.
FUZZ_FILES = {
    "state": (
        lambda path: save_state(StateVector(1, [0.6, 0.8j]), path, provenance={"kind": "named"}),
        save_state, load_state,
    ),
    "dataset": (lambda path: save_dataset(small_dataset(), path), save_dataset, load_dataset),
    "calibration": (
        lambda path: save_calibration(
            build_calibration(1, ReadoutNoiseModel.symmetric(2, 0.1), 16, seed=2), path
        ),
        save_calibration, load_calibration,
    ),
}

DROP = object()


def key_paths(doc, prefix=()) -> list:
    """The path of every value inside a JSON document, list entries included."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    paths = []
    for key, value in items:
        paths += [prefix + (key,), *key_paths(value, prefix + (key,))]
    return paths


def mutated(doc, where, value):
    """A copy of ``doc`` with the value at path ``where`` replaced, or dropped for DROP."""
    doc = copy.deepcopy(doc)
    *parents, last = where
    target = doc
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return doc


class TestReaderContract:
    """A mutated file either loads into a value that saves and reloads byte
    for byte, or raises a ValueError that names the file."""

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(sorted(FUZZ_FILES)), data=st.data())
    def test_mutated_file_loads_stably_or_names_itself(self, tmp_path_factory, kind, data):
        write, save, load = FUZZ_FILES[kind]
        tmp = tmp_path_factory.mktemp("reader")
        path = tmp / f"{kind}.json"
        write(path)
        doc = json.loads(path.read_text())
        where = data.draw(st.sampled_from(key_paths(doc)), label="where")
        value = data.draw(st.just(DROP) | JSON_VALUES, label="value")
        write_json(path, mutated(doc, where, value))
        try:
            loaded = load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{kind} file {path}: ")
            return
        first, second = tmp / "first.json", tmp / "second.json"
        save(loaded, first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()


def assert_datasets_equal(a, b):
    assert (a.n, a.unitary, a.shots_per_circuit, a.mitigated, a.seed, a.noise_model_id) == (
        b.n, b.unitary, b.shots_per_circuit, b.mitigated, b.seed, b.noise_model_id)
    assert [(r.axis, r.qubit) for r in a.records] == [(r.axis, r.qubit) for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert np.array_equal(ra.counts, rb.counts)
        assert np.array_equal(np.signbit(ra.counts), np.signbit(rb.counts))


def assert_round_trips(save, load, obj, path):
    """Load returns what was saved; saving the loaded value repeats the bytes."""
    save(obj, path)
    first = path.read_bytes()
    loaded = load(path)
    save(loaded, path)
    assert path.read_bytes() == first
    return loaded


def with_specials(dataset):
    """A copy of a mitigated dataset with a negative entry, -0.0 and
    subnormals planted in each row, what they replace moved onto the
    row's last entry so that its sum holds."""
    counts = dataset.counts.copy()
    for row in counts:
        for k, value in enumerate((-2.5, -0.0, 5e-324, -5e-324)[: row.size - 1]):
            row[-1] += row[k] - value
            row[k] = value
    return replace(dataset, counts=counts)


def with_planted(cal, values):
    """A copy of a calibration with ``values`` planted in the first entries
    of both matrices."""
    mats = [cal.intermediate.copy(), cal.register.copy()]
    for mat in mats:
        mat.flat[: len(values)] = values
    return CalibrationMatrix(*mats, cal.provenance)


KINDS = st.sampled_from([UnitarySpec.qft(), UnitarySpec.hadamard(), UnitarySpec.aqft(1)])


class TestRoundTrips:
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), unitary=KINDS,
           shots=st.sampled_from([0, 1, 1000]))
    @settings(max_examples=25, deadline=None)
    def test_raw_and_exact_datasets(self, tmp_path_factory, n, seed, unitary, shots):
        state = StateVector(n, haar_state(n, np.random.default_rng(seed)))
        noise = ReadoutNoiseModel.symmetric(n + 1, 0.03, label="sym")
        dataset = generate_dataset(state, unitary, shots, noise=noise, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "data.json"
        assert_datasets_equal(assert_round_trips(save_dataset, load_dataset, dataset, path), dataset)

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_mitigated_datasets_with_negative_entries(self, tmp_path_factory, n, seed):
        state = StateVector(n, haar_state(n, np.random.default_rng(seed)))
        noise = ReadoutNoiseModel.symmetric(n + 1, 0.05)
        raw = generate_dataset(state, UnitarySpec.qft(), 500, noise=noise, seed=seed)
        cal = build_calibration(n, noise, shots=200, seed=seed)
        dataset = with_specials(mitigate_dataset(raw, cal))
        path = tmp_path_factory.mktemp("rt") / "mitigated.json"
        assert_datasets_equal(assert_round_trips(save_dataset, load_dataset, dataset, path), dataset)

    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), shots=st.sampled_from([0, 1, 300]),
           specials=st.lists(st.sampled_from(SPECIALS), min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_calibrations(self, tmp_path_factory, n, seed, shots, specials):
        model = ReadoutNoiseModel.symmetric(n + 1, 0.04, label="sym")
        cal = build_calibration(n, model, shots=shots, seed=seed)
        path = tmp_path_factory.mktemp("rt") / "cal.json"
        for _ in range(2):
            loaded = assert_round_trips(save_calibration, load_calibration, cal, path)
            for a, b in ((loaded.intermediate, cal.intermediate), (loaded.register, cal.register)):
                assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))
            assert loaded.provenance == cal.provenance
            cal = with_planted(cal, specials)  # the second pass has extreme entries

    def test_state_file_bytes_repeat(self, tmp_path):
        amps = haar_state(3, np.random.default_rng(4))
        amps[:2] = [complex(-0.0, -0.0), complex(5e-324, -0.0)]
        state = StateVector(3, amps)
        loaded = assert_round_trips(save_state, load_state, state, tmp_path / "s.json")
        pairs = lambda s: s.amps.view(np.float64)
        assert np.array_equal(pairs(loaded), pairs(state))
        assert np.array_equal(np.signbit(pairs(loaded)), np.signbit(pairs(state)))


def raw_payload(values):
    """Array payload in the uncompressed form, without ``encoding``."""
    arr = np.asarray(values, dtype="<f8")
    return {"dtype": "<f8", "shape": list(arr.shape), "data": base64.b64encode(arr).decode()}


class TestOlderFiles:
    """Files written before payloads were compressed hold raw base64 bytes."""

    def test_dataset(self, tmp_path):
        state = StateVector(2, haar_state(2, np.random.default_rng(5)))
        noise = ReadoutNoiseModel.symmetric(3, 0.05)
        raw = generate_dataset(state, UnitarySpec.qft(), 4096, noise=noise, seed=5)
        mitigated = with_specials(mitigate_dataset(raw, build_calibration(2, noise, shots=500, seed=5)))
        for dataset in (raw, mitigated):
            doc = dataset_to_dict(dataset)
            for entry, rec in zip(doc["records"], dataset.records):
                entry["counts"] = raw_payload(rec.counts)
            assert_datasets_equal(load_dataset(write_json(tmp_path / "old.json", doc)), dataset)

    def test_calibration(self, tmp_path):
        cal = build_calibration(3, ReadoutNoiseModel.symmetric(4, 0.05), shots=700, seed=3)
        cal = with_planted(cal, [-0.0, 5e-324, -5e-324])
        doc = {"n": 3, "M1": raw_payload(cal.intermediate), "Mn": raw_payload(cal.register),
               "provenance": cal.provenance}
        loaded = load_calibration(write_json(tmp_path / "old.json", doc))
        for a, b in ((loaded.intermediate, cal.intermediate), (loaded.register, cal.register)):
            assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))

    def test_state(self, tmp_path):
        state = StateVector(2, haar_state(2, np.random.default_rng(6)))
        doc = {"n": 2, "amps": raw_payload(state.amps.view(np.float64).reshape(-1, 2))}
        assert np.array_equal(load_state(write_json(tmp_path / "old.json", doc)).amps, state.amps)


class TestCalibrationSize:
    """A sampled calibration matrix is mostly zeros; its file and its load
    must not cost a multiple of the 8 * 4^n bytes the matrix holds."""

    N = 8

    @pytest.fixture(scope="class")
    def cal_path(self, tmp_path_factory):
        cal = build_calibration(self.N, ReadoutNoiseModel.symmetric(self.N + 1, 0.025), 20_000, seed=8)
        path = tmp_path_factory.mktemp("size") / "cal.json"
        save_calibration(cal, path)
        return path

    def test_file_is_a_fifth_of_the_matrix(self, cal_path):
        assert cal_path.stat().st_size < 0.2 * 8 * 4**self.N

    def test_load_peak_memory(self, cal_path):
        peak = peak_traced_bytes(lambda: load_calibration(cal_path))
        assert peak < 2.5 * 8 * 4**self.N


class TestTenQubitCalibrationMemory:
    """At n=10 the reader inflates Mn straight into its array. At n=11
    mitigating a dataset raises the process peak by little more than the
    solve's own copy of Mn."""

    N = 10

    @pytest.fixture(scope="class")
    def cal_path(self, tmp_path_factory):
        cal = build_calibration(self.N, ReadoutNoiseModel.symmetric(self.N + 1, 0.025), 20_000, seed=10)
        path = tmp_path_factory.mktemp("size10") / "cal.json"
        save_calibration(cal, path)
        return path

    def test_load_peaks_below_1_4_matrices(self, cal_path):
        assert peak_traced_bytes(lambda: load_calibration(cal_path)) < 1.4 * 8 * 4**self.N

    def test_mitigation_raises_the_peak_by_less_than_1_5_matrices(self):
        n = 11
        proc = run_child(MITIGATION_PEAK_CHILD, str(n))
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 1.5 * 8 * 4**n


class TestListFormFiles:
    """Files written before the array payload hold plain JSON lists."""

    def test_dataset(self, tmp_path):
        state = StateVector(2, haar_state(2, np.random.default_rng(9)))
        noise = ReadoutNoiseModel.symmetric(3, 0.05)
        raw = generate_dataset(state, UnitarySpec.qft(), 4096, noise=noise, seed=9)
        mitigated = mitigate_dataset(raw, build_calibration(2, noise, shots=500, seed=9))
        for dataset in (raw, mitigated):
            doc = dataset_to_dict(dataset)
            for entry, rec in zip(doc["records"], dataset.records):
                entry["counts"] = [float(c) for c in rec.counts]
            legacy, new = tmp_path / "legacy.json", tmp_path / "new.json"
            legacy.write_text(json.dumps(doc, indent=2) + "\n")
            save_dataset(dataset, new)
            assert_datasets_equal(load_dataset(legacy), load_dataset(new))
            assert_datasets_equal(load_dataset(legacy), dataset)

    def test_calibration(self, tmp_path):
        cal = build_calibration(3, ReadoutNoiseModel.symmetric(4, 0.05), shots=700, seed=3)
        doc = {
            "n": 3,
            "M1": [float(x) for x in cal.intermediate.ravel()],
            "Mn": [float(x) for x in cal.register.ravel()],
            "provenance": cal.provenance,
        }
        legacy, new = tmp_path / "legacy.json", tmp_path / "new.json"
        legacy.write_text(json.dumps(doc, indent=2) + "\n")
        save_calibration(cal, new)
        a, b = load_calibration(legacy), load_calibration(new)
        assert np.array_equal(a.intermediate, b.intermediate)
        assert np.array_equal(a.register, b.register)
        assert np.array_equal(a.register, cal.register)
        assert a.provenance == b.provenance == cal.provenance


#: Estimate of the n=4 README chain below, written by the list-format code.
README_CHAIN_N4_ESTIMATE = [
    complex(-0.03859177864452465, 0.15974439871963503),
    complex(0.26887941397452464, 0.03716310683809701),
    complex(0.24140672804938962, 0.03998333569032535),
    complex(-0.1336795565500281, 0.10058141810313118),
    complex(-0.006779287452940495, -0.1834088332166932),
    complex(-0.015809600121974687, -0.3183644462823985),
    complex(0.08668014016681641, 0.10489884753657397),
    complex(0.026278994300397273, -0.12897429179583783),
    complex(0.245637426244946, -0.3223456294816177),
    complex(-0.3068661634638895, -0.25761423776092046),
    complex(0.32399885364709713, -0.002256927493598171),
    complex(0.04923186976012842, -0.23140966586724593),
    complex(0.21182982021348148, -0.24718563189877293),
    complex(-0.02778456964832628, -0.0005916500250076541),
    complex(-0.1212170300626964, 0.1487016868308493),
    complex(0.10351815459046701, -0.01794420155728244),
]


def test_readme_chain_estimate_is_pinned(tmp_path):
    f = {name: str(tmp_path / f"{name}.json") for name in ("state", "data", "cal", "mitigated", "estimate")}
    for argv in (
        ["prepare-state", "--kind", "arbitrary", "-n", "4", "--seed", "11", "--out", f["state"]],
        ["run-protocol", "--state", f["state"], "--unitary", "qft", "--shots", "100000",
         "--readout-error", "0.025", "--seed", "12", "--out", f["data"]],
        ["calibrate", "-n", "4", "--readout-error", "0.025", "--shots", "20000", "--seed", "13",
         "--out", f["cal"]],
        ["mitigate", "--data", f["data"], "--calibration", f["cal"], "--out", f["mitigated"]],
        ["estimate", "--data", f["mitigated"], "--reference", f["state"], "--seed", "14",
         "--out", f["estimate"], "--trace-out", str(tmp_path / "trace.csv")],
    ):
        assert main(argv) == 0
    assert np.array_equal(load_state(f["estimate"]).amps, README_CHAIN_N4_ESTIMATE)
