import numpy as np
import pytest

from relwalk import _io


def test_write_csv_matches_per_cell_format_number(tmp_path):
    columns = [
        np.array([0.1, -0.0, np.nan, np.inf, -np.inf, 1e-310]),
        [1, -7, 2**60 + 1, 0, 10**20, True],
        [np.float64(1.0 / 3.0), np.float32(0.1), np.int64(-3), np.float16(2.5),
         np.uint8(200), np.longdouble(2.0) / 3],
        np.arange(6, dtype=np.int32),
    ]
    path = tmp_path / "out.csv"
    _io.write_csv(path, ["a", "b", "c", "d"], columns)
    rows = ["a,b,c,d"] + [",".join(_io.format_number(c[i]) for c in columns)
                          for i in range(6)]
    assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


def test_write_csv_rejects_mismatched_shapes(tmp_path):
    with pytest.raises(ValueError):
        _io.write_csv(tmp_path / "a.csv", ["a"], [[1.0], [2.0]])
    with pytest.raises(ValueError):
        _io.write_csv(tmp_path / "b.csv", ["a", "b"], [[1.0], [2.0, 3.0]])
