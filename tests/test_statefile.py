import re
import tracemalloc

import numpy as np
import pytest

from wvtomo import RandomStream, StateFileError, random_mixed, read_state_file, write_state_file


def test_round_trip_bit_exact(tmp_path):
    rho = random_mixed(4, 3, RandomStream(5150, 0))
    path = tmp_path / "state.txt"
    write_state_file(path, rho.matrix)
    back = read_state_file(path)
    assert np.array_equal(back, rho.matrix)


def test_round_trip_negative_and_tiny_entries(tmp_path):
    m = np.array([[0.5, -1e-300 + 1e-17j], [-1e-300 - 1e-17j, 0.5]])
    path = tmp_path / "state.txt"
    write_state_file(path, m)
    assert np.array_equal(read_state_file(path), m)


def test_write_rejects_non_square(tmp_path):
    with pytest.raises(StateFileError):
        write_state_file(tmp_path / "bad.txt", np.zeros((2, 3)))


@pytest.mark.parametrize("matrix", [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, np.inf]]),
    np.array([[1.0, complex(0.0, -np.inf)], [0.0, 0.0]]),
    np.zeros((0, 0)),
])
def test_write_rejects_what_read_refuses(tmp_path, matrix):
    # a NaN or inf entry, or dimension 0, would be written but not read back
    path = tmp_path / "bad.txt"
    with pytest.raises(StateFileError):
        write_state_file(path, matrix)
    assert not path.exists()


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n\n1,0 0,0\n\n0,0 0,0\n\n")
    m = read_state_file(path)
    assert m[0, 0] == 1.0 + 0.0j


def test_read_missing_file():
    with pytest.raises(StateFileError, match="cannot read"):
        read_state_file("/nonexistent/state.txt")


def test_read_a_name_with_a_nul_byte():
    # open raises ValueError, not OSError, for such a name; the message shows it as its repr
    message = re.escape("cannot read 'a\\x00b': embedded null byte")
    with pytest.raises(StateFileError, match=message) as exc:
        read_state_file("a\x00b")
    assert "\x00" not in str(exc.value)


def test_read_empty_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("")
    with pytest.raises(StateFileError, match="line 1"):
        read_state_file(path)


def test_read_non_utf8_file(tmp_path):
    path = tmp_path / "state.txt"
    path.write_bytes(b"\xff2\n1,0 0,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="not UTF-8"):
        read_state_file(path)


def test_read_non_integer_dimension(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("two\n")
    with pytest.raises(StateFileError, match="line 1"):
        read_state_file(path)


def test_read_nonpositive_dimension(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("0\n")
    with pytest.raises(StateFileError, match="dimension must be positive"):
        read_state_file(path)


def test_read_too_few_rows(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0,0\n")
    with pytest.raises(StateFileError, match="expected 2 matrix rows"):
        read_state_file(path)


def test_read_too_many_rows(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0,0\n0,0 0,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="line 4"):
        read_state_file(path)


def test_read_wrong_entry_count_names_line(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0,0\n0,0\n")
    with pytest.raises(StateFileError, match="line 3"):
        read_state_file(path)


def test_read_malformed_entry_names_position(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0;0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="line 2.*entry 2"):
        read_state_file(path)


def test_read_non_numeric_entry(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 x,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="not numeric"):
        read_state_file(path)


def test_read_rejects_non_finite(tmp_path):
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 inf,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="not finite"):
        read_state_file(path)
    path.write_text("2\n1,0 nan,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="not finite"):
        read_state_file(path)


def test_read_counts_surplus_rows_past_blank_lines(tmp_path):
    # the blank line is skipped, so the surplus row is the one on line 5, not line 4
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0,0\n\n0,0 0,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="line 5: more than 2 matrix rows"):
        read_state_file(path)


def test_read_reports_a_bad_entry_before_surplus_rows(tmp_path):
    # rows are checked in file order: row 1's entry fails before the surplus row is reached
    path = tmp_path / "state.txt"
    path.write_text("2\n1,0 0\n0,0 0,0\n0,0 0,0\n")
    with pytest.raises(StateFileError, match="line 2: entry 2 is not 're,im'"):
        read_state_file(path)


def test_read_counts_rows_before_allocating(tmp_path):
    # a d x d complex array at d = 10**9 cannot be allocated: numpy would raise ValueError,
    # so only a row count made first reports the short file
    path = tmp_path / "state.txt"
    path.write_text("1000000000\n1,0\n")
    with pytest.raises(StateFileError, match="expected 1000000000 matrix rows after line 1"):
        read_state_file(path)


def test_read_checks_every_row_before_allocating(tmp_path):
    # d = 10**5 with 10**5 rows of one entry each passes the row count above, and a d x d
    # complex array would take 149 GiB: the short row on line 2 must be reported first.
    # Rehearsed once: the read peaked (tracemalloc) at 6.4 MB, its list of lines; a second
    # list of (line number, line) rows beside it would reach 16.0 MB and fail.
    path = tmp_path / "big.state"
    path.write_text("100000\n" + "1,0\n" * 100000)
    tracemalloc.start()
    try:
        with pytest.raises(StateFileError, match="line 2: expected 100000 entries, got 1"):
            read_state_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**23, f"read_state_file peaked at {peak} B"
