import pytest
from numpy.testing import assert_array_equal

from raysep import (
    ArrayGeometry,
    NoiseSpec,
    RaypathSet,
    synthesize_broadband,
)
from raysep.fileio import (
    config_hash,
    provenance_lines,
    read_snapshots_csv,
    write_snapshots_csv,
)


def sample_bins():
    geom = ArrayGeometry(num_sensors=4, spacing_m=0.5, sound_speed_mps=1500.0)
    paths = RaypathSet([5.0], [1.0 + 0.5j], [0.001])
    return synthesize_broadband(paths, (1400.0, 1600.0), 3, 7, NoiseSpec(6.0, 13), geom)


def test_snapshots_roundtrip_is_exact(tmp_path):
    bins = sample_bins()
    path = tmp_path / "snaps.csv"
    write_snapshots_csv(path, bins, provenance_lines("0.0.0", "abc", 13))
    back = read_snapshots_csv(path)
    assert len(back) == len(bins)
    for orig, came in zip(bins, back):
        assert_array_equal(came.data, orig.data)
        assert came.frequency_hz == orig.frequency_hz
        assert came.noise_power == orig.noise_power


def test_snapshots_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n")
    try:
        read_snapshots_csv(path)
    except ValueError as e:
        assert "header" in str(e)
    else:
        raise AssertionError("expected a header error")


@pytest.mark.parametrize(
    "field, line_start",
    [("L", "# M="), ("B", "# M="), ("noise_power", "# M="), ("frequency_hz", "# bin=1")],
    ids=["L", "B", "noise_power", "frequency_hz"],
)
def test_snapshots_line_without_a_field_names_the_field(tmp_path, field, line_start):
    path = tmp_path / "snaps.csv"
    write_snapshots_csv(path, sample_bins(), provenance_lines("0.0.0", "abc", 13))
    lines = [
        " ".join(kv for kv in line.split(" ") if not kv.startswith(f"{field}="))
        if line.startswith(line_start) else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"missing field '{field}' in line '{line_start}"):
        read_snapshots_csv(path)


def test_config_hash_is_order_insensitive():
    a = {"x": 1, "y": [1, 2]}
    b = {"y": [1, 2], "x": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({"x": 2, "y": [1, 2]})
