import math

import numpy as np
import pytest

from bsgd.config import parse_config
from bsgd.phantoms import make_phantom


def test_zero_blobs_zero_image():
    phantom = make_phantom((16, 16), 0, 1.0, seed=0)
    assert np.all(phantom.values == 0.0)


def test_deterministic_given_seed():
    a = make_phantom((32, 32), 4, 1.0, seed=5)
    b = make_phantom((32, 32), 4, 1.0, seed=5)
    assert np.array_equal(a.values, b.values)
    c = make_phantom((32, 32), 4, 1.0, seed=6)
    assert not np.array_equal(a.values, c.values)


def test_sparse_by_construction():
    phantom = make_phantom((64, 64), 5, 2.0, seed=3)
    fill = np.count_nonzero(phantom.values) / phantom.size
    assert 0.0 < fill < 0.2


def test_two_inclusions_on_unit_background_area_ratio():
    # two radius-0.2 disks at (0, +-0.75) on a unit background: painted
    # fraction matches the analytic disk/square area ratio within 2%
    rows = cols = 200
    phantom = make_phantom((rows, cols), 2, 3.0, seed=0,
                           background=1.0,
                           centers=[(0.0, 0.75), (0.0, -0.75)], radii=0.2)
    painted = np.count_nonzero(phantom.values != 1.0) / phantom.size
    analytic = 2.0 * math.pi * 0.2**2 / 4.0
    assert painted == pytest.approx(analytic, rel=0.02)
    assert set(np.unique(phantom.values)) == {1.0, 4.0}


def test_blob_clipped_at_bounds():
    phantom = make_phantom((40, 40), 1, 1.0, seed=0,
                           centers=[(0.99, 0.0)], radii=0.3)
    # the disk extends past x = 1; everything inside the frame is painted
    assert np.count_nonzero(phantom.values) > 0
    painted = np.count_nonzero(phantom.values) / phantom.size
    full_disk = math.pi * 0.3**2 / 4.0
    assert painted < full_disk


def test_overfull_phantom_rejected():
    with pytest.raises(ValueError, match="fills"):
        make_phantom((32, 32), 1, 1.0, seed=0,
                     centers=[(0.0, 0.0)], radii=0.9)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        parse_config("[phantom]\nkind = checkerboard\n")


def test_explicit_centers_need_radii():
    with pytest.raises(ValueError, match="radii"):
        make_phantom((8, 8), 1, 1.0, seed=0,
                     centers=[(0.0, 0.0)])
