"""Potential surgery: cut-and-paste collars, cylindrical ends and collar
flattening, each of which must keep the index."""

from collections import Counter

import numpy as np
import pytest

from diracflow import dirac1d, surgery
from diracflow.errors import CollarMismatch, InvalidInput
from diracflow.opcore import HermitianOperator
from diracflow.scenarios import chain_path, collar_pair
from diracflow.specflow import PotentialPath, endpoint_identity, tanh_path

GRID = dirac1d.GridSpec(8.0, 160)


def auto_grid(path):
    return dirac1d.GridSpec.auto(path, h_target=0.15, decay=1e-6)


# (path, window containing its support hull, grid) with indices 1, 2 and -2
CASES = [
    (tanh_path(), (-3.0, 3.0), GRID),
    (chain_path(1, 3, n_intervals=2), (-0.5, 6.5), auto_grid),
    (chain_path(7, 2, n_intervals=2), (-0.5, 6.5), None),
]


def index_of(path, grid):
    return dirac1d.path_index_report(path, grid, refine_check=False).index


@pytest.mark.parametrize("path, window, grid", CASES, ids=["tanh", "chain+2", "chain-2"])
def test_cylindrical_end_keeps_the_index(path, window, grid):
    expected = endpoint_identity(path).endpoint_rel_index
    out, report = surgery.cylindrical_end(path, window, ramp=1.0, grid=grid)
    assert report.passed
    assert report.index_before == report.index_after == expected != 0
    assert index_of(out, grid) == expected
    assert report.min_ramp_gap > 0.1
    # product form: constant beyond the ramp, equal to the window's end values
    assert np.array_equal(out.sample(window[1] + 1.5), path.sample(window[1]))
    assert np.array_equal(out.sample(window[0] - 1.5), path.sample(window[0]))


def test_cylindrical_end_window_must_contain_the_support():
    with pytest.raises(InvalidInput, match="window must contain"):
        surgery.cylindrical_end(tanh_path(), (-1.0, 1.0), grid=GRID)


@pytest.mark.parametrize("path, window, grid", CASES, ids=["tanh", "chain+2", "chain-2"])
def test_collar_flatten_keeps_the_index(path, window, grid):
    expected = endpoint_identity(path).endpoint_rel_index
    # a reference of a different signature than either boundary value
    signs = np.where(np.arange(path.k) % 2 == 0, 1.5, -2.0)
    reference = HermitianOperator(np.diag(signs))
    out, report = surgery.collar_flatten(path, reference, grid=grid)
    assert report.passed
    assert report.index_before == report.index_after == expected
    a, b = path.hull()
    assert np.array_equal(out.sample(0.5 * (a + b)), reference.entries)
    assert np.array_equal(out.sample(b + 0.5), path.sample(b + 0.5))


@pytest.mark.parametrize("reference", [np.zeros((1, 1)), np.array([[1e-12]])])
def test_collar_flatten_rejects_a_singular_reference(reference):
    with pytest.raises(InvalidInput, match="must be invertible"):
        surgery.collar_flatten(tanh_path(), reference, grid=GRID)


def test_cut_paste_rejects_a_mismatched_collar():
    m1, _, t_cut = collar_pair(0, 2)
    _, other, _ = collar_pair(1, 2)      # a different shared right flank
    with pytest.raises(CollarMismatch) as info:
        surgery.cut_paste(m1, other, t_cut)
    assert info.value.max_deviation > 1e-12


def test_cut_paste_swaps_flanks_and_keeps_the_index_sum():
    m1, m2, t_cut = collar_pair(3, 2)
    m3, m4 = surgery.cut_paste(m1, m2, t_cut)
    assert np.array_equal(m3.sample(-1.0), m1.sample(-1.0))
    assert np.array_equal(m4.sample(-1.0), m2.sample(-1.0))
    rep = surgery.verify_additivity(m1, m2, t_cut, grid=dirac1d.GridSpec(12.0, 192))
    assert rep.passed and rep.sf_agrees
    assert rep.ind_1 + rep.ind_2 == rep.ind_3 + rep.ind_4


def test_additivity_takes_one_grid_pass_per_path(monkeypatch):
    passes = Counter()
    real = PotentialPath._grid_pass

    def counted(path, tol):
        passes[path.name] += 1
        return real(path, tol)

    monkeypatch.setattr(PotentialPath, "_grid_pass", counted)
    m1, m2, t_cut = collar_pair(3, 2)
    assert surgery.verify_additivity(m1, m2, t_cut, grid=dirac1d.GridSpec(12.0, 192)).passed
    # m1, m2 and the two cut-paste products, one pass each
    assert len(passes) == 4 and set(passes.values()) == {1}
