"""Cut-and-paste: the collar check, the flank swap, and the index sum it
must keep."""

from collections import Counter

import numpy as np
import pytest

from diracflow import dirac1d, surgery
from diracflow.errors import CollarMismatch, NotInvertible
from diracflow.scenarios import collar_pair
from diracflow.specflow import PotentialPath


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
    assert rep.passed
    assert rep.ind_1 + rep.ind_2 == rep.ind_3 + rep.ind_4


def test_additivity_takes_one_grid_pass_per_path(monkeypatch):
    passes = Counter()
    real = PotentialPath._grid_pass

    def counted(path):
        passes[path.name] += 1
        return real(path)

    monkeypatch.setattr(PotentialPath, "_grid_pass", counted)
    m1, m2, t_cut = collar_pair(3, 2)
    assert surgery.verify_additivity(m1, m2, t_cut, grid=dirac1d.GridSpec(12.0, 192)).passed
    # m1, m2 and the two cut-paste products, one pass each
    assert len(passes) == 4 and set(passes.values()) == {1}


def test_singular_endpoint_is_not_invertible():
    m1, m2, t_cut = collar_pair(3, 2)
    # m1 set to 0 before t = -1.5: its start point is singular
    singular = PotentialPath(
        m1.k, m1.grid, lambda ts: np.where((ts < -1.5)[:, None, None], 0.0, m1.samples(ts)),
        support=m1.support, name="collar-0-zeroed")
    with pytest.raises(NotInvertible, match="start point is not invertible"):
        surgery.verify_additivity(singular, m2, t_cut, grid=dirac1d.GridSpec(12.0, 192))

