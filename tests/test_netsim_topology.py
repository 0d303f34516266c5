"""Unit tests for the topology object model (repro.netsim.topology)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.netsim.topology import Binder, Bras, Dslam, Topology


def make_valid_topology():
    """2 BRAS x 2 DSLAMs x 3 lines each."""
    dslams = [
        Dslam(dslam_id=0, bras_id=0, geo=0, line_ids=np.array([0, 1, 2])),
        Dslam(dslam_id=1, bras_id=1, geo=1, line_ids=np.array([3, 4, 5])),
    ]
    brases = [
        Bras(bras_id=0, dslam_ids=np.array([0])),
        Bras(bras_id=1, dslam_ids=np.array([1])),
    ]
    line_dslam = np.array([0, 0, 0, 1, 1, 1])
    line_bras = np.array([0, 0, 0, 1, 1, 1])
    return Topology(brases=brases, dslams=dslams,
                    line_dslam=line_dslam, line_bras=line_bras)


class TestTopology:
    def test_valid_topology_passes(self):
        make_valid_topology().validate()

    def test_counts(self):
        topo = make_valid_topology()
        assert topo.n_lines == 6
        assert topo.n_dslams == 2
        assert topo.n_brases == 2

    def test_lines_of_dslam(self):
        topo = make_valid_topology()
        assert list(topo.lines_of_dslam(1)) == [3, 4, 5]

    def test_lines_of_bras(self):
        topo = make_valid_topology()
        assert list(topo.lines_of_bras(0)) == [0, 1, 2]

    def test_detects_orphan_line(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([3, 4]))  # line 5 orphaned
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_double_homed_line(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([2, 3, 4, 5]))  # line 2 twice
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_bad_bras_reference(self):
        topo = make_valid_topology()
        topo.dslams[0] = Dslam(dslam_id=0, bras_id=7, geo=0,
                               line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_line_map_mismatch(self):
        topo = make_valid_topology()
        topo.line_dslam = np.array([1, 0, 0, 1, 1, 1])  # line 0 misfiled
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_bras_membership_mismatch(self):
        topo = make_valid_topology()
        topo.brases[0] = Bras(bras_id=0, dslam_ids=np.array([0, 1]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_empty_dslam(self):
        topo = make_valid_topology()
        topo.dslams.append(
            Dslam(dslam_id=2, bras_id=1, geo=0, line_ids=np.empty(0, dtype=int))
        )
        with pytest.raises(ValueError, match="serves no lines"):
            topo.validate()

    def test_detects_out_of_range_bras_in_bras_list(self):
        topo = make_valid_topology()
        topo.brases[1] = Bras(bras_id=1, dslam_ids=np.array([1, 9]))
        with pytest.raises(ValueError, match="out-of-range DSLAM"):
            topo.validate()

    def test_detects_out_of_range_line_ids(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([3, 4, 99]))
        with pytest.raises(ValueError, match="out-of-range lines"):
            topo.validate()


def with_binders(topo):
    """Attach one binder per DSLAM covering all of its lines."""
    topo.binders = [
        Binder(binder_id=i, dslam_id=i, line_ids=d.line_ids.copy())
        for i, d in enumerate(topo.dslams)
    ]
    topo.line_binder = topo.line_dslam.copy()
    return topo


class TestBinders:
    def test_valid_binder_layer_passes(self):
        topo = with_binders(make_valid_topology())
        topo.validate()
        assert topo.has_binders
        assert topo.n_binders == 2
        assert topo.binder_of_line(4) == 1
        assert list(topo.lines_of_binder(0)) == [0, 1, 2]
        assert topo.dslam_of_binder(1) == 1

    def test_no_binders_is_still_valid(self):
        topo = make_valid_topology()
        topo.validate()
        assert not topo.has_binders
        assert topo.binder_of_line(0) == -1

    def test_line_binder_without_binders_rejected(self):
        topo = make_valid_topology()
        topo.line_binder = topo.line_dslam.copy()
        with pytest.raises(ValueError, match="no binders defined"):
            topo.validate()

    def test_detects_uncovered_line(self):
        topo = with_binders(make_valid_topology())
        topo.binders[1] = Binder(binder_id=1, dslam_id=1,
                                 line_ids=np.array([3, 4]))  # line 5 loose
        with pytest.raises(ValueError, match="no binder"):
            topo.validate()

    def test_detects_cross_dslam_binder(self):
        topo = with_binders(make_valid_topology())
        topo.binders[0] = Binder(binder_id=0, dslam_id=1,
                                 line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_line_binder_mismatch(self):
        topo = with_binders(make_valid_topology())
        topo.line_binder = np.array([0, 1, 0, 1, 1, 1])  # line 1 misfiled
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_misnumbered_binder(self):
        topo = with_binders(make_valid_topology())
        topo.binders[0] = Binder(binder_id=5, dslam_id=0,
                                 line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="list position"):
            topo.validate()


@pytest.fixture(scope="module")
def plant():
    from repro.netsim.population import PopulationConfig, build_population

    return build_population(PopulationConfig(n_lines=10_000, seed=5)).topology


def _copy(topo):
    return Topology(
        brases=list(topo.brases), dslams=list(topo.dslams),
        line_dslam=topo.line_dslam.copy(), line_bras=topo.line_bras.copy(),
        binders=list(topo.binders), line_binder=topo.line_binder.copy(),
    )


def _set_lines(groups, index, line_ids):
    groups[index] = replace(groups[index], line_ids=np.asarray(line_ids))


def _double_homed(t):
    _set_lines(t.dslams, 5, np.append(t.dslams[5].line_ids, t.dslams[6].line_ids[0]))


def _orphan(t):
    _set_lines(t.dslams, 5, t.dslams[5].line_ids[:-1])


def _out_of_range(t):
    _set_lines(t.dslams, 5, np.append(t.dslams[5].line_ids, t.n_lines))


def _negative_line(t):
    _set_lines(t.dslams, 5, np.append(t.dslams[5].line_ids, -1))


def _line_dslam_mismatch(t):
    t.line_dslam[t.dslams[5].line_ids[0]] = 6


def _bad_bras_reference(t):
    t.dslams[5] = replace(t.dslams[5], bras_id=t.n_brases)


def _bras_membership_mismatch(t):
    t.brases[0] = replace(t.brases[0], dslam_ids=np.append(
        t.brases[0].dslam_ids, t.brases[1].dslam_ids[0]))


def _bras_out_of_range_dslam(t):
    t.brases[1] = replace(t.brases[1], dslam_ids=np.append(
        t.brases[1].dslam_ids, t.n_dslams))


def _empty_dslam(t):
    t.dslams.append(Dslam(dslam_id=t.n_dslams, bras_id=0, geo=0,
                          line_ids=np.empty(0, dtype=int)))


def _empty_binder(t):
    t.binders.append(Binder(binder_id=t.n_binders, dslam_id=0,
                            line_ids=np.empty(0, dtype=int)))


def _cross_dslam_binder(t):
    t.binders[7] = replace(t.binders[7], dslam_id=t.binders[7].dslam_id + 1)


def _binder_bad_dslam(t):
    t.binders[7] = replace(t.binders[7], dslam_id=t.n_dslams)


def _line_binder_mismatch(t):
    t.line_binder[t.binders[7].line_ids[0]] = 8


def _misnumbered_binder(t):
    t.binders[7] = replace(t.binders[7], binder_id=8)


def _binder_double(t):
    _set_lines(t.binders, 7, np.append(t.binders[7].line_ids, t.binders[8].line_ids[0]))


def _binder_orphan(t):
    _set_lines(t.binders, 7, t.binders[7].line_ids[:-1])


def _binder_out_of_range(t):
    _set_lines(t.binders, 7, np.append(t.binders[7].line_ids, t.n_lines))


def _short_line_binder(t):
    t.line_binder = t.line_binder[:-1]


def _short_line_bras(t):
    t.line_bras = t.line_bras[:-1]


class TestValidateAtScale:
    """One corruption per error branch of a built 10K-line plant."""

    def test_built_plant_is_valid(self, plant):
        assert plant.n_brases >= 2 and plant.n_binders > 8
        _copy(plant).validate()

    @pytest.mark.parametrize("corrupt, message", [
        (_double_homed, "served by two DSLAMs"),
        (_orphan, "not served by any DSLAM"),
        (_out_of_range, "DSLAM 5 references out-of-range lines"),
        (_negative_line, "DSLAM 5 references out-of-range lines"),
        (_line_dslam_mismatch, "line_dslam disagrees"),
        (_bad_bras_reference, "DSLAM 5 references bad BRAS"),
        (_bras_membership_mismatch, "BRAS membership disagrees"),
        (_bras_out_of_range_dslam, "BRAS 1 references out-of-range DSLAM"),
        (_empty_dslam, "serves no lines"),
        (_empty_binder, "holds no lines"),
        (_cross_dslam_binder, "not all served by the binder's DSLAM"),
        (_binder_bad_dslam, "binder 7 references bad DSLAM"),
        (_line_binder_mismatch, "line_binder disagrees"),
        (_misnumbered_binder, "list position"),
        (_binder_double, "two binders"),
        (_binder_orphan, "no binder"),
        (_binder_out_of_range, "binder 7 references out-of-range lines"),
        (_short_line_binder, "does not cover every line"),
        (_short_line_bras, "cover different lines"),
    ], ids=lambda value: value.__name__.strip("_") if callable(value) else None)
    def test_each_breakage_raises(self, plant, corrupt, message):
        topo = _copy(plant)
        corrupt(topo)
        with pytest.raises(ValueError, match=message):
            topo.validate()
