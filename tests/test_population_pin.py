"""Pins of the plant build: golden digests and the scalar-loop oracle.

``_build_topology`` draws its DSLAM and binder fills in batches and cuts
them with running sums.  These tests hold it to the per-group loop it
replaced: the same arrays and memberships, and the generator left in the
same state.  The golden digests were recorded from that loop at 100K
lines.
"""

import hashlib

import numpy as np
import pytest

from repro.netsim.population import (
    PopulationConfig,
    _build_topology,
    build_population,
)
from repro.netsim.topology import Binder, Bras, Dslam, Topology


def _oracle_topology(n, config, rng):
    """The scalar build: one ``rng.normal`` + ``np.clip`` per group."""
    fills = []
    remaining = n
    while remaining > 0:
        fill = int(np.clip(rng.normal(config.mean_lines_per_dslam,
                                      config.mean_lines_per_dslam * 0.25), 8, None))
        fill = min(fill, remaining)
        fills.append(fill)
        remaining -= fill

    line_ids = rng.permutation(n)
    line_dslam = np.empty(n, dtype=int)
    dslams = []
    cursor = 0
    n_dslams = len(fills)
    for dslam_id, fill in enumerate(fills):
        members = np.sort(line_ids[cursor:cursor + fill])
        cursor += fill
        bras_id = dslam_id // config.dslams_per_bras
        geo = dslam_id % max(1, n_dslams // 4 or 1)
        dslams.append(Dslam(dslam_id=dslam_id, bras_id=bras_id, geo=geo,
                            line_ids=members))
        line_dslam[members] = dslam_id

    n_brases = (n_dslams + config.dslams_per_bras - 1) // config.dslams_per_bras
    brases = [
        Bras(bras_id=b, dslam_ids=np.array(
            [d.dslam_id for d in dslams if d.bras_id == b], dtype=int))
        for b in range(n_brases)
    ]
    bras_of_dslam = np.array([d.bras_id for d in dslams], dtype=int)

    binders = []
    line_binder = np.empty(n, dtype=int)
    mean_binder = max(2, config.mean_lines_per_binder)
    for dslam in dslams:
        members = dslam.line_ids
        cursor = 0
        while cursor < members.size:
            fill = int(np.clip(rng.normal(mean_binder, mean_binder * 0.25),
                               2, None))
            remaining = members.size - cursor
            if remaining - fill < 2:
                fill = remaining
            bundle = members[cursor:cursor + fill]
            cursor += fill
            line_binder[bundle] = len(binders)
            binders.append(Binder(binder_id=len(binders),
                                  dslam_id=dslam.dslam_id, line_ids=bundle))
    return Topology(brases=brases, dslams=dslams, line_dslam=line_dslam,
                    line_bras=bras_of_dslam[line_dslam], binders=binders,
                    line_binder=line_binder)


def _digest(parts):
    h = hashlib.sha256()
    for part in parts:
        a = np.ascontiguousarray(part)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _population_digests(pop):
    topo = pop.topology
    out = {name: _digest([getattr(topo, name)])
           for name in ("line_dslam", "line_bras", "line_binder")}
    out["dslams"] = _digest(
        p for d in topo.dslams
        for p in (np.array([d.dslam_id, d.bras_id, d.geo]), d.line_ids)
    )
    out["brases"] = _digest(
        p for b in topo.brases for p in (np.array([b.bras_id]), b.dslam_ids)
    )
    out["binders"] = _digest(
        p for b in topo.binders
        for p in (np.array([b.binder_id, b.dslam_id]), b.line_ids)
    )
    for name in ("loop_kft", "profile_idx", "ambient_noise_db",
                 "static_bridge_tap", "static_crosstalk"):
        out[name] = _digest([getattr(pop, name)])
    return out


#: The weekly_cycle benchmark's plant seed for ``--seed 1``.
WEEKLY_CYCLE_SEED = int(np.random.SeedSequence(1).generate_state(3)[0])

GOLDEN = {
    "default": {
        "line_dslam": "16b30aa85b1745d9f5eb07e1889dfd0290627ebe40b7fbc059d5958b79ca1ad5",
        "line_bras": "f69f66bb8d0022dd0be7fd3d129866b032c35b6c169e4f36970823bb24b08fcf",
        "line_binder": "785da724044d7f1c7bf7235cdd7c186e0ad8cebd50977a20507a6189326b175e",
        "dslams": "9aad33400d362033aabd05a8c3f73e3a6843a2df463d2d8dee107d6dc1628f19",
        "brases": "7ac38ce4243c6f160de9f79dd5bf97d364cf166761d2d1e405a5714b9f33e94f",
        "binders": "bd9f7f5adf532684371d974880c5b6a08218c17ba3c051e96c66d1d341274ecf",
        "loop_kft": "c6df89e6ef85f675d604db147e56feac2ca3c874fdcd13c0152e6058200e767a",
        "profile_idx": "16eb7a884614147007ba7504d3defb875acd57925f6839232f93e801cdd762e6",
        "ambient_noise_db": "b9d2a06b65b2b63224a3ec4fce328a43f7a4b896d94a6ee0a894046ed627e5aa",
        "static_bridge_tap": "f152c34c920dcdd2d1752c922e0bb8b84ad0f53e4493878406c642c57e01ac6d",
        "static_crosstalk": "4ee4d92359eece7494eee9c86ec0f882cb8343384e28047aa80b5a7568e07395",
    },
    "weekly_cycle": {
        "line_dslam": "50e085825601a91fc401cc1e858d48a46938d88a23fdac6313a2b10d7ed9cc52",
        "line_bras": "37040f21628db25adcfac772e48fff686d58a306dd46d87b05f427d84088bd89",
        "line_binder": "0d1228cf0d267b911068f63d6c301ee7599657d81aa12a2e037e9232491045e9",
        "dslams": "1cd73b8ed0b169afadb5abe783f65a990f6b5d5d49c2107234e974638bdd0de8",
        "brases": "8a97fd98bccdd50e2ee5fb3116e57a98e96a2cecb736f7b90ee1a26aef8342de",
        "binders": "8e1cfb6b3c6bbc564c827ca5d725820e18b3a105ce04e0a6b1fb310a9112cdeb",
        "loop_kft": "2cdf1a1e059192e23bf72833519793b00286bc57cf368e6aad2c0da83a03451e",
        "profile_idx": "b4ddb51724e69cb9a403dc0a5d268ebd68717c307716952733ef37d75505ef23",
        "ambient_noise_db": "4553e29864358fc24f8f87c3ab00525e34d432189a90bd6be50b8bf17945f442",
        "static_bridge_tap": "41c5abeed19572bd8f776dd7d275c0671fc3cf38dd4944e84123e5c0ac42be4b",
        "static_crosstalk": "f96dea7c459426e52d0ca0b95ceecef422ccbd69d633020860b65d5cfc81f0e7",
    },
}

CONFIGS = {
    "default": PopulationConfig(n_lines=100_000),
    "weekly_cycle": PopulationConfig(n_lines=100_000, seed=WEEKLY_CYCLE_SEED),
}


def assert_same_topology(actual, expected):
    for name in ("line_dslam", "line_bras", "line_binder"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert len(actual.dslams) == len(expected.dslams)
    for got, want in zip(actual.dslams, expected.dslams):
        assert (got.dslam_id, got.bras_id, got.geo) == (
            want.dslam_id, want.bras_id, want.geo)
        assert np.array_equal(got.line_ids, want.line_ids)
    assert len(actual.brases) == len(expected.brases)
    for got, want in zip(actual.brases, expected.brases):
        assert got.bras_id == want.bras_id
        assert np.array_equal(got.dslam_ids, want.dslam_ids)
    assert len(actual.binders) == len(expected.binders)
    for got, want in zip(actual.binders, expected.binders):
        assert (got.binder_id, got.dslam_id) == (want.binder_id, want.dslam_id)
        assert np.array_equal(got.line_ids, want.line_ids)


class TestGoldenDigests:
    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_100k_build_matches_golden(self, label):
        assert _population_digests(build_population(CONFIGS[label])) == GOLDEN[label]


class TestScalarOracle:
    @pytest.mark.parametrize("n", [1, 7, 8, 9, 50, 1000])
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    @pytest.mark.parametrize("knobs", [
        {},
        # Every DSLAM fill clips to 8 and nearly every binder fill to 2:
        # the DSLAM cut takes its whole worst-case batch, the binder cut
        # all but one draw per DSLAM of its batch.
        {"mean_lines_per_dslam": 1, "mean_lines_per_binder": 2},
        {"mean_lines_per_dslam": 9, "mean_lines_per_binder": 25,
         "dslams_per_bras": 3},
    ])
    def test_same_plant_and_generator_state(self, n, seed, knobs):
        config = PopulationConfig(n_lines=n, seed=seed, **knobs)
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        topology = _build_topology(n, config, rng_new)
        assert_same_topology(topology, _oracle_topology(n, config, rng_old))
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
        assert rng_new.random() == rng_old.random()

    def test_100k_generator_state(self):
        config = CONFIGS["weekly_cycle"]
        rng_new = np.random.default_rng(config.seed)
        rng_old = np.random.default_rng(config.seed)
        assert_same_topology(
            _build_topology(config.n_lines, config, rng_new),
            _oracle_topology(config.n_lines, config, rng_old),
        )
        assert rng_new.bit_generator.state == rng_old.bit_generator.state

    def test_edge_knobs_reach_a_one_line_dslam(self):
        # The oracle cases above do exercise a last DSLAM below the
        # 8-line floor, and a one-line binder inside it.
        config = PopulationConfig(n_lines=9, mean_lines_per_dslam=1,
                                  mean_lines_per_binder=2)
        topo = build_population(config).topology
        assert [d.line_ids.size for d in topo.dslams] == [8, 1]
        assert topo.binders[-1].line_ids.size == 1
