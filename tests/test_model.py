import json
import math

import numpy as np
import pytest

from agedist import FinitePMF, Geometric, ImportanceDist, Model


def test_z_pmf_examples(fig1):
    assert fig1.z_pmf(1) == pytest.approx(0.2, abs=1e-15)
    assert fig1.z_pmf(3) == pytest.approx(0.128, abs=1e-15)
    finite = Model(fig1.v, FinitePMF((0.5, 0.5)))
    assert finite.z_pmf(3) == 0.0


def test_z_tail_and_excess_examples(fig1):
    assert fig1.z_tail(1) == 1.0
    assert fig1.z_tail(4) == pytest.approx(0.512, abs=1e-15)
    # brute-force truncated sum for E[(Z-1)^+]
    brute = sum((z - 1) * fig1.z_pmf(z) for z in range(2, 400))
    assert fig1.z_excess_mean(1) == pytest.approx(4.0, abs=1e-12)
    assert fig1.z_excess_mean(1) == pytest.approx(brute, abs=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.2, 0.5, 0.9, 1.0])
def test_geometric_sum_and_tail_identities(p):
    z = Geometric(p)
    total = sum(z.pmf(k) for k in range(1, 201)) + z.tail(201)
    assert total == pytest.approx(1.0, abs=1e-12)
    for k in range(1, 51):
        tail = sum(z.pmf(j) for j in range(k, k + 600))
        assert z.tail(k) == pytest.approx(tail, abs=1e-12)


def test_moment_ordering():
    # Z >= 1 forces mu >= 1 for any admissible law
    for z in (Geometric(0.2), Geometric(1.0), FinitePMF((0.25, 0.5, 0.25)), FinitePMF((1.0,))):
        assert z.mean >= 1.0


def test_finite_pmf_moments_and_excess():
    z = FinitePMF((0.25, 0.5, 0.25))
    assert z.mean == pytest.approx(2.0)
    assert z.tail(2) == pytest.approx(0.75)
    assert z.excess_mean(1) == pytest.approx(0.5 * 1 + 0.25 * 2)
    assert z.excess_mean(3) == 0.0


def test_d_min_paper_values(fig1, fig2):
    assert fig1.d_min() == pytest.approx(2.7, abs=1e-12)
    assert fig2.d_min() == pytest.approx(0.7, abs=1e-12)
    single = Model(ImportanceDist((1.0,), (1.0,)), Geometric(1.0))
    assert single.d_min() == 0.0


def test_d_min_general_minimum_value():
    # formulas hold for arbitrary v_min, not just the normalized v_min = 1
    model = Model(ImportanceDist((2.0, 5.0, 40.0), (0.5, 0.3, 0.2)), Geometric(0.25))
    # rate 1/mu = 0.25: j* = 2 (0-based index of 40 has tail 0.2 < 0.25)
    expect = 0.5 * 2.0 + (0.3 + 0.2 - 0.25) * 5.0
    assert model.d_min() == pytest.approx(expect, abs=1e-12)
    # v = 0 packets are ordinary packets; with tail(v=0) = 1 >= 1/mu the floor is zero
    zero = Model(ImportanceDist((0.0, 7.0), (0.6, 0.4)), Geometric(0.5))
    assert zero.d_min() == pytest.approx(0.0, abs=1e-15)


def test_d_min_monotone_in_speaking_rate():
    # faster speaking (larger p) never increases the floor
    dist = ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2))
    floors = [Model(dist, Geometric(p)).d_min() for p in np.linspace(0.05, 1.0, 40)]
    assert all(b <= a + 1e-12 for a, b in zip(floors, floors[1:]))


def test_eta_max_and_buffer_bounds(fig1):
    assert fig1.eta_max() == pytest.approx(3.8, abs=1e-15)
    assert fig1.buffer_bound(1.0) == 4
    assert fig1.buffer_bound(3.8) == 1
    assert fig1.buffer_bound(10.0) == 1
    assert fig1.buffer_bound_i(1.0, 0) == 0
    assert fig1.buffer_bound_i(1.0, 1) == 4
    bounds = [fig1.buffer_bound(eta) for eta in np.linspace(0.1, 5.0, 60)]
    assert all(b <= a for a, b in zip(bounds, bounds[1:]))  # nonincreasing in eta
    # every slot speaks, so no buffer outlives its slot: depth 1 at any eta
    for z in (Geometric(1.0), FinitePMF((1.0, 0.0))):
        assert Model(fig1.v, z).buffer_bound(1.0) == 1
        assert Model(fig1.v, z).buffer_bound(1e-3) == 1
    with pytest.raises(ValueError):
        fig1.buffer_bound(0.0)
    with pytest.raises(ValueError):
        fig1.buffer_bound(-1.0)
    bounds = (fig1.buffer_bound, fig1.reach_bounds, lambda eta: fig1.buffer_bound_i(eta, 1))
    for bad in (math.nan, math.inf, -math.inf):
        for bound in bounds:
            with pytest.raises(ValueError, match="eta must be finite and positive"):
                bound(bad)
    # positive but so small that K(eta) is not a finite number
    for bound in (fig1.buffer_bound, fig1.reach_bounds):
        with pytest.raises(ValueError, match="eta=1e-320 is too small"):
            bound(1e-320)


def test_importance_dist_validation():
    with pytest.raises(ValueError):
        ImportanceDist((), ())
    with pytest.raises(ValueError):
        ImportanceDist((2.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        ImportanceDist((1.0, 1.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        ImportanceDist((-1.0, 2.0), (0.5, 0.5))
    with pytest.raises(ValueError):
        ImportanceDist((1.0, 2.0), (0.5, 0.4))
    with pytest.raises(ValueError):
        ImportanceDist((1.0, 2.0), (0.0, 1.0))
    for values in ((1.0, math.nan), (math.nan, 2.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="importance values must be finite"):
            ImportanceDist(values, (0.5, 0.5))
    for probs in ((math.nan, 0.3), (0.5, math.nan), (math.inf, 1.0)):
        with pytest.raises(ValueError, match="importance probabilities must be finite"):
            ImportanceDist((1.0, 2.0), probs)
    # zero importance is a legal packet value
    ImportanceDist((0.0, 2.0), (0.5, 0.5))


def test_interspeak_validation():
    with pytest.raises(ValueError):
        Geometric(0.0)
    with pytest.raises(ValueError):
        Geometric(1.5)
    with pytest.raises(ValueError):
        FinitePMF(())
    with pytest.raises(ValueError):
        FinitePMF((0.5, 0.4))
    for probs in ((math.nan, 1.0), (math.nan,), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite PMF entries must be finite"):
            FinitePMF(probs)
    with pytest.raises(ValueError):
        Geometric(math.nan)
    with pytest.raises(ValueError):
        FinitePMF(tuple([1.0 / 65] * 65))
    FinitePMF(tuple([1.0 / 64] * 64))


def test_config_round_trip(fig1, tmp_path):
    cfg = fig1.to_config()
    assert cfg == {"values": [1.0, 20.0], "probs": [0.7, 0.3], "z": {"geometric": 0.2}}
    again = Model.from_config(cfg)
    assert again == fig1
    assert again.config_hash() == fig1.config_hash()

    finite = Model(fig1.v, FinitePMF((0.25, 0.75)))
    assert Model.from_config(finite.to_config()) == finite

    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert Model.from_json(str(path)) == fig1

    with pytest.raises(ValueError):
        Model.from_config({"values": [1.0]})
    with pytest.raises(ValueError):
        Model.from_config({"values": [1.0], "probs": [1.0], "z": {"weird": 1}})


@pytest.mark.parametrize(
    "cfg, match",
    [
        ({"values": [1.0, 20.0], "probs": [0.7, 0.3], "z": {"geometric": True}}, "geometric"),
        ({"values": [1.0, 20.0], "probs": [0.7, 0.3], "z": {"pmf": [False, True]}}, '"z.pmf"'),
        ({"values": [1.0, True], "probs": [0.7, 0.3], "z": {"geometric": 0.2}}, '"values"'),
        ({"values": [1.0, 20.0], "probs": [0.7, 0.3], "z": {"geometric": "0.2"}}, "geometric"),
    ],
    ids=["geometric-true", "pmf-bools", "values-bool", "geometric-string"],
)
def test_config_rejects_bools_and_strings(cfg, match):
    with pytest.raises(ValueError, match=match):
        Model.from_config(cfg)
