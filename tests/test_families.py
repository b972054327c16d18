import hashlib

import numpy as np
import pytest
from scipy.stats import gennorm

from adasketch.errors import ParameterError
from adasketch.families import VectorFamily, gen_vector
from adasketch.oracle import SparseVector, lp_norm
from adasketch.rng import RngStream


def stream(label, seed=606):
    return RngStream(seed).child(label)


def test_spikes_exact_norm_and_values():
    fam = VectorFamily("spikes", p=1.0, count=4)
    x = gen_vector(fam, 8, stream("s"))
    nz = np.flatnonzero(x)
    assert nz.size == 4
    assert set(np.abs(x[nz])) == {0.25}
    assert lp_norm(x, 1) == 1.0


def test_spikes_norm_exact_across_p():
    for p in (1.0, 1.5, 2.0, 3.0):
        fam = VectorFamily("spikes", p=p, count=5)
        x = gen_vector(fam, 64, stream(f"s{p}"))
        assert lp_norm(x, p) == pytest.approx(1.0, rel=1e-12)


def test_adversarial_block_values():
    fam = VectorFamily("denoise_adversarial", p=1.0, count=2)
    x = gen_vector(fam, 9, stream("a"))
    nz = np.flatnonzero(x)
    assert nz.size == 5
    assert np.allclose(x[nz], 0.2, rtol=0, atol=0)
    with pytest.raises(ParameterError):
        gen_vector(fam, 4, stream("a2"))


@pytest.mark.parametrize("p", [1.0, 3.0])
def test_multiscale_scales_carry_equal_mass(p):
    # 2^j entries of magnitude (1/(J 2^j))^(1/p) for each j < J, on random
    # signs: 2^J - 1 distinct nonzeros on the unit l_p sphere, in O(nnz)
    scales = 10
    x = gen_vector(VectorFamily.parse(f"multiscale:{scales}", p), 2**40, stream(f"ms{p}"))
    assert isinstance(x, SparseVector) and x.index.size == 2**scales - 1
    mags, counts = np.unique(np.abs(x.values), return_counts=True)
    assert counts.tolist() == [2**j for j in reversed(range(scales))]
    assert np.array_equal(mags[::-1], (1.0 / (scales * 2.0 ** np.arange(scales))) ** (1.0 / p))
    assert lp_norm(x.values, p) == pytest.approx(1.0, rel=1e-12)
    assert 0 < np.count_nonzero(x.values > 0) < x.index.size
    assert gen_vector(VectorFamily.parse("multiscale:3", p), 7, stream("fits")).index.size == 7
    with pytest.raises(ParameterError):
        gen_vector(VectorFamily.parse("multiscale:3", p), 6, stream("too-many"))


def test_zero_family():
    x = gen_vector(VectorFamily("zero"), 16, stream("z"))
    assert np.array_equal(x, np.zeros(16))


@pytest.mark.parametrize("kind", ["geometric", "spike_plus_tail", "uniform_ball"])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_unit_ball_membership(kind, p):
    fam = VectorFamily(kind, p=p, count=3)
    for t in range(20):
        x = gen_vector(fam, 512, stream(f"{kind}-{p}-{t}"))
        assert lp_norm(x, p) <= 1.0 + 1e-9


def gennorm_uniform_ball(p, m, gen):
    """The uniform_ball draw built on scipy's p-generalized normal sampler."""
    y = gennorm.rvs(p, size=m, random_state=gen)
    norm = float(np.sum(np.abs(y) ** p)) ** (1.0 / p)
    radius = gen.uniform() ** (1.0 / m)
    return (radius / norm) * y


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.5])
@pytest.mark.parametrize("m", [1, 2, 17, 4096])
def test_uniform_ball_replays_the_gennorm_construction(p, m):
    fam = VectorFamily("uniform_ball", p=p)
    for seed in range(20):
        ours, theirs = stream("u", seed), stream("u", seed)
        x = gen_vector(fam, m, ours)
        assert x.tobytes() == gennorm_uniform_ball(p, m, theirs.generator).tobytes()
        assert ours.generator.bit_generator.state == theirs.generator.bit_generator.state
        assert ours.generator.random() == theirs.generator.random()


def test_geometric_decay_shape():
    fam = VectorFamily("geometric", p=1.0)
    x = gen_vector(fam, 256, stream("g"))
    mags = np.sort(np.abs(x[np.flatnonzero(x)]))[::-1]
    ratios = mags[1:] / mags[:-1]
    assert np.allclose(ratios, 0.5, rtol=1e-9)
    assert mags[0] == pytest.approx(0.5, rel=1e-12)  # head value (1 - ratio)


def test_spike_plus_tail_splits_mass():
    fam = VectorFamily("spike_plus_tail", p=1.0, count=2)
    x = gen_vector(fam, 512, stream("st"))
    mags = np.abs(x[np.flatnonzero(x)])
    # two spikes of (1/2)/2 = 0.25; the decaying part happens to start at
    # the same magnitude (head = mass * (1 - ratio) = 0.25) and halves after
    assert np.count_nonzero(mags == 0.25) == 3
    assert np.count_nonzero(mags == 0.125) == 1
    assert lp_norm(x, 1) == pytest.approx(1.0, abs=1e-12)


def test_parse_notation():
    fam = VectorFamily.parse("spikes:4", p=1.0)
    assert fam.kind == "spikes" and fam.count == 4
    assert fam.label() == "spikes:4"
    assert VectorFamily.parse("geometric", p=2.0).p == 2.0
    with pytest.raises(ParameterError):
        VectorFamily.parse("nonsense", p=1.0)
    for text in ("geometric:7", "uniform_ball:3", "zero:2", "spikes:", "spikes:x"):
        with pytest.raises(ParameterError):
            VectorFamily.parse(text, p=1.0)


def test_generation_is_deterministic():
    fam = VectorFamily("uniform_ball", p=1.0)
    a = gen_vector(fam, 64, stream("det"))
    b = gen_vector(fam, 64, stream("det"))
    assert np.array_equal(a, b)


# sha256 of np.asarray(draw).tobytes() plus the next four raw words of the
# draw's stream, over p in {1, 1.5} and (m, seed) in {(64, 1), (2^20, 7919)};
# computed from the dense construction, which made the same stream calls
PINNED_DRAWS = [
    ("spikes:3", "13bc01d3246c9424a0adeb82abd79ae831ea5f6011cb8a5ad4258e01fd165f24"),
    ("geometric", "bed048300c3a644d04a03e5ed4f720c8d326e401fbde5889d433d6637502b29a"),
    ("spike_plus_tail:2", "e3f017cf973244910ba9146cd95eb9cde027bb4ccb23c42e8a07f68d7404c7e2"),
    ("denoise_adversarial:2", "5cd2d2d241ba9448a608d08ccf22b719c605aa11cfa96dfab64b9205e13ffd18"),
    ("zero", "b3c760df8073f03985cc103a70d07f1cc6de98009c2173a4718d5ebfb1f00895"),
    ("multiscale:5", "01c4366383cfdcc262c51e17673951d26a26fed673c5d39be1e8c137268596c2"),
]


@pytest.mark.parametrize("family, expected", PINNED_DRAWS)
def test_sparse_family_draws_are_pinned(family, expected):
    digest = hashlib.sha256()
    for p in (1.0, 1.5):
        for m, seed in ((64, 1), (2**20, 7919)):
            rng = RngStream(seed).child("pinned-draw")
            x = gen_vector(VectorFamily.parse(family, p), m, rng)
            assert isinstance(x, SparseVector) and x.m == m
            digest.update(np.asarray(x).tobytes())
            digest.update(rng.generator.bit_generator.random_raw(4).tobytes())
    assert digest.hexdigest() == expected
