"""SplitMix64 against a one-draw-at-a-time reference, and whole runs under
both: block generation must not change a single bit of any output."""

from hypothesis import given, settings
from hypothesis import strategies as st

from spacing_auctions.baselines import fixed_interval_run, optimal_static, static_run
from spacing_auctions.fkors import FkorsConfig, run_fkors
from spacing_auctions.market import discretize_uniform, mean_conversion
from spacing_auctions.rewards import sqrt_reward
from spacing_auctions.rng import SplitMix64
from test_baselines import CountingRng

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def to_uniform(x):
    return (x >> 11) * 2.0**-53


class ScalarRng(SplitMix64):
    """The generator one draw at a time, in Python integers, as the formula
    in the rng module's docstring reads."""

    __slots__ = ("state",)

    def __init__(self, seed):
        super().__init__(seed)
        self.state = seed & MASK

    def uniform(self):
        self.state = (self.state + GOLDEN) & MASK
        return to_uniform(mix(self.state))


def test_seed_zero_matches_the_reference_outputs():
    # the first outputs of the reference splitmix64.c seeded with 0
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC]
    rng = SplitMix64(0)
    assert [rng.uniform() for _ in want] == [to_uniform(x) for x in want]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.sampled_from([0, 1, MASK]) | st.integers(0, MASK),
    n=st.sampled_from([1, 1023, 1024, 1025, 3000]),
)
def test_draws_match_the_scalar_reference_across_blocks(seed, n):
    rng, ref = SplitMix64(seed), ScalarRng(seed)
    assert [rng.uniform() for _ in range(n)] == [ref.uniform() for _ in range(n)]


def test_negative_seeds_wrap_as_the_reference_does():
    assert SplitMix64(-1).uniform() == ScalarRng(MASK).uniform()


def test_a_subclass_counts_every_draw_across_blocks():
    rng, ref = CountingRng(3), ScalarRng(3)
    assert [rng.uniform() for _ in range(2500)] == [ref.uniform() for _ in range(2500)]
    assert rng.draws == 2500


def run_outputs(rec):
    return repr((rec.utility_true, rec.spend, rec.wins, rec.conversions, rec.rounds))


def test_runs_are_bitwise_equal_under_the_scalar_generator():
    market = discretize_uniform(50)
    reward = sqrt_reward()
    rho, T = 0.2, 3000
    static, _ = optimal_static(market, reward, m=40, rho=rho)
    cfg = FkorsConfig.from_defaults(rho, T, mean_conversion(market), seed=11)
    runs = {
        "static": lambda rng: static_run(market, reward, static, rho, T, rng, trace=True),
        "fixed interval": lambda rng: fixed_interval_run(
            market, reward, 4, rho, T, rng, trace=True),
        "fkors": lambda rng: run_fkors(market, reward, cfg, rng=rng, trace=True),
    }
    for name, run in runs.items():
        block, scalar = run(SplitMix64(11)), run(ScalarRng(11))
        assert block.rounds and block.wins > 0, name
        assert run_outputs(block) == run_outputs(scalar), name
        assert [repr(e) for e in block.epochs] == [repr(e) for e in scalar.epochs], name
