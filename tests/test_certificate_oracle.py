"""The certificate search's Bellman rows against the Fraction builder they replaced.

``certificate._bellman_rows`` reads each coefficient off the model's
numerators and denominators, as integers over one scale per row, the lcm of
the row's p, c and r denominators; ``certificate_oracle.bellman_rows`` sums
them into ``Fraction`` maps. Row for row, the senses must be equal and
every integer over the scale must equal the oracle's rational, with the
oracle's zero coefficients absent, so the simplex takes the same pivots on
both. Neither the rows nor the simplex's setup builds a ``Fraction``; only
the point the simplex returns is made of them. The strata: random models at their solver optimum, their lazy variants
(a self-loop on every row) at k/1009 and k/(2^61 - 1), rows whose
self-loop has mass 1, and every bundled instance at every start state and
policy.

``check_certificate`` evaluates the same rows over the policy's reach at
the certificate's point; its residuals, their order and its A4 and A5
verdicts must equal ``certificate_oracle.one_step_gap``'s ``Fraction``
sums, for arbitrary certificates with ``Fraction`` or ``int`` values.

``certificate._class_system_feasible`` reads each class's gain row off its
integer ``[R, *C, T]`` class sums, over the scale T. On the same strata,
the random and decomposable models and their lazy variants, it must give
the simplex the same point, and so the same verdict, as
``certificate_oracle.class_system_rows`` built from the ``ClassGain``
fractions: for the full set of reached classes and for every pair the
conflict search can try.
"""

import itertools
import random
from fractions import Fraction
from math import lcm
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import certificate_oracle
from cmdpkit import certificate, lp
from cmdpkit.chains import reachable_states
from cmdpkit.evaluation import analyse_policy
from cmdpkit.model import Policy, load_instance, validate_policy
from cmdpkit.solver import solve
from randmdp import examples, lazy_variant, random_decomposable, random_mdp, random_policy
from test_censor_oracle import MERSENNE_61, recording_fractions

F = Fraction


def indices(mdp, labels):
    return [mdp.state_index(s) for s in labels]


def assert_rows_equal_oracle(mdp, policy, x, free_mu):
    closure = reachable_states(mdp, None, x)
    reached = set(reachable_states(mdp, policy, x))
    columns = indices(mdp, closure)
    rows = certificate._bellman_rows(
        mdp, validate_policy(mdp, policy), columns, columns, set(indices(mdp, reached)), free_mu
    )
    expected = certificate_oracle.bellman_rows(mdp, policy, closure, reached, free_mu)
    assert len(rows) == len(expected)
    for (coefficients, sense, rhs, scale), (rational, want_sense, want_rhs) in zip(rows, expected):
        assert sense == want_sense
        assert type(scale) is int
        assert scale == lcm(want_rhs.denominator, *(v.denominator for v in rational.values()))
        assert type(rhs) is int and F(rhs, scale) == want_rhs
        assert all(type(v) is int and v for v in coefficients.values())
        assert {i: F(v, scale) for i, v in coefficients.items()} == {
            i: v for i, v in rational.items() if v
        }


def absorbing(mdp, picks):
    """The model with the rows of ``picks`` ((state index, action index) pairs)
    replaced by a self-loop of mass 1."""
    successors = [list(rows) for rows in mdp.successors]
    for i, j in picks:
        successors[i][j] = ((i, F(1)),)
    return mdp._replace(successors=tuple(map(tuple, successors)))


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(0, 2),
    mix=st.sampled_from([None, 1009, 2**61 - 1]),
    k=st.integers(1, 2**61 - 2),
    data=st.data(),
)
def test_rows_equal_oracle_on_random_models_at_their_optimum(seed, dim, mix, k, data):
    rng = random.Random(seed)
    mdp = random_mdp(rng, constraint_dims=(dim,))
    if data.draw(st.booleans()):
        picks = [(i, j) for i, acts in enumerate(mdp.actions) for j in range(len(acts))]
        mdp = absorbing(mdp, rng.sample(picks, rng.randint(1, len(picks))))
    if mix is not None:
        mdp = lazy_variant(mdp, F(k % (mix - 1) + 1, mix))
    result = solve(mdp)
    policy = result.policy if result.status == "optimal" else Policy(choice=tuple(
        (state, mdp.actions[i][0]) for i, state in enumerate(mdp.states)
    ))
    free_mu = sorted(data.draw(st.sets(st.integers(0, dim - 1))) if dim else [])
    assert_rows_equal_oracle(mdp, policy, mdp.initial_state, free_mu)


def test_rows_equal_oracle_on_every_bundled_instance_state_and_policy(instances_dir):
    for path in sorted(instances_dir.glob("*.json")):
        mdp = load_instance(str(path))
        free_mus = [
            list(c) for r in range(mdp.constraint_dim + 1)
            for c in itertools.combinations(range(mdp.constraint_dim), r)
        ]
        for actions in itertools.product(*mdp.actions):
            policy = Policy(choice=tuple(zip(mdp.states, actions)))
            for x in mdp.states:
                for free_mu in free_mus:
                    assert_rows_equal_oracle(mdp, policy, x, free_mu)


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(0, 2), whole=st.booleans())
def test_check_residuals_equal_the_fraction_gaps(seed, dim, whole):
    # Arbitrary certificates, so residuals are mostly nonzero; ``whole``
    # gives int values, which are rational without being Fractions.
    rng = random.Random(seed)
    mdp = random_mdp(rng, constraint_dims=(dim,))
    if rng.random() < 0.5:
        mdp = lazy_variant(mdp, F(rng.randint(1, 1008), 1009))
    policy = random_policy(rng, mdp)
    x = rng.choice(mdp.states)

    def value():
        v = rng.randint(-6, 6)
        return v if whole else F(v, rng.randint(1, 5))

    cert = certificate.Certificate(
        mu=tuple(abs(value()) for _ in range(dim)),
        gain=value(),
        potential={s: value() for s in mdp.states},
    )
    report = certificate.check_certificate(mdp, x, policy, cert)
    reach = reachable_states(mdp, policy, x)
    expected = {
        (s, a): certificate_oracle.one_step_gap(mdp, cert, s, j)
        for s in reach for j, a in enumerate(mdp.actions[mdp.state_index(s)])
    }
    assert report.bellman_residuals == expected
    assert list(report.bellman_residuals) == list(expected)
    assert all(type(gap) is Fraction for gap in report.bellman_residuals.values())
    assert report.a4 == all(
        min(expected[(s, a)] for a in mdp.actions[mdp.state_index(s)]) == 0 for s in reach
    )
    assert report.a5 == all(expected[(s, policy.action_for(s))] == 0 for s in reach)


def test_rows_and_simplex_setup_build_no_fraction(instances_dir):
    # Every pivot sees no Fraction built yet, so the rows, the setup and
    # Bland's scans build none; only a returned point holds Fractions.
    rng = random.Random(43)
    cases = []
    for path in sorted(instances_dir.glob("*.json")):
        mdp = load_instance(str(path))
        cases += [(mdp, random_policy(rng, mdp), x) for x in mdp.states]
    for k in range(12):
        mdp = random_mdp(rng, max_states=12, min_states=6, constraint_dims=(k % 3,))
        mdp = lazy_variant(mdp, F(rng.randint(1, 1008), 1009) if k % 2 else
                           F(rng.randint(1, MERSENNE_61 - 1), MERSENNE_61))
        cases.append((mdp, random_policy(rng, mdp), mdp.initial_state))
    original = lp._pivot
    pivots = points = 0

    for mdp, policy, x in cases:
        closure = indices(mdp, reachable_states(mdp, None, x))
        reached = set(indices(mdp, reachable_states(mdp, policy, x)))
        free_mu = list(range(mdp.constraint_dim))
        with recording_fractions() as built:
            rows = certificate._bellman_rows(
                mdp, validate_policy(mdp, policy), closure, closure, reached, free_mu
            )
            assert built == []

            def pivot(*args):
                nonlocal pivots
                assert built == []
                pivots += 1
                original(*args)

            with mock.patch.object(lp, "_pivot", pivot):
                point = lp.find_feasible_point(
                    len(free_mu) + 1 + len(closure), rows, set(range(len(free_mu)))
                )
        if point is None:
            assert built == []
        else:
            points += 1
            assert all(type(v) is Fraction for v in point)
    assert pivots > 100 and points > 10


def class_verdicts(mdp, policy, x, free_mu):
    """The search's and the oracle's points on the reached classes and every pair.

    Returns the verdicts of the full set and of each pair, after checking
    that both row forms give the simplex the same point.
    """
    analysis = analyse_policy(mdp, policy, x)
    sums, equations = analysis.class_sums, analysis.class_gains
    subsets = [tuple(range(len(sums)))] + list(itertools.combinations(range(len(sums)), 2))
    original = lp.find_feasible_point
    verdicts = []
    for subset in subsets:
        points = []

        def recording(*args, **kwargs):
            points.append(original(*args, **kwargs))
            return points[-1]

        with mock.patch.object(lp, "find_feasible_point", recording):
            verdict = certificate._class_system_feasible([sums[k] for k in subset], free_mu)
        expected = original(
            len(free_mu) + 1,
            certificate_oracle.class_system_rows([equations[k] for k in subset], free_mu),
            set(range(len(free_mu))),
        )
        assert points == [expected]
        assert verdict == (expected is not None)
        verdicts.append(verdict)
    return verdicts


def class_case(rng, decomposable, mix):
    """A random or decomposable model, lazy by k/mix when mix is set, a policy and a start."""
    mdp = random_decomposable(rng) if decomposable else random_mdp(rng)
    if mix is not None:
        mdp = lazy_variant(mdp, F(rng.randint(1, mix - 1), mix))
    # A decomposable model's start reaches every class.
    x = mdp.initial_state if decomposable else rng.choice(mdp.states)
    return mdp, random_policy(rng, mdp), x


@settings(max_examples=examples(60), deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    decomposable=st.booleans(),
    mix=st.sampled_from([None, 1009, 2**61 - 1]),
    data=st.data(),
)
def test_class_system_on_integer_sums_equals_the_fraction_rows(seed, decomposable, mix, data):
    mdp, policy, x = class_case(random.Random(seed), decomposable, mix)
    free_mu = sorted(data.draw(st.sets(st.integers(0, mdp.constraint_dim - 1)))
                     if mdp.constraint_dim else [])
    class_verdicts(mdp, policy, x, free_mu)


def test_class_system_verdicts_cover_both_outcomes():
    # The property above means little unless both verdicts occur: every
    # subset of the multiplier's components on decomposable models, whose
    # several reached classes often need distinct gains.
    rng = random.Random(37)
    counts = {True: 0, False: 0}
    for k in range(30):
        mdp, policy, x = class_case(rng, k % 3 != 0, [None, 1009, 2**61 - 1][k % 3])
        for r in range(mdp.constraint_dim + 1):
            for free_mu in itertools.combinations(range(mdp.constraint_dim), r):
                for verdict in class_verdicts(mdp, policy, x, list(free_mu)):
                    counts[verdict] += 1
    assert counts[True] > 20 and counts[False] > 20
