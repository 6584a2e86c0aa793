from fractions import Fraction

import pytest

from cmdpkit import instances
from cmdpkit.model import InputError, instance_to_json, load_instance, validate

F = Fraction


def test_bundled_files_match_builders(instances_dir):
    for name, builder in instances.BUNDLED.items():
        path = instances_dir / f"{name}.json"
        assert path.exists(), f"missing bundled instance {name}"
        assert load_instance(path) == builder()


def test_bundled_files_are_canonical_renderings(instances_dir):
    for name, builder in instances.BUNDLED.items():
        path = instances_dir / f"{name}.json"
        assert path.read_text(encoding="utf-8") == instance_to_json(builder())


def test_bundled_instances_validate_cleanly():
    for builder in instances.BUNDLED.values():
        assert validate(builder()).ok


def test_haviv_bad_state_frequencies(haviv):
    # one bad state per cycle of lengths 5, 20, 10
    bad = [s for i, s in enumerate(haviv.states)
           if haviv.constraints[i][0][0] < 0]
    assert bad == ["c1_0", "c2_0", "c3_0"]


def test_haviv_parametrized_bound():
    tight = instances.haviv(bound=F(1, 25))
    i = tight.state_index("x")
    assert tight.constraints[i][0] == (F(1, 25),)
    j = tight.state_index("c1_0")
    assert tight.constraints[j][0] == (F(1, 25) - 1,)


def test_squander_rejects_bad_eps():
    with pytest.raises(ValueError):
        instances.squander(F(0))
    with pytest.raises(ValueError):
        instances.squander(F(3, 2))


def test_eps_out_of_range_is_an_input_error():
    for builder, eps in ((instances.squander, F(2)), (instances.yacht, F(0))):
        with pytest.raises(InputError, match="eps must lie strictly between 0 and 1"):
            builder(eps)


def test_squander_eps_appears_in_kernel():
    eps = F(1, 100)
    mdp = instances.squander(eps)
    i = mdp.state_index("x")
    row = dict(mdp.successors[i][0])
    assert row[mdp.state_index("y")] == eps
    assert row[mdp.state_index("z")] == 1 - eps


def test_write_bundled_round_trips(tmp_path):
    written = instances.write_bundled(tmp_path)
    assert len(written) == 4
    for path in written:
        assert validate(load_instance(path)).ok
