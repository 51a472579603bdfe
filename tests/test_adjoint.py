import dataclasses
import random

import pytest

from rackqm.adjoint import (
    FreeRackFactorModel,
    TrivialRackModel,
    express_generator,
    presentation,
    scale,
    verify_expression,
)
from rackqm.free_product import trivial_product
from rackqm.racks import builtin_racks, dihedral_quandle, trivial_rack
from rackqm.sampling import sample_element
from rackqm.words import GroupWord, parse_word


def test_presentation_relator_count_and_shape():
    for rack in builtin_racks():
        pres = presentation(rack)
        assert len(pres.generators) == rack.size
        assert len(pres.relators) == rack.size**2


def test_presentation_trivial_rack_gives_commutators():
    pres = presentation(trivial_rack(2))
    assert parse_word("e_0 e_1 e_0^-1 e_1^-1") in pres.relators


def test_presentation_one_element_rack_is_trivial_relator():
    pres = presentation(trivial_rack(1))
    assert len(pres.relators) == 1
    assert pres.relators[0].is_identity  # e0 e0 = e0 e0 reduces away


def test_presentation_dihedral_read_off():
    rack = dihedral_quandle(3)
    pres = presentation(rack)
    for i in range(3):
        for j in range(3):
            k = (2 * j - i) % 3
            expected = parse_word(f"e_{i} e_{j} e_{k}^-1 e_{j}^-1")
            assert expected in pres.relators


def test_presentation_export_format():
    text = presentation(trivial_rack(2)).export_text()
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert lines[0] == "generators: e_0 e_1"
    assert len(lines) == 1 + 4  # one line per relator; trivial relators are empty
    assert "e_0 e_1 e_0^-1 e_1^-1" in lines


def test_trivial_model_rank_one_is_infinite_cyclic():
    model = TrivialRackModel("a", 1)
    assert model.embed(0) == (1,) and model.identity() == (0,)
    assert model.act(0, scale(model.embed(0), 5)) == 0


def test_trivial_model_collection():
    model = TrivialRackModel("t", 2)
    e0, e1 = model.embed(0), model.embed(1)
    assert (e0, e1) == ((1, 0), (0, 1))
    assert model.multiply(scale(e0, 2), model.multiply(e1, e0)) == (3, 1)


def test_free_rack_factor_model_shifts():
    model = FreeRackFactorModel("a")
    assert model.act(0, model.embed(0)) == 1
    assert model.act(2, scale(model.embed(7), -3)) == -1
    assert not model.is_quandle


def test_models_carry_a_factor_and_a_rank_and_no_names():
    # generator names are spelled only by free_product.generator_name
    assert [f.name for f in dataclasses.fields(TrivialRackModel)] == ["factor", "rank"]
    assert [f.name for f in dataclasses.fields(FreeRackFactorModel)] == ["factor"]
    assert FreeRackFactorModel("a").rank == 1
    for model in (TrivialRackModel("t", 3), FreeRackFactorModel("a")):
        assert not hasattr(model, "generator_names")
        assert not hasattr(model, "generator")
    with pytest.raises(ValueError, match="rank must be at least 1"):
        TrivialRackModel("t", 0)


@pytest.mark.parametrize("rank", [0, -2])
def test_trivial_model_rejects_a_rank_below_one(rank):
    # a rank-0 factor has only the zero value, so a sampler over it looped forever
    with pytest.raises(ValueError, match="rank must be at least 1"):
        TrivialRackModel("t", rank)


def test_model_action_is_a_group_action():
    rng = random.Random(0)
    for model in (TrivialRackModel("t", 3), FreeRackFactorModel("a")):
        for _ in range(200):
            key = model.key_sampler(rng.getrandbits, 4)()
            g = model.sample_value(rng, 4)
            h = model.sample_value(rng, 4)
            assert model.act(model.act(key, g), h) == model.act(key, model.multiply(g, h))
            assert model.act(key, model.identity()) == key


@pytest.mark.parametrize(
    "model", [TrivialRackModel("t", 2), FreeRackFactorModel("a")]
)
def test_sample_value_rejects_max_exponent_below_one(model):
    # a nonzero value needs an exponent of size at least 1; the trivial-rack
    # model used to redraw the all-zero vector forever
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_exponent"):
            model.sample_value(random.Random(0), bad)


def test_sample_element_rejects_max_exponent_zero():
    parent, rng = trivial_product({"a": 2, "b": 3}), random.Random(0)
    with pytest.raises(ValueError, match="max_exponent"):
        for _ in range(10):  # an empty tail draws no value
            sample_element(parent, rng, 3, 0)


def test_model_embedding_satisfies_adjoint_relation():
    # e(x) e(y) = e(y) e(x <| y); trivial rack means x <| y = x, values commute
    model = TrivialRackModel("t", 3)
    for x in range(3):
        for y in range(3):
            lhs = model.multiply(model.embed(x), model.embed(y))
            rhs = model.multiply(model.embed(y), model.embed(x))
            assert lhs == rhs


def test_express_generator_in_generating_set():
    rack = dihedral_quandle(3)
    word = express_generator(rack, {0, 1}, 0)
    assert word == parse_word("e_0")


def test_express_generator_dihedral_conjugate():
    rack = dihedral_quandle(3)  # 2 = 0 <| 1 since (2*1 - 0) % 3 = 2
    word = express_generator(rack, {0, 1}, 2)
    assert word == parse_word("e_1^-1 e_0 e_1")


def test_express_generator_trivial_rack_full_set():
    rack = trivial_rack(3)
    for x in range(3):
        assert express_generator(rack, {0, 1, 2}, x) == GroupWord(((f"e_{x}", 1),))


def test_express_generator_requires_generating_set():
    with pytest.raises(ValueError):
        express_generator(trivial_rack(3), {0}, 2)


def test_verify_expression_on_express_output():
    for rack in builtin_racks():
        gens = set(range(rack.size))
        for x in range(rack.size):
            word = express_generator(rack, gens, x)
            assert verify_expression(rack, gens, x, word)


def test_verify_expression_dihedral_witnesses():
    rack = dihedral_quandle(3)
    gens = {0, 1}
    for x in range(3):
        word = express_generator(rack, gens, x)
        assert verify_expression(rack, gens, x, word)


def test_verify_expression_rejects_wrong_power():
    rack = dihedral_quandle(3)
    assert verify_expression(rack, {0, 1, 2}, 0, parse_word("e_0"))
    assert not verify_expression(rack, {0, 1, 2}, 0, parse_word("e_0^2"))
