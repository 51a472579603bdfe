import json
from fractions import Fraction

import pytest

from rackqm.certify import boundedness_refutation, independence_certificate
from rackqm.free_product import free_quandle, free_rack, parse_element, trivial_product
from rackqm.quasimorphism import (
    QmError,
    Sigma,
    check_cocycle_diag,
    family_from_dict,
    format_fraction,
    iota_family,
    rack_qm,
    sign_family,
    zero_family,
)
from rackqm.sampling import SamplerConfig
from rackqm.words import parse_word

FR = free_rack(["a", "b"])
FQ = free_quandle(["a", "b"])
T23 = trivial_product({"a": 2, "b": 3})


def is_identity_matrix(matrix):
    return all(
        value == (1 if i == j else 0)
        for i, row in enumerate(matrix)
        for j, value in enumerate(row)
    )


def test_certificate_rank_three():
    cert = independence_certificate(FR, 3, 100)
    assert cert.verdict == 3
    assert is_identity_matrix(cert.matrix)


def test_certificate_rank_one():
    cert = independence_certificate(FR, 1, 5)
    assert cert.matrix == ((Fraction(1),),) and cert.verdict == 1


def test_certificate_free_quandle_rank_five_and_cocycles():
    cert = independence_certificate(FQ, 5, 50)
    assert cert.verdict == 5 and is_identity_matrix(cert.matrix)
    for k in range(1, 6):
        fam = iota_family(FQ, "a", 0, Sigma.indicator(k))
        ok, _ = check_cocycle_diag(fam, config=SamplerConfig(seed=k, samples=500))
        assert ok


def test_certificate_trivial_product():
    cert = independence_certificate(T23, 4, 25)
    assert cert.verdict == 4 and is_identity_matrix(cert.matrix)


def test_certificate_stable_in_n():
    a = independence_certificate(FR, 3, 7)
    b = independence_certificate(FR, 3, 13)
    assert a.matrix == b.matrix


def test_certificate_argument_validation():
    with pytest.raises(ValueError):
        independence_certificate(FR, 0, 10)
    with pytest.raises(ValueError):
        independence_certificate(FR, 3, 0)


def test_certificate_json_schema():
    cert = independence_certificate(FR, 2, 10)
    data = cert.to_dict()
    text = json.dumps(data)
    parsed = json.loads(text)
    assert parsed["rank"] == 2 and parsed["n"] == 10
    assert parsed["verdict"] == 2
    assert parsed["matrix"] == [["1", "0"], ["0", "1"]]
    assert len(parsed["family"]) == 2 and len(parsed["witnesses"]) == 2
    assert parsed["witnesses"][0]["period"].startswith("a.0")


@pytest.mark.parametrize("parent", [FR, FQ, T23], ids=["FR", "FQ", "T2*T3"])
def test_certificate_round_trips(parent):
    data = json.loads(json.dumps(independence_certificate(parent, 3, 10).to_dict()))
    n = data["n"]
    witnesses = [
        parse_element(parent, f"{w['base']} | " + " ".join([w["period"]] * w["power"]))
        for w in data["witnesses"]
    ]
    for entry, row in zip(data["family"], data["matrix"]):
        family = family_from_dict(parent, entry)
        assert [format_fraction(rack_qm(family, w) / n) for w in witnesses] == row
    for w in data["witnesses"]:
        assert parse_word(w["period"]).render() == w["period"]


def test_growth_report_sign_family():
    report = boundedness_refutation(sign_family(FR), ns=(1, 10, 100))
    assert report.slope == 2
    assert report.table == {1: 2, 10: 20, 100: 200}
    assert report.component_count == 2
    assert report.component_count_label == "factor-orbit sum"


def test_growth_report_iota_indicator():
    fam = iota_family(FR, "a", 0, Sigma.indicator(3))
    report = boundedness_refutation(fam, ns=(1, 10))
    assert report.slope == 1
    assert report.table[10] in (10, -10)


def test_growth_report_component_counts():
    assert boundedness_refutation(sign_family(T23)).component_count == 5


def test_growth_report_zero_family_raises():
    with pytest.raises(QmError):
        boundedness_refutation(zero_family(FR))


def test_growth_report_json():
    report = boundedness_refutation(sign_family(FR), ns=(1, 10))
    data = report.to_dict()
    assert data["slope"] == "2"
    assert data["growth"]["10"] == "20"
