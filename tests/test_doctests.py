import doctest

import pytest

from rackqm import certify, free_product, quasimorphism, words


@pytest.mark.parametrize(
    "module", [words, free_product, quasimorphism, certify], ids=lambda m: m.__name__
)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
