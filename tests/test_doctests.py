import doctest

import pytest

from rackqm import certify, quasimorphism, words


@pytest.mark.parametrize("module", [words, quasimorphism, certify], ids=lambda m: m.__name__)
def test_docstring_examples(module):
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0
