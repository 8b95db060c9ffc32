"""Method strings: one parser for the dotted names and the --penalty spelling."""

import pytest

from glme.methods import MethodSpec, parse_method
from glme.penalties import FlatPenalty


@pytest.mark.parametrize(
    "dotted,kind,penalty",
    [
        ("gmle.b.c6", "gmle", "beta_adaptive:choice=6"),
        ("glme.b.c1", "glme", "beta_adaptive:choice=1"),
        ("glme.n.c2", "glme", "normal:choice=2"),
        ("gmle.ms", "gmle", "ms"),
        ("glme.ms", "glme", "beta_fixed:preset=ms"),
        ("glme.cannon", "glme", "cannon"),
        ("gmle", "gmle", "flat"),
        ("glme", "glme", "flat"),
    ],
)
def test_both_spellings_give_equal_specs(dotted, kind, penalty):
    assert parse_method(kind, penalty) == parse_method(dotted)


def test_penalty_argument_applies_to_bare_names_only():
    assert parse_method("glme.n.c2", "ms") == parse_method("glme.n.c2")
    assert parse_method("lme", "ms") == MethodSpec("lme", FlatPenalty(), "lme")
    assert parse_method("mle", "normal:choice=1") == MethodSpec("mle", FlatPenalty(), "mle")


def test_full_penalty_grammar_names_the_method_by_label():
    spec = parse_method("gmle", "cd:alpha=2,lambda=0.5")
    assert spec.name == "gmle.cd:alpha=2,lambda=0.5"
    assert spec == parse_method("gmle.cd:alpha=2,lambda=0.5")


@pytest.mark.parametrize("text,penalty", [("bayes", "flat"), ("glme", "bogus"), ("", "flat"),
                                          ("lme.b.c1", "flat")])
def test_rejects_malformed(text, penalty):
    with pytest.raises(ValueError):
        parse_method(text, penalty)
