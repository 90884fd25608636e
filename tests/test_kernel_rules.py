"""One ill-typed probe per kernel rule.  Each probe is a small program whose
last declaration, `bad`, breaks exactly one rule; the kernel must reject it
there.  Each docstring names the weakening of the rule that would let the
probe through.  Well-typed programs that the kernel must accept pin the
positions where cumulativity applies."""

import pytest

from utk import elab as E
from utk import kernel as K
from utk import parser as P

PROBES = {
    # convert at a Sigma type compares the first components.  Weakening:
    # skip that comparison and compare the second components alone.
    "sigma-first-component": """
        def bad : Id ((X : U1) * 1) (U0, *) (1, *) := refl (U0, *)
    """,
    # Cumulativity compares Pi domains by conversion.  Weakening: compare
    # them covariantly, like the codomains, so U0 -> U0 <= U1 -> U0.
    "pi-domain-invariant": """
        def bad : (U0 -> U0) -> U1 -> U0 := \\f -> f
    """,
    # Cumulativity compares the types of identity types by conversion.
    # Weakening: compare them covariantly, so Id U0 1 1 <= Id U1 1 1.
    "id-type-invariant": """
        def e : Id U0 1 1 := refl 1
        def bad : Id U1 1 1 := e
    """,
    # check(refl p, Id A l r) converts p with both endpoints.  Weakening:
    # drop those conversions.
    "refl-left-endpoint": """
        def bad : Id U1 1 U0 := refl U0
    """,
    "refl-right-endpoint": """
        def bad : Id U1 U0 1 := refl U0
    """,
    # A Pi or Sigma type lives in the larger universe of its two parts.
    # Weakening: take the smaller one (min for max).
    "pi-level-max": """
        def bad : U0 := U0 -> 1
    """,
    "sigma-level-max": """
        def bad : U0 := (X : U0) * 1
    """,
    # The J motive must be a type family over x, y and p.  Weakening: skip
    # that check.  Here the motive uses the path p as a point of 1; at 1
    # every conversion holds, so nothing else in the term objects.
    "j-motive-universe": """
        def bad : Id 1 * * := J (\\x y p -> Id 1 x p) (\\x -> refl x) * * (refl *)
    """,
    # Two neutral paths convert only when their heads and spines do.
    # Weakening: accept any two neutrals at an identity type.
    "neutral-paths-distinct": """
        def bad : (A : U0) -> (a : A) -> (p : Id A a a) -> (q : Id A a a) -> Id (Id A a a) p q
          := \\A a p q -> refl p
    """,
}


@pytest.mark.parametrize("rule", sorted(PROBES))
def test_kernel_rejects_probe(rule):
    decls = P.parse_program(PROBES[rule])
    _, _, _, failure = E.elaborate_and_check(decls)
    assert failure is not None, f"{rule}: the probe was accepted"
    assert failure.decl_name == "bad"
    assert isinstance(failure.cause, K.KernelError), failure.cause


# Cumulativity: U0 <= U1 lifts through each covariant position.  Each
# program fails if that position compares by conversion instead.
ACCEPTED = {
    "pi-codomain-covariant": """
        def f : 1 -> U0 := \\x -> 1
        def ok : 1 -> U1 := f
    """,
    "sigma-first-covariant": """
        def a : (X : U0) * 1 := (1, *)
        def ok : (X : U1) * 1 := a
    """,
    "sigma-second-covariant": """
        def a : (x : 1) * U0 := (*, 1)
        def ok : (x : 1) * U1 := a
    """,
}


@pytest.mark.parametrize("position", sorted(ACCEPTED))
def test_kernel_accepts_cumulativity(position):
    _, _, _, failure = E.elaborate_and_check(P.parse_program(ACCEPTED[position]))
    assert failure is None, f"{position}: {failure}"
