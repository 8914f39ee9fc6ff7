import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degselect.evidence import EvidenceHint
from degselect.model_space import (
    CandidateModel,
    CandidateSet,
    Case,
    Family,
    Hierarchy,
    Trend,
    Uncertain,
    condition,
    default_case_sets,
    label_hierarchy,
    parse_label,
    structural_label,
)
from degselect.simulate import SimKind

CASE1, CASE2 = default_case_sets()


def by_id(cset, model_id):
    return next(m for m in cset if m.id == model_id)


def test_structural_label_family_and_trend():
    lw = by_id(CASE2, "linear_wiener")
    assert structural_label(lw, Hierarchy.FAMILY) is Family.WIENER
    assert structural_label(lw, Hierarchy.TREND) is Trend.LINEAR
    ng = by_id(CASE2, "nonhomog_gamma")
    assert structural_label(ng, Hierarchy.TREND) is Trend.NONLINEAR


# Every label with its hierarchy and the attribute of a model or hint that carries it.
LABELS = [
    (Hierarchy.FAMILY, Family.WIENER, "family"),
    (Hierarchy.FAMILY, Family.GAMMA, "family"),
    (Hierarchy.TREND, Trend.LINEAR, "trend"),
    (Hierarchy.TREND, Trend.NONLINEAR, "trend"),
]


def test_label_table_covers_every_label():
    assert {label for _, label, _ in LABELS} == set(Family) | set(Trend)


@pytest.mark.parametrize("h,label,attr", LABELS)
def test_label_vocabulary(h, label, attr):
    assert parse_label(h, label.value) is label
    assert label_hierarchy(label) is h
    models = [m for cset in default_case_sets() for m in cset if getattr(m, attr) is label]
    assert models and all(structural_label(m, h) is label for m in models)
    other = Hierarchy.TREND if h is Hierarchy.FAMILY else Hierarchy.FAMILY
    hint = EvidenceHint(**{attr: label})
    assert structural_label(hint, h) is label
    assert structural_label(hint, other) is None


def test_sim_kinds_are_the_case2_model_ids():
    assert {k.value for k in SimKind} == set(CASE2.ids())


def test_cases_own_their_sets_and_hierarchies():
    assert (Case.CASE1.candidates, Case.CASE2.candidates) == (CASE1, CASE2)
    assert Case.CASE1.candidates.hierarchies == (Hierarchy.FAMILY,)
    assert Case.CASE2.candidates.hierarchies == (Hierarchy.FAMILY, Hierarchy.TREND)


@pytest.mark.parametrize(
    "ids, hierarchies",
    [
        (CASE1.ids(), (Hierarchy.FAMILY,)),
        (CASE2.ids(), (Hierarchy.FAMILY, Hierarchy.TREND)),
        (("homog_gamma", "nonhomog_gamma"), (Hierarchy.TREND,)),
        (("linear_wiener", "homog_gamma"), (Hierarchy.FAMILY,)),
        (("linear_wiener", "nonhomog_gamma"), (Hierarchy.FAMILY, Hierarchy.TREND)),
    ]
    + [((mid,), ()) for mid in CASE1.ids() + CASE2.ids()],
)
def test_candidate_set_hierarchies_are_where_labels_differ(ids, hierarchies):
    models = {m.id: m for cset in (CASE1, CASE2) for m in cset}
    assert CandidateSet.of(models[mid] for mid in ids).hierarchies == hierarchies


def test_nonlinear_wiener_label_pair():
    nw = by_id(CASE2, "nonlinear_wiener")
    assert (nw.family, nw.trend) == (Family.WIENER, Trend.NONLINEAR)


@pytest.mark.parametrize(
    "h,label,expected",
    [
        (Hierarchy.FAMILY, Family.WIENER, ("linear_wiener", "nonlinear_wiener")),
        (Hierarchy.TREND, Trend.LINEAR, ("linear_wiener", "homog_gamma")),
        (Hierarchy.FAMILY, Family.GAMMA, ("homog_gamma", "nonhomog_gamma")),
    ],
)
def test_subspace_case2(h, label, expected):
    assert condition(CASE2, {h: label}).ids() == expected


def test_subspace_case1_single_model_per_family():
    assert condition(CASE1, {Hierarchy.FAMILY: Family.GAMMA}).ids() == ("gamma_family",)


def test_subspace_rejects_label_hierarchy_mismatch():
    with pytest.raises(ValueError):
        condition(CASE2, {Hierarchy.FAMILY: Trend.LINEAR})


def test_condition_both_confident():
    out = condition(
        CASE2, {Hierarchy.FAMILY: Family.WIENER, Hierarchy.TREND: Trend.LINEAR}
    )
    assert out.ids() == ("linear_wiener",)


def test_condition_one_uncertain():
    out = condition(
        CASE2,
        {
            Hierarchy.FAMILY: Family.WIENER,
            Hierarchy.TREND: Uncertain(Hierarchy.TREND),
        },
    )
    assert out.ids() == ("linear_wiener", "nonlinear_wiener")


def test_condition_all_uncertain_returns_full_set():
    out = condition(
        CASE2,
        {
            Hierarchy.FAMILY: Uncertain(Hierarchy.FAMILY),
            Hierarchy.TREND: Uncertain(Hierarchy.TREND),
        },
    )
    assert out.ids() == CASE2.ids()


FAMILY_CHOICES = [Family.WIENER, Family.GAMMA, Uncertain(Hierarchy.FAMILY)]
TREND_CHOICES = [Trend.LINEAR, Trend.NONLINEAR, Uncertain(Hierarchy.TREND)]


@pytest.mark.parametrize(
    "fd,td", list(itertools.product(FAMILY_CHOICES, TREND_CHOICES))
)
def test_condition_matches_brute_force_filter(fd, td):
    decisions = {Hierarchy.FAMILY: fd, Hierarchy.TREND: td}
    out = condition(CASE2, decisions)
    brute = [
        m
        for m in CASE2
        if (isinstance(fd, Uncertain) or m.family == fd)
        and (isinstance(td, Uncertain) or m.trend == td)
    ]
    assert list(out) == brute


def test_condition_monotone_in_confident_decisions():
    partial = condition(CASE2, {Hierarchy.FAMILY: Family.GAMMA})
    full = condition(
        CASE2, {Hierarchy.FAMILY: Family.GAMMA, Hierarchy.TREND: Trend.NONLINEAR}
    )
    assert set(full.ids()) <= set(partial.ids())


def test_condition_preserves_input_order():
    out = condition(CASE2, {Hierarchy.FAMILY: Uncertain(Hierarchy.FAMILY)})
    positions = [CASE2.ids().index(i) for i in out.ids()]
    assert positions == sorted(positions)


@given(
    fam=st.sampled_from([Family.WIENER, Family.GAMMA]),
    trend=st.sampled_from([Trend.LINEAR, Trend.NONLINEAR]),
)
def test_membership_iff_label_matches(fam, trend):
    for m in CASE2:
        fam_space = condition(CASE2, {Hierarchy.FAMILY: fam})
        assert (m in fam_space) == (m.family == fam)
        trend_space = condition(CASE2, {Hierarchy.TREND: trend})
        assert (m in trend_space) == (m.trend == trend)


def test_default_case_sizes():
    assert len(CASE1) == 2
    assert len(CASE2) == 4
    # Case 2 labels partition evenly.
    assert sum(m.family is Family.WIENER for m in CASE2) == 2
    assert sum(m.trend is Trend.LINEAR for m in CASE2) == 2


def test_default_case_sets_built_once_and_frozen():
    assert default_case_sets() is default_case_sets()
    assert [len(c) for c in default_case_sets()] == [2, 4]
    with pytest.raises(dataclasses.FrozenInstanceError):
        CASE2.models = ()
    with pytest.raises(dataclasses.FrozenInstanceError):
        CASE2.models[0].param_count = 5


def test_candidate_set_rejects_duplicates_and_empty():
    m = CandidateModel("a", Family.WIENER, Trend.LINEAR, 2)
    with pytest.raises(ValueError):
        CandidateSet.of([m, m])
    with pytest.raises(ValueError):
        CandidateSet.of([])


def test_param_count_lower_bound():
    with pytest.raises(ValueError):
        CandidateModel("a", Family.WIENER, Trend.LINEAR, 1)
