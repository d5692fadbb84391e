"""Shared fixtures: the worked gallstone example and small hand-built nets."""

from __future__ import annotations

import pytest

from bayesqa.model import make_network
from bayesqa.problog import parse, problog_to_bn

# The gallstone/flatulence/amylase worked example, whose solver output is
# amylase(patient,'500-1400'):  0.011316399. Several suites treat this text
# and the constants derived from it as frozen reference values.
GALLSTONE_TEXT = """\
0.1531::gallstones(patient).

0.3925::flatulence(patient) :- gallstones(patient).

0.4307::flatulence(patient) :- not gallstones(patient).

0.9346::amylase(patient, '0-299'); 0.0467::amylase(patient, '300-499'); 0.0187::amylase(patient, '500-1400') :- gallstones(patient).

0.9730::amylase(patient, '0-299'); 0.0169::amylase(patient, '300-499'); 0.0101::amylase(patient, '500-1400') :- not gallstones(patient).

evidence(flatulence(patient), true).

query(amylase(patient, '500-1400')).
"""

GALLSTONE_ANSWER = 0.011316399030456706

# 13 three-way annotated disjunctions: 3**13 = 1594323 possible worlds, over
# the 2**20 enumeration budget with only 13 choice points
WIDE_PROGRAM_TEXT = "".join(
    f"0.333333::a{i}(e,x); 0.333333::a{i}(e,y); 0.333334::a{i}(e,z).\n" for i in range(13)
) + "query(a0(e,x)).\n"

# chain-rule terms behind the answer: per-cause joints, their sum, and the
# evidence marginal (all as the float arithmetic of the engines produces them)
GALLSTONE_JOINT_WITH_CAUSE = 0.001123715725
GALLSTONE_JOINT_WITHOUT_CAUSE = 0.003684074283
GALLSTONE_NUMERATOR = 0.004807790008
GALLSTONE_EVIDENCE_MARGINAL = 0.42485158


@pytest.fixture(scope="session")
def gallstone_program():
    return parse(GALLSTONE_TEXT)


@pytest.fixture(scope="session")
def gallstone_net(gallstone_program):
    return problog_to_bn(gallstone_program, name="gallstone")


@pytest.fixture()
def sprinkler_net():
    """The textbook v-structure: rain -> grass_wet <- sprinkler."""

    return make_network(
        "sprinkler",
        {
            "rain": (("yes", "no"), (), {(): (0.2, 0.8)}),
            "sprinkler": (("on", "off"), (), {(): (0.1, 0.9)}),
            "grass_wet": (
                ("yes", "no"),
                ("rain", "sprinkler"),
                {
                    ("yes", "on"): (0.99, 0.01),
                    ("yes", "off"): (0.8, 0.2),
                    ("no", "on"): (0.9, 0.1),
                    ("no", "off"): (0.05, 0.95),
                },
            ),
        },
        entity="garden",
    )


@pytest.fixture()
def unsorted_parents_net():
    """``xY`` lists its parents out of sorted order: ``("b_2", "a")``."""

    return make_network(
        "order",
        {
            "a": (("true", "false"), (), {(): (0.3, 0.7)}),
            "b_2": (("true", "false"), (), {(): (0.6, 0.4)}),
            "xY": (("true", "false"), ("b_2", "a"), {
                ("true", "true"): (0.1, 0.9), ("true", "false"): (0.2, 0.8),
                ("false", "true"): (0.3, 0.7), ("false", "false"): (0.4, 0.6),
            }),
        },
        entity="e",
    )


@pytest.fixture()
def collide_net():
    """Binary ``x`` and its child ``not_x``: the indicator for x = false
    cannot be named ``not_x``."""

    return make_network(
        "collide",
        {
            "x": (("true", "false"), (), {(): (0.3, 0.7)}),
            "not_x": (("true", "false"), ("x",), {("true",): (0.2, 0.8), ("false",): (0.6, 0.4)}),
        },
    )


def three_state_chain(n: int):
    """``v0 -> v1 -> ... -> v{n-1}``, each with states s0..s2: 3**n joint
    states, so 14 variables pass the enumeration sweep's 2**20 bound."""

    states = ("s0", "s1", "s2")
    row = (0.2, 0.3, 0.5)
    tables = {"v0": (states, (), {(): row})}
    for i in range(1, n):
        tables[f"v{i}"] = (states, (f"v{i - 1}",), {(s,): row for s in states})
    return make_network("chain3", tables)
