import os
import random
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from obscon import parse_graph
from obscon.fixtures import FIXTURE_GRAPHS

from oracles import sparse_dag

# the worked seven-variable district example: three districts with
# c-degrees 1, 1 and 2
SEVEN_VAR = """\
var A 2
var B 2
var C 2
var D 2
var E 2
var F 2
var G 2
latent U1
latent U2
latent U3
edge A B
edge E C
edge C D
edge D F
edge A E
edge B C
edge G F
edge U1 B
edge U1 D
edge U2 A
edge U2 E
edge U2 C
edge U3 F
edge U3 D
"""

# equivalent family: latent over {Z,X} plus latent over {X,Y}; adding Z->X
# (center) and splitting the first latent (right) preserve the constraints
IV_FAMILY_LEFT = """\
var Z 2
var X 2
var Y 2
latent U1
latent U2
edge X Y
edge U1 Z
edge U1 X
edge U2 X
edge U2 Y
"""

IV_FAMILY_CENTER = """\
var Z 2
var X 2
var Y 2
latent U1
latent U2
edge Z X
edge X Y
edge U1 Z
edge U1 X
edge U2 X
edge U2 Y
"""

# five observed variables, two overlapping latents; the shared pair {V1,V2}
# splits off onto its own latent
FACE_SPLIT_EXAMPLE = """\
var V1 2
var V2 2
var V3 2
var V4 2
var V5 2
latent U1
latent U2
edge V3 V1
edge V4 V1
edge V5 V1
edge V3 V2
edge V4 V2
edge V5 V2
edge U1 V1
edge U1 V2
edge U1 V3
edge U1 V4
edge U2 V1
edge U2 V2
edge U2 V4
edge U2 V5
"""


# Bell scenarios: two parties with inputs X, Y and outcomes A, B sharing one
# latent; CHSH has binary inputs, I3322 ternary ones
BELL_CHSH = """\
var X 2
var Y 2
var A 2
var B 2
latent U
edge X A
edge Y B
edge U A
edge U B
"""

BELL_I3322 = BELL_CHSH.replace("var X 2", "var X 3").replace("var Y 2", "var Y 3")


def pytest_addoption(parser):
    parser.addoption(
        "--run-long",
        action="store_true",
        default=False,
        help="run the long tests (criterion 8 on the Bell scenario, 10-15 s, and its "
             "plain DD, 15-25 s, on 2 cores)",
    )


def pytest_configure(config):
    config.addinivalue_line("markers", "long: long-running acceptance test")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-long"):
        return
    skip = pytest.mark.skip(reason="long test; pass --run-long")
    for item in items:
        if "long" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def graphs():
    parsed = {name: parse_graph(text) for name, text in FIXTURE_GRAPHS.items()}
    parsed["seven_var"] = parse_graph(SEVEN_VAR)
    parsed["iv_family_left"] = parse_graph(IV_FAMILY_LEFT)
    parsed["iv_family_center"] = parse_graph(IV_FAMILY_CENTER)
    parsed["face_split_example"] = parse_graph(FACE_SPLIT_EXAMPLE)
    return parsed


@pytest.fixture(scope="session")
def sparse18():
    """An 18-variable sparse DAG that an all-subsets CI search cannot finish."""
    return sparse_dag(random.Random(2))
