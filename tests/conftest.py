import sys
from pathlib import Path

import numpy as np
import pytest

from arcdesign import ContractionDesign, format_design
from arcdesign.reference import load_reference_design

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def ex1_contraction():
    return load_reference_design("contraction_12x8_k3")


@pytest.fixture(scope="session")
def ex1_augmented():
    return load_reference_design("augmented_12x8_k3")


@pytest.fixture(scope="session")
def ex2_contraction():
    return load_reference_design("contraction_24x16_k5")


@pytest.fixture(scope="session")
def ex2_augmented():
    return load_reference_design("augmented_24x16_k5")


@pytest.fixture(scope="session")
def latin3():
    return ContractionDesign.from_cells(np.array([[1, 2, 3], [2, 3, 1], [3, 1, 2]]), v=3)


@pytest.fixture(scope="session")
def malformed_files(ex1_contraction):
    """Design files that once made ``evaluate`` crash, by name."""
    lines = format_design(ex1_contraction).splitlines()

    def with_label_at_2_5(label):
        row = lines[2].split(",")
        row[4] = label
        return "\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n"

    return {
        "negative-label": with_label_at_2_5("-1"),
        "label-beyond-int64": with_label_at_2_5("99999999999999999999"),
        "augmented-k-beyond-v": "# augmented v=3 s=2 k=99999999999\n1,2\n3,4\n5,6\n",
    }
