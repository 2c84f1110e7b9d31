import os
import sys

# tiny matrices everywhere: BLAS threading only adds sync overhead (must be
# set before numpy first loads)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, os.path.dirname(__file__))  # for the shared oracles module

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from rmanet.data import generate_split, load  # noqa: E402
from rmanet.model import Model  # noqa: E402


@pytest.fixture(scope="session")
def tiny_dataset(tmp_path_factory):
    """Small train/test split shared by trainer and CLI tests."""
    root = tmp_path_factory.mktemp("tiny_data")
    generate_split(7, 24, 8, str(root), image_size=32, n_classes=3)
    return {
        "root": str(root),
        "train": load(str(root / "train")),
        "test": load(str(root / "test")),
    }


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def model_outputs(monkeypatch):
    """Every feature map ``Model.encode`` and every tensor ``Model.attend`` returns while the test runs."""
    outputs = {"encode": [], "attend": []}
    encode, attend = Model.encode, Model.attend

    def recording_encode(self, images):
        fmaps = encode(self, images)
        outputs["encode"].append(fmaps)
        return fmaps

    def recording_attend(self, fmaps):
        trace = attend(self, fmaps)
        outputs["attend"].extend(trace.score_tensors + trace.param_tensors + [trace.final_params]
                                 + [t for state in trace.states for t in (state.h, state.c)])
        return trace

    monkeypatch.setattr(Model, "encode", recording_encode)
    monkeypatch.setattr(Model, "attend", recording_attend)
    return outputs
