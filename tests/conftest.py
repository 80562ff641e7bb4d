import dataclasses
import sys

import pytest

from ricsolver import ModelParams


@pytest.fixture(scope="session")
def base_params() -> ModelParams:
    """Default calibration: gamma=1.2, Phi=0.8, sigma=0.2, alpha=5."""
    return ModelParams()


@pytest.fixture(scope="session")
def loglin_params() -> ModelParams:
    """Calibration of the log-linearization comparison: gamma=1.3,
    alpha=7, Phi=0, sigma=0.8."""
    base = ModelParams()
    return dataclasses.replace(
        base,
        market=dataclasses.replace(base.market, alpha=7.0, sigma=0.8),
        preference=dataclasses.replace(base.preference, gamma=1.3, Phi=0.0),
    )


@pytest.fixture
def quadrature_calls(monkeypatch) -> list:
    """The argument tuples of every adaptive_gauss call, counted at each
    package module that holds the function."""
    import ricsolver.quadrature as quadrature_mod

    calls, adaptive_gauss = [], quadrature_mod.adaptive_gauss

    def counting(*args, **kwargs):
        calls.append(args)
        return adaptive_gauss(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "adaptive_gauss", None)
        if name.startswith("ricsolver") and held is adaptive_gauss:
            monkeypatch.setattr(module, "adaptive_gauss", counting)
    return calls
