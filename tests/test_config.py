import pytest

from ricsolver import ConfigError, ModelParams
from ricsolver.cli import main
from ricsolver.config import (
    apply_sets,
    build_params,
    parse_config_text,
    resolve,
    resolved_items,
)

SAMPLE = """
# market block
sigma = 0.8
alpha = 7.0

gamma = 1.3   # trailing comment
Phi = 0.0
lambda = 2.0
"""


def test_parse_and_build():
    raw = parse_config_text(SAMPLE)
    params, fallbacks = build_params(raw)
    assert params.market.sigma == 0.8
    assert params.market.alpha == 7.0
    assert params.preference.gamma == 1.3
    assert params.insurance.lam == 2.0
    assert "r" in " ".join(fallbacks) or len(fallbacks) > 0  # unset keys noted


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("frobnicate = 1\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("sigma = 0.1\nsigma = 0.2\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("sigma 0.1\n")


def test_apply_sets_overrides_and_validates():
    raw = parse_config_text(SAMPLE)
    out = apply_sets(raw, ["sigma=0.9", "theta1=0.3"])
    assert out["sigma"] == "0.9"
    assert out["theta1"] == "0.3"
    with pytest.raises(ConfigError, match="unknown key"):
        apply_sets(raw, ["nope=1"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_sets(raw, ["sigma"])


def test_bad_number_reported():
    with pytest.raises(ConfigError, match="cannot parse"):
        build_params({"sigma": "fast"})


def test_phi_eis_is_an_unknown_key(tmp_path, capsys):
    # phi is derived from (gamma, Phi, rho1) or pinned to 1, never set
    path = tmp_path / "phi.cfg"
    path.write_text("phi_eis = 0.5\n")
    for argv in (["solve", "--set", "phi_eis=0.5"], ["solve", "--config", str(path)]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "unknown key 'phi_eis'" in err


def test_claim_family_parsing():
    params, _ = build_params(
        {"claim_family": "gamma", "claim_params": "4.0, 0.25"}
    )
    cd = params.insurance.claim_dist
    assert cd.mean() == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        build_params({"claim_params": "4.0, spam"})


def test_resolve_defaults_match_dataclass():
    params, _ = resolve(None, [])
    assert params == ModelParams()


def test_resolved_items_roundtrip():
    params, _ = resolve(None, ["sigma=0.812345678", "lambda=3.5"])
    items = dict(resolved_items(params))
    assert items["sigma"] == "0.812345678"
    assert items["lambda"] == "3.5"
    # order is stable run to run: keys sorted by the canonical listing
    keys1 = [k for k, _ in resolved_items(params)]
    keys2 = [k for k, _ in resolved_items(params)]
    assert keys1 == keys2


def test_resolve_reads_file(tmp_path):
    cfg = tmp_path / "model.cfg"
    cfg.write_text(SAMPLE)
    params, _ = resolve(str(cfg), ["gamma=1.4"])
    assert params.market.sigma == 0.8
    assert params.preference.gamma == 1.4  # --set wins over the file
