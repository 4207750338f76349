import pytest

from vrprox.config import ConfigError, parse_config

MINIMAL = """\
problem = quad:10:4:1.0
estimator = momentum_sarah
T = 100
seeds = 5
"""


def test_minimal_config_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem == "quad:10:4:1.0"
    assert cfg.estimator == "momentum_sarah"
    assert cfg.T == [100]
    assert cfg.seeds == 5
    assert cfg.psi == "zero"
    assert cfg.schedule == "auto"
    assert cfg.diagnostics is True
    assert cfg.problem_seed == 0


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\n" + MINIMAL + "\npsi = l1:0.5  # inline\n")
    assert cfg.psi == "l1:0.5"


def test_T_list_and_seed_list():
    cfg = parse_config(MINIMAL.replace("T = 100", "T = 100,1000,10000").replace(
        "seeds = 5", "seeds = 1,2,3"
    ))
    assert cfg.T == [100, 1000, 10000]
    assert cfg.seeds == [1, 2, 3]


def test_single_explicit_seed_with_trailing_comma():
    cfg = parse_config(MINIMAL.replace("seeds = 5", "seeds = 7,"))
    assert cfg.seeds == [7]


def test_unknown_key_names_line():
    with pytest.raises(ConfigError, match=r"line 5.*turbo"):
        parse_config(MINIMAL + "turbo = on\n")


def test_unknown_estimator_lists_kinds():
    bad = MINIMAL.replace("estimator = momentum_sarah", "estimator = warp_drive")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    msg = str(err.value)
    assert "line 2" in msg and "warp_drive" in msg
    for kind in ("momentum_sarah", "hybrid_sarah", "sarah", "sgd"):
        assert kind in msg


def test_manual_schedule_requires_all_three():
    with pytest.raises(ConfigError, match="manual schedule requires eta, beta, b_tilde"):
        parse_config(MINIMAL + "schedule = manual\neta = 0.1\n")
    cfg = parse_config(MINIMAL + "schedule = manual\neta = 0.1\nbeta = 0.5\nb_tilde = 2\n")
    assert (cfg.eta, cfg.beta, cfg.b_tilde) == (0.1, 0.5, 2)


def test_manual_keys_rejected_under_auto():
    with pytest.raises(ConfigError, match="only valid with schedule = manual"):
        parse_config(MINIMAL + "eta = 0.1\n")


def test_missing_required_key():
    text = "\n".join(line for line in MINIMAL.splitlines() if not line.startswith("seeds"))
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(text)


def test_malformed_values_name_key_and_line():
    with pytest.raises(ConfigError, match=r"line 3.*'T'"):
        parse_config(MINIMAL.replace("T = 100", "T = ten"))
    with pytest.raises(ConfigError, match=r"line 1"):
        parse_config(MINIMAL.replace("problem = quad:10:4:1.0", "problem = quad:10:4"))
    with pytest.raises(ConfigError, match="diagnostics"):
        parse_config(MINIMAL + "diagnostics = maybe\n")
    with pytest.raises(ConfigError, match=r"line 1"):
        parse_config("just some words\n" + MINIMAL)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="already set"):
        parse_config(MINIMAL + "T = 50\n")


def test_bad_psi_key_reports_line():
    with pytest.raises(ConfigError, match=r"line 5"):
        parse_config(MINIMAL + "psi = l3:1.0\n")


def test_manual_initial_batch_cannot_exceed_components():
    manual = MINIMAL + "schedule = manual\neta = 0.1\nbeta = 0.5\n"
    assert parse_config(manual + "b_tilde = 10\n").b_tilde == 10  # n = 10
    with pytest.raises(ConfigError, match=r"b_tilde = 11 exceeds the 10 components"):
        parse_config(manual + "b_tilde = 11\n")


def test_manual_eta_must_be_finite():
    manual = MINIMAL + "schedule = manual\nbeta = 0.5\nb_tilde = 1\n"
    for eta in ("inf", "nan", "0", "-1"):
        with pytest.raises(ConfigError, match="eta"):
            parse_config(manual + f"eta = {eta}\n")
