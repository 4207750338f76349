import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrprox.config import MAX_SEED_COUNT, ConfigError, ExperimentConfig, parse_config
from vrprox.estimators import KINDS
from vrprox.optimizer import MAX_HORIZON

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


def test_output_dir_is_not_a_key():
    # The output directory comes from --output only.
    with pytest.raises(ConfigError, match=r"line 5: unknown key 'output_dir'"):
        parse_config(MINIMAL + "output_dir = runs\n")


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


def test_psi_must_be_finite_at_the_origin():
    # Every run starts at x0 = 0, which a box must contain; on a face counts.
    for psi in ("box:0.5:1", "box:-2:-0.1"):
        with pytest.raises(ConfigError, match=r"line 5: key 'psi'.*x0 = 0"):
            parse_config(MINIMAL + f"psi = {psi}\n")
    for psi in ("box:0:1", "box:-1:0", "box:0:0"):
        assert parse_config(MINIMAL + f"psi = {psi}\n").psi == psi


@pytest.mark.parametrize("spread", ["nan", "inf"])
def test_quad_spread_must_be_finite(spread):
    with pytest.raises(ConfigError, match=r"line 1: bad problem key.*positive and finite"):
        parse_config(MINIMAL.replace("quad:10:4:1.0", f"quad:10:4:{spread}"))


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


def test_manual_beta_must_lie_in_the_unit_interval():
    manual = MINIMAL + "schedule = manual\neta = 0.1\nb_tilde = 1\n"
    for beta in ("nan", "-0.1", "1.5"):
        with pytest.raises(ConfigError, match="beta"):
            parse_config(manual + f"beta = {beta}\n")


def test_repeated_seed_rejected():
    for seeds in ("3,3", "1,2,1", "4, 4,"):
        with pytest.raises(ConfigError, match=r"line 4: key 'seeds' repeats"):
            parse_config(MINIMAL.replace("seeds = 5", f"seeds = {seeds}"))


def test_repeated_horizon_rejected():
    with pytest.raises(ConfigError, match=r"line 3: key 'T' repeats 25"):
        parse_config(MINIMAL.replace("T = 100", "T = 25,25"))
    with pytest.raises(ConfigError, match=r"repeats 10, 30"):
        parse_config(MINIMAL.replace("T = 100", "T = 30,10,30,20,10"))


def test_horizon_above_the_maximum_rejected():
    for T in (2**53, 10**400):
        with pytest.raises(ConfigError, match=rf"line 3: key 'T' must be <= {MAX_HORIZON}"):
            parse_config(MINIMAL.replace("T = 100", f"T = 100,{T}"))
    assert parse_config(MINIMAL.replace("T = 100", f"T = {MAX_HORIZON}")).T == [MAX_HORIZON]


def test_seed_count_above_the_maximum_rejected():
    # Only counts above the maximum: parsing refuses them, so nothing is drawn.
    for count in (MAX_SEED_COUNT + 1, 99999999999999999999):
        with pytest.raises(ConfigError, match=rf"line 4: key 'seeds' must be <= {MAX_SEED_COUNT}"):
            parse_config(MINIMAL.replace("seeds = 5", f"seeds = {count}"))


_PROBLEM_FORMS = "expected quad:<n>:<p>:<spread> | sigmoid:<n>:<p> | robust:<n>:<p>"
_PSI_FORMS = "expected zero | l1:<lam> | box:<lo>:<hi> | enet:<l1>:<l2>"
_KINDS = "momentum_sarah, hybrid_sarah, sarah, sgd"
_MANUAL = MINIMAL + "schedule = manual\n"

# (config text, the full ConfigError message it ends in)
REFUSALS = [
    # The line grammar.
    ("just some words\n" + MINIMAL, "line 1: expected key = value, got 'just some words'"),
    (MINIMAL + "= 3  # no key\n", "line 5: unknown key ''"),
    (MINIMAL + "turbo = on\n", "line 5: unknown key 'turbo'"),
    (MINIMAL + "\n# note\nT = 50\n", "line 7: key 'T' already set on line 3"),
    (MINIMAL + "psi =   # none\n", "line 5: key 'psi' has no value"),
    (MINIMAL.replace("seeds = 5", "seeds ="), "line 4: key 'seeds' has no value"),
    # Each key's bad values.
    (MINIMAL.replace("quad:10:4:1.0", "quad:10:4"),
     f"line 1: bad problem key 'quad:10:4' (unrecognized form); {_PROBLEM_FORMS}"),
    (MINIMAL.replace("quad:10:4:1.0", "quad:0:4:1.0"),
     f"line 1: bad problem key 'quad:0:4:1.0' (n must be an integer >= 1, got 0); "
     f"{_PROBLEM_FORMS}"),
    (MINIMAL.replace("momentum_sarah", "warp_drive"),
     f"line 2: unknown estimator 'warp_drive'; valid kinds: {_KINDS}"),
    (MINIMAL.replace("T = 100", "T = ten"), "line 3: key 'T' needs an integer, got 'ten'"),
    (MINIMAL.replace("T = 100", "T = 5,1.5"), "line 3: key 'T' needs an integer, got '1.5'"),
    (MINIMAL.replace("T = 100", "T = 0"), "line 3: key 'T' must be >= 1, got 0"),
    (MINIMAL.replace("T = 100", "T = 9007199254740992"),
     "line 3: key 'T' must be <= 9007199254740991, got 9007199254740992"),
    (MINIMAL.replace("T = 100", "T = , ,"), "line 3: key 'T' has no value"),
    (MINIMAL.replace("T = 100", "T = 30,10,30,20,10"), "line 3: key 'T' repeats 10, 30"),
    (MINIMAL.replace("seeds = 5", "seeds = five"),
     "line 4: key 'seeds' needs an integer, got 'five'"),
    (MINIMAL.replace("seeds = 5", "seeds = 0"), "line 4: key 'seeds' must be >= 1, got 0"),
    (MINIMAL.replace("seeds = 5", "seeds = 10001"),
     "line 4: key 'seeds' must be <= 10000, got 10001"),
    (MINIMAL.replace("seeds = 5", "seeds = 1,x"), "line 4: key 'seeds' needs an integer, got 'x'"),
    (MINIMAL.replace("seeds = 5", "seeds = -1,2"), "line 4: key 'seeds' must be >= 0, got -1"),
    (MINIMAL.replace("seeds = 5", "seeds = ,"), "line 4: key 'seeds' has no value"),
    (MINIMAL.replace("seeds = 5", "seeds = 3,3"), "line 4: key 'seeds' repeats 3"),
    (MINIMAL + "problem_seed = 1e3\n", "line 5: key 'problem_seed' needs an integer, got '1e3'"),
    (MINIMAL + "problem_seed = -1\n", "line 5: key 'problem_seed' must be >= 0, got -1"),
    (MINIMAL + "psi = l3:1.0\n", f"line 5: bad regularizer key 'l3:1.0'; {_PSI_FORMS}"),
    (MINIMAL + "psi = l1:x\n",
     "line 5: bad regularizer key 'l1:x': could not convert string to float: 'x'"),
    (MINIMAL + "psi = l1:-1\n",
     "line 5: bad regularizer key 'l1:-1': L1 weight lam must be finite and >= 0, got -1.0"),
    (MINIMAL + "psi = box:0.5:1\n",
     "line 5: key 'psi' = 'box:0.5:1' is infinite at the start point x0 = 0"),
    (MINIMAL + "schedule = fast\n", "line 5: schedule must be auto or manual, got 'fast'"),
    (MINIMAL + "eta = big\n", "line 5: key 'eta' needs a number, got 'big'"),
    (MINIMAL + "beta = half\n", "line 5: key 'beta' needs a number, got 'half'"),
    (MINIMAL + "b_tilde = two\n", "line 5: key 'b_tilde' needs an integer, got 'two'"),
    (MINIMAL + "b_tilde = 0\n", "line 5: key 'b_tilde' must be >= 1, got 0"),
    (MINIMAL + "diagnostics = maybe\n", "line 5: diagnostics must be on or off, got 'maybe'"),
    # Whole-document rules.
    (MINIMAL.replace("seeds = 5", ""), "missing required key 'seeds'"),
    (MINIMAL + "eta = 0.1\n", "key 'eta' is only valid with schedule = manual"),
    (MINIMAL + "schedule = auto\nb_tilde = 2\n", "key 'b_tilde' is only valid with schedule = manual"),
    (_MANUAL + "eta = 0.1\nbeta = 0.5\n", "manual schedule requires eta, beta, b_tilde"),
    (_MANUAL + "eta = 0\nbeta = 0.5\nb_tilde = 1\n", "eta must be a positive finite scalar, got 0.0"),
    (_MANUAL + "eta = nan\nbeta = 0.5\nb_tilde = 1\n",
     "eta must be a positive finite scalar, got nan"),
    (_MANUAL + "eta = 0.1\nbeta = 2\nb_tilde = 1\n", "beta must lie in [0, 1], got 2.0"),
    (_MANUAL + "eta = 0.1\nbeta = 0.5\nb_tilde = 11\n",
     "b_tilde = 11 exceeds the 10 components of problem 'quad:10:4:1.0'"),
]


@pytest.mark.parametrize("text, message", REFUSALS, ids=[message for _, message in REFUSALS])
def test_refusal_messages_are_exact(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


# Valid and boundary values of every key, then junk ones, for the grammar fuzzer.
FUZZ_VALID = {
    "problem": ["quad:10:4:1.0", "sigmoid:6:2", "robust:3:1", "quad:1:1:1e-300"],
    "estimator": list(KINDS),
    "T": ["1", "100", "1,2,3", "7,", str(MAX_HORIZON)],
    "seeds": ["1", str(MAX_SEED_COUNT), "7,", "0,1", "+4", "1_0"],
    "problem_seed": ["0", "18446744073709551616"],
    "psi": ["zero", "l1:0.5", "box:0:1", "box:0:0", "box:-1:0", "enet:1:1"],
    "schedule": ["auto", "manual"],
    "eta": ["0.1", "1e-320", "1e300"],
    "beta": ["0", "1", "0.5", "-0.0"],
    "b_tilde": ["1", "10"],
    "diagnostics": ["on", "off"],
}
FUZZ_JUNK = {
    "problem": ["quad:10:4", "quad:0:4:1", "quad:2:2:inf", "sigmoid:-1:2", "robust:2:1:3",
                "quad:99999999999999999999:2:1"],
    "estimator": ["warp_drive", "SGD"],
    "T": [str(MAX_HORIZON + 1), "0", "5,5", ",", "1.5", "10**3", "-3"],
    "seeds": [str(MAX_SEED_COUNT + 1), "0", "3,3", "-1,2", ",", "99999999999999999999"],
    "problem_seed": ["-1", "x"],
    "psi": ["box:1:2", "box:-inf:inf", "box:nan:1", "l1:inf", "l1:-1", "l3:1", "box:1", "zero:1"],
    "schedule": ["Manual"],
    "eta": ["0", "-1", "inf", "nan", "1e400", "x"],
    "beta": ["1.0000001", "nan", "x"],
    "b_tilde": ["11", "0", "99999999999999999999", "x"],
    "diagnostics": ["yes"],
}
_pad = st.sampled_from(["", " ", "\t"])


def _key_line(key, values):
    comment = st.sampled_from(["", "  # note", "#", " # a = b"])
    return st.tuples(_pad, st.just(key), _pad, st.just("="), _pad, values, comment).map("".join)


_LINES = {key: _key_line(key, st.sampled_from(valid)) for key, valid in FUZZ_VALID.items()}
# One key with a junk value in place of its valid one.
_JUNK_KEY = st.sampled_from(list(FUZZ_JUNK)).flatmap(lambda key: st.tuples(
    st.just(key), _key_line(key, st.sampled_from(FUZZ_JUNK[key]) | st.text(max_size=6))))
# A junk line or a repeated key.
_EXTRA_LINE = (
    st.sampled_from(["", "   ", "# only a comment", "=", "no equals sign", "turbo = on",
                     "T T = 1", "Problem = quad:1:1:1"])
    | st.text(max_size=12)
    | st.one_of(list(_LINES.values()))
)
_REQUIRED = ("problem", "estimator", "T", "seeds")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    keyed=st.fixed_dictionaries({k: _LINES[k] for k in _REQUIRED},
                                optional={k: v for k, v in _LINES.items() if k not in _REQUIRED})
    | st.fixed_dictionaries({}, optional=_LINES),
    junk=st.none() | _JUNK_KEY,
    extra=st.lists(_EXTRA_LINE, max_size=2),
    rnd=st.randoms(use_true_random=False),
)
def test_any_config_text_parses_or_is_a_config_error(keyed, junk, extra, rnd):
    if junk:
        keyed[junk[0]] = junk[1]
    lines = list(keyed.values()) + extra
    rnd.shuffle(lines)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config("\n".join(lines))
        except ConfigError:
            return
    assert isinstance(cfg, ExperimentConfig)
