"""Config ingestion, CSV emission, exit codes, determinism."""

from __future__ import annotations

import csv
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import sublexp.cli as cli
import sublexp.conditions as cond
import sublexp.engine as eng
import sublexp.experiments as exp
import sublexp.mdep as mdep
from sublexp.errors import ValidationError
from sublexp.laws import bernoulli_pm1

SMALL_CONFIG = {
    "name": "tiny",
    "mode": "clt_sweep",
    "model": {
        "kind": "moving_window",
        "weights": [1.0, 1.0],
        "scaling": "none",
        "innovation": [
            {"values": [-1.0, 0.0, 1.0], "probs": [0.245, 0.51, 0.245]},
            {"values": [-1.0, 0.0, 1.0], "probs": [0.5, 0.0, 0.5]},
        ],
    },
    "n_list": [4, 8],
    "functionals": ["cos", "ramp@0"],
    "gnormal": {"nx": 201, "half_width": 8.0},
}


def write_config(tmp_path: Path, raw: dict) -> Path:
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(raw))
    return path


# ---------------------------------------------------------------------------
# Config loading and validation
# ---------------------------------------------------------------------------


def test_load_small_config(tmp_path):
    cfg = exp.load_config(write_config(tmp_path, SMALL_CONFIG))
    assert cfg.name == "tiny"
    assert cfg.n_list == (4, 8)
    model = cfg.model_for(4)
    assert model.n == 4 and model.weights == (1.0, 1.0) and len(model.sets) == 5


def test_malformed_probs_rejected(tmp_path):
    bad = {
        "mode": "eval",
        "model": {"kind": "independent",
                  "laws": [{"values": [-1.0, 1.0], "probs": [0.4, 0.5]}]},
    }
    with pytest.raises(ValidationError):
        exp.load_config(write_config(tmp_path, bad))


def test_unknown_keys_rejected(tmp_path):
    raw = dict(SMALL_CONFIG)
    raw["typo_section"] = {}
    with pytest.raises(ValidationError):
        exp.load_config(write_config(tmp_path, raw))


def test_unsorted_n_list_rejected(tmp_path):
    raw = dict(SMALL_CONFIG)
    raw["n_list"] = [8, 4]
    with pytest.raises(ValidationError):
        exp.load_config(write_config(tmp_path, raw))


def test_integral_float_keys_read_as_int():
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "n_list": [4.0, 8], "peng_n": [16.0],
                                   "gnormal": {"nx": 201.0}})
    assert cfg.n_list == (4, 8) and cfg.peng_n == (16,) and cfg.gnormal.nx == 201
    assert all(type(v) is int for v in (*cfg.n_list, *cfg.peng_n, cfg.gnormal.nx))


def test_exponent_without_decimal_point_error_says_how_to_write_it(tmp_path):
    # PyYAML reads an unquoted 1e-3 as the string '1e-3'
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(SMALL_CONFIG) + "blocking: {tol: 1e-3}\n")
    with pytest.raises(ValidationError, match=r"1\.0e-3, not 1e-3"):
        exp.load_config(path)
    path.write_text(yaml.safe_dump(SMALL_CONFIG) + "blocking: {tol: 1.0e-3}\n")
    assert exp.load_config(path).blocking.tol == 0.001


def test_not_yaml_rejected(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("mode: [unclosed")
    with pytest.raises(ValidationError):
        exp.load_config(path)


def test_reference_experiments_ship_four():
    refs = exp.reference_experiments()
    assert set(refs) == {
        "stationary-1dep", "iid-peng", "mean-uncertain-fail", "truncated-heavy"
    }
    for cfg in refs.values():
        assert cfg.model_for(cfg.n_list[0]).n == cfg.n_list[0]


def test_builder_models_match_documented_moments():
    model = exp.reference_experiments()["stationary-1dep"].model_for(12)
    B, b = cond.row_context(model, 12).Bn
    assert B * B == pytest.approx(4 * 12 - 2, abs=1e-9)
    assert (b * b) / (B * B) == pytest.approx(0.49, abs=1e-9)


# ---------------------------------------------------------------------------
# Runners and CSV schemas
# ---------------------------------------------------------------------------


def _read(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_eval_mode_schema(tmp_path):
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "mode": "eval"})
    paths = cli.run(cfg, tmp_path, mode="eval")
    rows = _read(paths[0])
    assert list(rows[0]) == list(cli.EVAL_HEADER)
    assert {r["n"] for r in rows} == {"4", "8"}
    for r in rows:
        assert float(r["lower"]) <= float(r["upper"]) + 1e-12
        assert float(r["b_n"]) <= float(r["B_n"]) + 1e-12


def test_clt_sweep_rows(tmp_path):
    cfg = exp.config_from_mapping(SMALL_CONFIG)
    paths = cli.run(cfg, tmp_path)
    rows = _read(paths[0])
    assert list(rows[0]) == list(cli.SWEEP_HEADER)
    for r in rows:
        assert float(r["abs_err_upper"]) == pytest.approx(
            abs(float(r["upper"]) - float(r["gnormal_upper"])), abs=1e-9
        )
        assert float(r["lower"]) <= float(r["upper"]) + 1e-12
        assert float(r["b_n"]) <= float(r["B_n"]) + 1e-12
        assert r["mean_unc_flag"] == "0"
    assert float(rows[0]["r"]) == pytest.approx(0.49, abs=1e-9)


def test_negative_control_is_flagged(tmp_path):
    cfg = exp.reference_experiments()["mean-uncertain-fail"]
    paths = cli.run(cfg, tmp_path)
    rows = [r for r in _read(paths[0]) if r["n"] == "32"]
    assert rows and all(r["mean_unc_flag"] == "1" for r in rows)


def test_blocking_inspect_outputs(tmp_path):
    raw = {**SMALL_CONFIG, "mode": "blocking_inspect", "blocking": {"pn_list": [2, 2]}}
    cfg = exp.config_from_mapping(raw)
    paths = cli.run(cfg, tmp_path)
    names = {p.name for p in paths}
    assert names == {"tiny_blocking.csv", "tiny_blocking_plan.csv"}
    diag = _read([p for p in paths if p.name.endswith("_blocking.csv")][0])
    for r in diag:
        assert float(r["removed_mass"]) <= float(r["sum_beta_cuts"]) + 1e-9


def test_conditions_outputs_trends(tmp_path):
    raw = {**SMALL_CONFIG, "mode": "conditions",
           "conditions": {"eps": [0.25], "p": [2.0], "tau": 1.5}}
    cfg = exp.config_from_mapping(raw)
    paths = cli.run(cfg, tmp_path)
    rows = _read([p for p in paths if p.name.endswith("_conditions.csv")][0])
    quantities = {r["quantity"] for r in rows}
    assert {"lindeberg", "mean_unc", "m2_ratio", "var_ratio", "pth",
            "cap_tail", "trunc_mean_unc"} <= quantities
    trends = _read([p for p in paths if p.name.endswith("_condition_trends.csv")][0])
    assert list(trends[0]) == list(cli.TRENDS_HEADER)


def test_gnormal_eval_table(tmp_path):
    # equal variances: the classical N(0, 1), where quadrature is valid for cos too;
    # unequal ones: cos is neither convex nor concave, so it has no quadrature value
    for sigma_lo2, cos_ref in ((1.0, f"{math.exp(-0.5):.12g}"), (0.5, "nan")):
        raw = {**SMALL_CONFIG, "mode": "gnormal_eval", "functionals": ["square", "cos"],
               "gnormal": {"sigma_lo2": sigma_lo2, "sigma_hi2": 1.0, "nx": 401},
               "peng_n": [4, 8]}
        cfg = exp.config_from_mapping(raw)
        rows = _read(cli.run(cfg, tmp_path / str(sigma_lo2))[0])
        sq = next(r for r in rows if r["functional"] == "square")
        assert float(sq["pde_upper"]) == pytest.approx(1.0, abs=2e-3)
        assert float(sq["quad_ref"]) == pytest.approx(1.0, abs=1e-6)
        cos_row = next(r for r in rows if r["functional"] == "cos")
        assert cos_row["quad_ref"] == cos_ref


def test_a_negative_zero_is_written_as_0(tmp_path):
    # the lower value is minus the upper value of -f, which is +0.0 here: -0.0
    cfg = exp.config_from_mapping({"name": "neg0", "mode": "gnormal_eval",
                                   "model": {"builder": "iid-peng"}, "functionals": ["ramp@0.5"],
                                   "gnormal": {"sigma_lo2": 0.0, "nx": 41}})
    (row,) = _read(cli.run(cfg, tmp_path)[0])
    assert row["pde_lower"] == "0"
    assert "-0" not in row.values()
    assert cli._fmt(-0.0) == cli._fmt(0.0) == "0" and cli._fmt(-0.5) == "-0.5"


# ---------------------------------------------------------------------------
# main(): exit codes and determinism
# ---------------------------------------------------------------------------


def test_main_success_and_determinism(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {**SMALL_CONFIG, "n_list": [4]})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["clt-sweep", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["clt-sweep", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "tiny_clt_sweep.csv").read_bytes()
    b2 = (out2 / "tiny_clt_sweep.csv").read_bytes()
    assert b1 == b2


def test_main_validation_error_exit_1_no_files(tmp_path):
    bad = {
        "mode": "eval",
        "model": {"kind": "independent",
                  "laws": [{"values": [-1.0, 1.0], "probs": [0.4, 0.5]}]},
    }
    cfg_path = write_config(tmp_path, bad)
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("override", [
    {"gnormal": {"sigma_lo": 0.5}},
    {"conditions": {"taus": 1}},
    {"blocking": {"pn": [2]}},
    {"model": {**SMALL_CONFIG["model"], "weight": [1.0, 1.0]}},
    {"gnormal": 5},
    {"conditions": [1.0]},
    {"n_list": [8, "x"]},
    {"n_list": 8},
    {"gnormal": {"nx": "fine"}},
    {"model": {**SMALL_CONFIG["model"], "weights": [1.0, None]}},
    {"n_list": [4.9, 8.2]},
    {"n_list": "48"},
    {"peng_n": [2.5]},
    {"gnormal": {"nx": 801.7}},
    {"n_list": [True, 8]},
    {"functionals": "cos"},
    {"gnormal": {"sigma_hi2": True}},
    {"mean_unc_flag": False},
    {"conditions": {"eps": ["0.1"]}},
    {"name": 5},
    {"model": {**SMALL_CONFIG["model"], "innovation": [
        {"values": "101", "probs": [0.5, 0.0, 0.5]}]}},
    {"gnormal": {"nx": 201, "time": 10**400}},
    {"blocking": {"tol": "1e-3"}},
    {"peng_n": [0, 8]},
    {"conditions": {"M": [2, 5]}},
    {"blocking": {"pn_list": [2, 3]}},
], ids=["gnormal-typo", "conditions-typo", "blocking-typo", "model-typo", "gnormal-scalar",
        "conditions-list", "n_list-entry", "n_list-scalar", "nx-string", "weights-null",
        "n_list-fraction", "n_list-string", "peng_n-fraction", "nx-fraction", "n_list-bool",
        "functionals-string", "sigma_hi2-bool", "mean_unc_flag-bool", "eps-string",
        "name-int", "values-string", "time-overflow", "tol-exponent-string",
        "peng_n-zero", "M-beyond-n", "pn_list-odd"])
def test_main_bad_config_section_exit_1_no_files(tmp_path, capsys, override):
    # unknown keys and malformed values are config errors, not silent defaults
    cfg_path = write_config(tmp_path, {**SMALL_CONFIG, **override})
    out = tmp_path / "out"
    assert cli.main(["clt-sweep", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


LAWS = SMALL_CONFIG["model"]["innovation"]


@pytest.mark.parametrize("model, key", [
    ({**SMALL_CONFIG["model"], "kind": "movingwindow"}, "kind"),
    ({"kind": "independent", "weights": [1.0, 1.0], "laws": LAWS}, "weights"),
    ({"kind": "independent", "innovation": LAWS}, "innovation"),
    ({**SMALL_CONFIG["model"], "laws": LAWS}, "innovation"),
    ({"builder": "iid-peng", "scaling": "inv_sqrt_n"}, "scaling"),
    ({"builder": "stationary-1dep", "kind": "moving_window"}, "kind"),
], ids=["kind-typo", "independent-weights", "independent-innovation", "laws-and-innovation",
        "builder-scaling", "builder-kind"])
def test_a_model_key_that_would_be_ignored_exits_1_naming_it(tmp_path, capsys, model, key):
    cfg_path = write_config(tmp_path, {**SMALL_CONFIG, "mode": "eval", "model": model})
    out = tmp_path / "out"
    assert cli.main(["eval", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"'{key}'" in err
    assert not out.exists()


@pytest.mark.parametrize("others, named", [
    ({"scaling": "inv_n", "kind": "nonsense"}, "['kind', 'scaling']"),
    ({"kind": "moving_window"}, "['kind']"),
    ({"weights": (1.0, 1.0)}, "['weights']"),
    ({"laws": (bernoulli_pm1(0.5),)}, "['laws']"),
])
def test_a_builder_model_spec_rejects_every_other_field_naming_it(others, named):
    with pytest.raises(ValidationError, match=re.escape(named)):
        exp.ModelSpec(builder="iid-peng", **others)
    # a field given at its default is no conflict
    assert exp.ModelSpec(builder="iid-peng", kind="independent", scaling="none").build(4) == \
        exp.ModelSpec(builder="iid-peng").build(4)


def test_importing_the_cli_does_not_import_yaml():
    # only load_config reads YAML; a run of a built-in experiment need not import it
    code = "import sys, sublexp.cli; print('yaml' in sys.modules)"
    found = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True)
    assert found.stdout == "False\n"


@pytest.mark.parametrize("command", [
    "eval", "clt-sweep", "rosenthal", "blocking-inspect", "conditions", "gnormal",
])
def test_main_state_cap_exit_2(tmp_path, command):
    if command == "gnormal":
        raw = {**SMALL_CONFIG, "mode": "gnormal_eval", "functionals": ["cos"],
               "gnormal": {"sigma_lo2": 0.5, "sigma_hi2": 1.0, "nx": 201},
               "peng_n": [8]}
        source = ["--config", str(write_config(tmp_path, raw))]
    else:
        source = ["--experiment", "stationary-1dep"]
    out = tmp_path / "out"
    code = cli.main([command, *source, "--out", str(out), "--state-cap", "50"])
    assert code == 2
    assert not out.exists()


#: A point mass at 0: upper E[S_n^2] = 0, so no normalized hypothesis exists.
DEGENERATE_MODEL = {"kind": "independent", "laws": [{"values": [0.0], "probs": [1.0]}]}


@pytest.mark.parametrize("command, gnormal", [
    ("conditions", {}),
    ("blocking-inspect", {}),
    ("clt-sweep", {"sigma_lo2": 0.5}),
    ("clt-sweep", {}),
], ids=["conditions", "blocking-inspect", "clt-sweep-sigma_lo2", "clt-sweep-plateau"])
def test_main_degenerate_model_exit_1_no_files(tmp_path, capsys, command, gnormal):
    raw = {**SMALL_CONFIG, "model": DEGENERATE_MODEL, "gnormal": {"nx": 201, **gnormal}}
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, raw)), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_eval_of_degenerate_model_reports_zero_Bn(tmp_path):
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "mode": "eval", "model": DEGENERATE_MODEL})
    rows = _read(cli.run(cfg, tmp_path)[0])
    assert rows
    assert all(float(r["B_n"]) == float(r["b_n"]) == 0.0 for r in rows)


def _counts(engine_calls: dict[str, list[dict]]) -> dict[str, int]:
    counts = {name: len(calls) for name, calls in engine_calls.items()}
    for calls in engine_calls.values():
        calls.clear()
    return counts


def _clips(call: dict) -> list:
    """The clip level of every root of one ``compile_sum`` call."""
    clip = call.get("x_clip")
    return list(clip) if isinstance(clip, (list, tuple)) else [clip]


def test_one_graph_per_rosenthal_family_and_per_peng_run(engine_calls):
    # every backward sweep, one-sided or through evaluate_columns, is a sweep_columns call
    # and every history recursion is a window_columns call
    cfg = exp.reference_experiments()["stationary-1dep"]
    battery = mdep.rosenthal_battery(cfg.rosenthal_seed)
    rows = cli.run_rosenthal(cfg)["rosenthal"][1]
    # 27 families on 25 distinct models (m0-v3 and m0-v6, m1-v2 and m1-v5
    # share one), one backward sweep and one history recursion (E[X^2],
    # E[X], e[X] and E[|X|^p] for p = 2, 3, 4) per model, rows in battery
    # order; the 25 models have 21 support keys, one graph each
    assert len({inst.model for inst in battery}) == 25
    assert len({eng.support_key(inst.model) for inst in battery}) == 21
    assert [row[0] for row in rows] == [inst.ident for inst in battery]
    assert _counts(engine_calls) == {"compile_sum": 21, "window_columns": 25, "sweep_columns": 25}
    raw = {**SMALL_CONFIG, "mode": "gnormal_eval", "functionals": ["square", "cos"],
           "gnormal": {"sigma_lo2": 0.5, "nx": 201}, "peng_n": [8, 16]}
    cli.run_gnormal_eval(exp.config_from_mapping(raw))
    counts = _counts(engine_calls)
    assert counts["compile_sum"] == counts["sweep_columns"] == 1


def test_eval_and_peng_oracles_compile_no_graph_for_a_lattice_model(engine_calls):
    # stationary-1dep's full sums and the two-point supports {-1/2, 1/2} and
    # {-1, 1} sit on the lattice: one sweep of dense layers each, no graph
    cli.run_eval(exp.reference_experiments()["stationary-1dep"])
    assert _counts(engine_calls) == {"compile_sum": 0, "sweep_columns": 1, "window_columns": 0}
    raw = {**SMALL_CONFIG, "mode": "gnormal_eval", "functionals": ["square", "cos"],
           "gnormal": {"sigma_lo2": 0.25, "nx": 201}, "peng_n": [8, 16]}
    cli.run_gnormal_eval(exp.config_from_mapping(raw))
    assert _counts(engine_calls) == {"compile_sum": 0, "sweep_columns": 1, "window_columns": 0}


def test_eval_fits_a_cap_between_the_dense_offsets_and_the_graph_states(tmp_path):
    # stationary-1dep at n = 48: 4,850 dense offsets, 13,972 graph states; a cap
    # of 5,000 bounds what is built, so the report is the default cap's, whose
    # state_count column still gives the graph's states
    out = tmp_path / "out"
    assert cli.main(["eval", "--experiment", "stationary-1dep", "--out", str(out),
                     "--state-cap", "5000"]) == 0
    text = (out / "stationary-1dep_eval.csv").read_text()
    cli.main(["eval", "--experiment", "stationary-1dep", "--out", str(tmp_path / "default")])
    assert text == (tmp_path / "default" / "stationary-1dep_eval.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    assert {row["state_count"] for row in rows if row["n"] == "48"} == {"13972"}


HEAVY_CONDITIONS = {"name": "heavy", "mode": "conditions", "model": {"builder": "truncated-heavy"},
                    "n_list": [8, 16, 32], "conditions": {"tau": 1.0}}


def test_conditions_read_both_roots_of_a_row_off_one_compile_and_one_sweep(engine_calls):
    # truncated-heavy varies with n: one graph per row, with the full sum
    # and the sum clipped at tau as its two roots, and one sweep for E[S_n^2]
    # and every S_M of both; the reports read them without sweeping again
    cfg = exp.config_from_mapping(HEAVY_CONDITIONS)
    cli.run_conditions(cfg)
    assert [_clips(call) for call in engine_calls["compile_sum"]] == [[None, 1.0]] * 3
    assert _counts(engine_calls) == {"compile_sum": 3, "sweep_columns": 3, "window_columns": 6}
    # the rows of a scale-1 model share the largest row's graph and its one sweep
    scale_1 = {**HEAVY_CONDITIONS, "model": SMALL_CONFIG["model"]}
    cli.run_conditions(exp.config_from_mapping(scale_1))
    assert _counts(engine_calls) == {"compile_sum": 1, "sweep_columns": 1, "window_columns": 6}


def test_clt_sweep_reads_every_row_of_a_scale_1_model_off_one_graph(engine_calls):
    # the full sums sit on the lattice, so the rows share the dense layers of
    # the largest n and nothing is compiled; one sweep for every row's
    # E[S_n^2], one for every row's functionals at its own 1/B_n
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "n_list": [4, 8, 16]})
    shared = cli.run_clt_sweep(cfg)
    assert _counts(engine_calls) == {"compile_sum": 0, "sweep_columns": 2, "window_columns": 3}
    # with tau, r is read off one compile, of the largest row's clipped sum alone
    cli.run_clt_sweep(exp.config_from_mapping({**SMALL_CONFIG, "n_list": [4, 8, 16],
                                               "conditions": {"tau": 1.0}}))
    assert [_clips(call) for call in engine_calls["compile_sum"]] == [[1.0]]
    assert _counts(engine_calls) == {"compile_sum": 1, "sweep_columns": 3, "window_columns": 6}
    # the same rows swept one n at a time give the same table
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cond, "row_graphs",
                   lambda model_for, ns: [(model_for(n).prefix(n), (n,)) for n in ns])
        assert cli.run_clt_sweep(cfg) == shared
    assert _counts(engine_calls) == {"compile_sum": 0, "sweep_columns": 6, "window_columns": 3}


def test_a_1_over_sqrt_n_model_compiles_each_row(engine_calls):
    model = {**SMALL_CONFIG["model"], "scaling": "inv_sqrt_n"}
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "n_list": [4, 8, 16], "model": model,
                                   "conditions": {"tau": 1.0}})
    assert len(cond.row_graphs(cfg.model_for, cfg.n_list)) == 3
    cli.run_clt_sweep(cfg)
    # the full sums at n = 4 and 16 (scales 1/2 and 1/4) sit on the lattice
    # and are swept as dense layers, so only n = 8 compiles its own; after
    # every row, the largest row's sum is compiled clipped, for r
    assert [_clips(call) for call in engine_calls["compile_sum"]] == [[None], [1.0]]
    assert _counts(engine_calls) == {"compile_sum": 2, "sweep_columns": 7, "window_columns": 6}
    # eval builds the same sums as the sweep's rows: dense layers at n = 16 and 4
    cli.run_eval(cfg)
    assert _counts(engine_calls) == {"compile_sum": 1, "sweep_columns": 3, "window_columns": 0}


def test_clt_sweep_sweeps_the_functionals_over_the_unclipped_sum_alone(engine_calls, monkeypatch):
    # truncated-heavy at n = 48: r under tau comes from a one-root clipped
    # compile, and the functionals sweep the one-root graph of the full sum
    cfg = exp.config_from_mapping({"name": "heavy", "mode": "clt_sweep", "n_list": [48],
                                   "model": {"builder": "truncated-heavy"},
                                   "functionals": ["cos", "ramp@0"], "gnormal": {"nx": 201},
                                   "conditions": {"tau": 1.0}})
    swept = []
    sweep_columns = eng.sweep_columns

    def sizing(graph, upper, lower):
        swept.append((len(graph.states[0]), sum(map(len, graph.args)), [f.name for f, _ in upper]))
        return sweep_columns(graph, upper, lower)

    monkeypatch.setattr(eng, "sweep_columns", sizing)
    cli.run_clt_sweep(cfg)
    assert [_clips(call) for call in engine_calls["compile_sum"]] == [[None], [1.0]]
    assert swept == [(1, 40_425, ["square"]), (1, 40_425, ["cos", "ramp@0"]),
                     (1, 40_425, ["square"])]


@pytest.mark.parametrize("name", ["stationary-1dep", "iid-peng", "truncated-heavy"])
def test_clt_sweep_compiles_only_the_rows_off_the_lattice(engine_calls, name):
    # scale-1 lattice rows are swept as dense layers and never compiled;
    # truncated-heavy (1/sqrt(n), tau = 1) compiles each row of its own, but
    # n = 16, whose scale 1/4 puts the sum on the lattice, and the largest
    # row's clipped sum once more for r
    cfg = exp.with_overrides(exp.reference_experiments()[name], grid_nx=201)
    cli.run_clt_sweep(cfg)
    heavy = name == "truncated-heavy"
    groups = len(cond.row_graphs(cfg.model_for, cfg.n_list))
    assert groups == (4 if heavy else 1)
    # the rows of n = 8, 32 and 48, then r
    assert [_clips(call) for call in engine_calls["compile_sum"]] == (
        [[None], [None], [None], [1.0]] if heavy else [])
    # per group of rows, one sweep for E[S_n^2] and one for the functionals
    assert len(engine_calls["sweep_columns"]) == 2 * groups + heavy


def test_sweep_rows_take_one_history_recursion_per_clip(monkeypatch):
    # per n: the marginal summaries from one recursion, the truncated
    # normalizers (upper and lower) from one more at tau
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "conditions": {"tau": 1.0}})
    want = cli.run_clt_sweep(cfg)
    clips = []
    window = eng.window_columns

    def counting(model, indices, upper, lower, **kwargs):
        clips.append(kwargs.get("x_clip"))
        return window(model, indices, upper, lower, **kwargs)

    monkeypatch.setattr(eng, "window_columns", counting)
    assert cli.run_clt_sweep(cfg) == want
    assert clips == [1.0, None] * len(cfg.n_list)


VAR_RATIO_CONFIG = {
    "name": "ratio", "mode": "conditions", "n_list": [8, 10], "functionals": ["cos"],
    "model": {"kind": "moving_window", "weights": [1.0, 0.5], "scaling": "none",
              "innovation": [{"values": [-1.0, 1.0], "probs": [0.4, 0.6]},
                             {"values": [-1.0, 1.0], "probs": [0.6, 0.4]}]},
    "gnormal": {"nx": 201},
}


@pytest.mark.parametrize("grid", [[2, 4], []], ids=["grid-without-n", "empty-grid"])
def test_conditions_full_variance_ratio_is_the_clt_sweeps(grid):
    # the full ratio is S_n's, whatever the M grid holds: not the largest M's
    cfg = exp.config_from_mapping({**VAR_RATIO_CONFIG, "conditions": {"M": grid}})
    rows = cli.run_conditions(cfg)["conditions"][1]
    full = {n: v for n, quantity, key, v in rows if (quantity, key) == ("var_ratio", "full")}
    assert [n for n, quantity, key, _ in rows if quantity == "var_ratio" and key != "full"] == [
        n for n in cfg.n_list for _ in grid]
    header, sweep = cli.run_clt_sweep(cfg)["clt_sweep"]
    col = header.index("var_ratio_full")
    assert full == {row[0]: row[col] for row in sweep}
    assert cli._fmt(full[8]) == "0.312932118784"


def test_blocking_inspect_compiles_and_sweeps_once_per_row_and_once_per_plan(engine_calls):
    # per n: the row context's graph, then one graph with a root per block and the cuts
    cfg = exp.config_from_mapping({**HEAVY_CONDITIONS, "mode": "blocking_inspect"})
    want = cli.run_blocking_inspect(cfg)
    _counts(engine_calls)
    assert cli.run_blocking_inspect(cfg) == want
    # no root is clipped, although the config sets tau
    assert {clip for call in engine_calls["compile_sum"] for clip in _clips(call)} == {None}
    # per n: E[X_k^2] for beta, every p_n candidate in one recursion, and
    # the cut moments once per distance (0, 1); the row sum at n = 16
    # (scale 1/4, on the lattice) is swept as dense layers, not compiled
    assert _counts(engine_calls) == {"compile_sum": 5, "sweep_columns": 6, "window_columns": 12}


def test_eval_reads_the_second_moment_and_every_functional_off_one_sweep(monkeypatch):
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "mode": "eval"})
    want = cli.run_eval(cfg)
    sweeps = []
    sweep_columns = eng.sweep_columns

    def counting(graph, upper, lower):
        sweeps.append((len(upper), len(lower)))
        return sweep_columns(graph, upper, lower)

    monkeypatch.setattr(eng, "sweep_columns", counting)
    assert cli.run_eval(cfg) == want
    k = 1 + len(cfg.functionals)
    # the rows of a scale-1 model are read off the largest row's graph in one sweep
    assert sweeps == [(k * len(cfg.n_list), k * len(cfg.n_list))]
    sweeps.clear()
    # under a 1/sqrt(n) scale every row sweeps its own graph once
    cfg = exp.config_from_mapping({**SMALL_CONFIG, "mode": "eval",
                                   "model": {**SMALL_CONFIG["model"], "scaling": "inv_sqrt_n"}})
    cli.run_eval(cfg)
    assert sweeps == [(k, k)] * len(cfg.n_list)


@pytest.mark.parametrize("command", ["clt-sweep", "conditions"])
@pytest.mark.parametrize("conditions, key", [
    ({"tau": -1.0}, "conditions.tau"),
    ({"tau": 0.0}, "conditions.tau"),
    ({"eps": [0.1, 0.0]}, "conditions.eps"),
    ({"eps": [-0.5]}, "conditions.eps"),
    ({"p": [2.0, 1.5]}, "conditions.p"),
], ids=["tau-negative", "tau-zero", "eps-zero", "eps-negative", "p-below-2"])
def test_condition_levels_fail_before_any_compile(tmp_path, capsys, engine_calls,
                                                  command, conditions, key):
    cfg_path = write_config(tmp_path, {**SMALL_CONFIG, "conditions": conditions})
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not engine_calls["compile_sum"]
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "yaml"])
@pytest.mark.parametrize("command, flag, raw, message", [
    ("eval", ["--state-cap", "0"], {"state_cap": 0}, "state_cap must be >= 1"),
    ("rosenthal", ["--state-cap", "-5"], {"state_cap": -5}, "state_cap must be >= 1"),
    ("blocking-inspect", ["--tol", "0"], {"blocking": {"tol": 0.0}}, "blocking.tol must be > 0"),
    ("blocking-inspect", ["--tol", "-0.1"], {"blocking": {"tol": -0.1}},
     "blocking.tol must be > 0"),
    ("blocking-inspect", ["--tol", "nan"], {"blocking": {"tol": math.nan}},
     "blocking.tol must be > 0"),
], ids=["state_cap-zero", "state_cap-negative", "tol-zero", "tol-negative", "tol-nan"])
def test_bad_state_cap_or_tol_fails_when_the_config_is_built(tmp_path, capsys, engine_calls,
                                                             command, flag, raw, message, source):
    cfg = {**SMALL_CONFIG, "n_list": [4], **(raw if source == "yaml" else {})}
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                     *(flag if source == "flag" else [])])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"  # no traceback
    assert not engine_calls["compile_sum"]
    assert not out.exists()


def test_clt_sweep_checks_the_pde_grid_before_any_compile(tmp_path, capsys, engine_calls):
    # the half-width bound depends only on sigma_hi2, not on the plateau r
    out = tmp_path / "out"
    assert cli.main(["clt-sweep", "--experiment", "stationary-1dep", "--out", str(out),
                     "--grid-L", "3"]) == 1
    assert "half_width 3.0 too small" in capsys.readouterr().err
    assert not engine_calls["compile_sum"]
    assert not out.exists()


@pytest.mark.parametrize("gnormal, message", [
    ({"sigma_lo2": 2.0}, "need 0 <= sigma_lo2 <= sigma_hi2 < inf"),
    ({"sigma_lo2": -0.5}, "need 0 <= sigma_lo2 <= sigma_hi2 < inf"),
    ({"sigma_hi2": -1.0}, "need 0 <= sigma_lo2 <= sigma_hi2 < inf"),
    ({"time": 0.0}, "gnormal.time must be 1.0, got 0.0: the Peng, quadrature and CLT columns are the G-normal law at t = 1"),
    ({"time": -1.0}, "gnormal.time must be 1.0, got -1.0: the Peng, quadrature and CLT columns are the G-normal law at t = 1"),
    ({"time": math.inf}, "gnormal.time must be 1.0, got inf: the Peng, quadrature and CLT columns are the G-normal law at t = 1"),
    ({"time": 2.0}, "gnormal.time must be 1.0, got 2.0: the Peng, quadrature and CLT columns are the G-normal law at t = 1"),
], ids=["lo-above-hi", "lo-negative", "hi-negative", "time-zero", "time-negative", "time-inf",
        "time-two"])
def test_bad_gnormal_values_fail_before_any_compile(tmp_path, capsys, engine_calls,
                                                     gnormal, message):
    raw = {**SMALL_CONFIG, "model": {"builder": "stationary-1dep"},
           "gnormal": {**SMALL_CONFIG["gnormal"], **gnormal}}
    out = tmp_path / "out"
    assert cli.main(["clt-sweep", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"  # no traceback
    assert not engine_calls["compile_sum"]
    assert not out.exists()


@pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
@pytest.mark.parametrize("name", ["ramp@abc", "abspow@inf"])
def test_a_malformed_functional_name_exits_1_at_load_in_every_mode(tmp_path, capsys,
                                                                   engine_calls, command, name):
    raw = {**SMALL_CONFIG, "functionals": ["cos", name],
           "gnormal": {**SMALL_CONFIG["gnormal"], "sigma_lo2": 0.5}}
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: functional {name!r} needs a finite number after '@'\n"
    assert not any(engine_calls.values())
    assert not out.exists()


@pytest.mark.parametrize("command, top, extra", [
    ("eval", 1.7e308, {}),
    ("conditions", 1.7e308, {}),
    ("clt-sweep", 1.7e308, {}),
    # every coordinate is finite, but the sum of two is not: the cos column
    # raised in the sweep, and the square column read inf
    ("eval", 1.0e308, {"n_list": [2], "functionals": ["cos"]}),
    ("eval", 1.0e308, {"n_list": [2], "functionals": ["square"]}),
], ids=["eval", "conditions", "clt-sweep", "sum-cos", "sum-square"])
def test_a_coordinate_that_overflows_a_float_is_a_validation_error(tmp_path, capsys, command,
                                                                   top, extra):
    # 1.7e308 + 1.7e308 overflows: the model is refused before any term is computed
    law = {"values": [-top, top], "probs": [0.5, 0.5]}
    model = ({"kind": "independent", "laws": [law]} if extra else
             {"kind": "moving_window", "weights": [1.0, 1.0], "laws": [law]})
    raw = {**SMALL_CONFIG, "model": model, **extra}
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: a sum can overflow a float: sum|w_j| * max|v| * max(scale, 1) * n\n"
    assert not out.exists()


@pytest.mark.parametrize("command, extra", [
    # |x| ** 400 of a sum of 8 draws, in the sweep's payoffs
    ("eval", {"n_list": [8], "functionals": ["abspow@400"]}),
    ("clt-sweep", {"n_list": [8], "functionals": ["abspow@400"]}),
    # the same payoff in the PDE's initial data
    ("gnormal", {"functionals": ["abspow@400"], "gnormal": {"sigma_lo2": 0.5}}),
    # B ** p of a normalizer
    ("conditions", {"conditions": {"p": [1.0e+300]}}),
], ids=["eval", "clt-sweep", "gnormal", "conditions"])
def test_a_value_that_overflows_a_float_exits_2_without_traceback(tmp_path, capsys, command,
                                                                  extra):
    raw = {"name": "huge", "model": {"builder": "iid-peng"}, **extra}
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "computation error: a value overflows a float\n"
    assert not out.exists()


#: Draws of +-1e200: every sum is finite, and its square overflows to inf.
HUGE_DRAWS = {"kind": "independent",
              "laws": [{"values": [-1.0e+200, 1.0e+200], "probs": [0.5, 0.5]}]}


@pytest.mark.parametrize("command, model, extra, error", [
    # E[S_2^2] = inf would be written as a CSV value
    ("eval", HUGE_DRAWS, {"n_list": [2], "functionals": ["square"]},
     "a value overflows a float"),
    # B_n^2 = inf would make the plateau r inf / inf
    ("clt-sweep", HUGE_DRAWS, {"n_list": [2], "functionals": ["square"]},
     "a value overflows a float"),
    # B_n < 1 under 1/n scaling, so B_n ** 1e300 underflows to 0
    ("conditions", {"kind": "independent", "scaling": "inv_n",
                    "laws": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}]},
     {"n_list": [4, 8], "conditions": {"p": [2.0, 1.0e+300]}}, "a divisor underflows to 0"),
], ids=["eval", "clt-sweep", "conditions"])
def test_an_infinite_value_or_a_zero_divisor_exits_2_without_traceback(tmp_path, capsys, command,
                                                                     model, extra, error):
    raw = {"name": "huge", "model": model, **extra}
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"computation error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("blocking", [{}, {"pn_list": [2, 4]}], ids=["choose_pn", "pn_list"])
def test_blocking_inspect_refuses_an_m_2_model(tmp_path, capsys, engine_calls, blocking):
    # cut-separated blocks are independent sums only for m <= 1; the model is
    # refused before any row compiles
    raw = {**SMALL_CONFIG, "model": {**SMALL_CONFIG["model"], "weights": [1.0, 1.0, 1.0]},
           "blocking": blocking}
    out = tmp_path / "out"
    assert cli.main(["blocking-inspect", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: blocking needs a 1-dependent row (m <= 1), got m = 2")
    assert "m > 1 is not supported yet" in err and "Traceback" not in err
    assert not out.exists()
    assert not engine_calls["compile_sum"] and not engine_calls["window_columns"]


def test_main_requires_exactly_one_source(tmp_path):
    assert cli.main(["eval", "--out", str(tmp_path)]) == 1


def test_main_unknown_experiment(tmp_path):
    assert cli.main(["eval", "--experiment", "nope", "--out", str(tmp_path)]) == 1


def test_grid_override_flags(tmp_path):
    cfg_path = write_config(tmp_path, {**SMALL_CONFIG, "n_list": [4]})
    out = tmp_path / "c"
    code = cli.main([
        "clt-sweep", "--config", str(cfg_path), "--out", str(out),
        "--grid-nx", "401", "--grid-L", "8.0",
    ])
    assert code == 0


_GNORMAL_RAW = {**SMALL_CONFIG, "mode": "gnormal_eval", "functionals": ["cos"],
                "gnormal": {"sigma_lo2": 0.5, "sigma_hi2": 1.0, "nx": 201}, "peng_n": [8]}


@pytest.mark.parametrize("nx", [1, 0, 2])
@pytest.mark.parametrize("source", ["flag", "yaml"])
@pytest.mark.parametrize("command, raw", [("gnormal", _GNORMAL_RAW), ("clt-sweep", SMALL_CONFIG)],
                         ids=["gnormal", "clt-sweep"])
def test_too_few_spatial_points_exit_1_without_traceback(tmp_path, capsys, command, raw,
                                                         source, nx):
    # PDEGrid must check nx before dx divides by nx - 1
    if source == "yaml":
        raw = {**raw, "gnormal": {**raw["gnormal"], "nx": nx}}
    flags = ["--grid-nx", str(nx)] if source == "flag" else []
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out), *flags])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: need at least 3 spatial points\n"  # no traceback
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "yaml"])
@pytest.mark.parametrize("command, raw", [("gnormal", _GNORMAL_RAW), ("clt-sweep", SMALL_CONFIG)],
                         ids=["gnormal", "clt-sweep"])
def test_a_grid_whose_dx_squared_overflows_exits_1_without_traceback(tmp_path, capsys, command,
                                                                     raw, source):
    # dx = 2e200 / 200 squares past the largest float, where a float ** raises
    if source == "yaml":
        raw = {**raw, "gnormal": {**raw["gnormal"], "half_width": 1.0e200}}
    flags = ["--grid-L", "1.0e+200"] if source == "flag" else []
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out), *flags])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: half_width 1e+200 and nx 201 give a dx^2 that is not positive and finite\n")
    assert not out.exists()


def test_a_subnormal_upper_variance_takes_one_pde_step(tmp_path):
    # dt = 0.9 dx^2 / (2 * 5e-324) overflows to inf: t = 1 is one step, not an error
    raw = {**_GNORMAL_RAW, "functionals": ["square"],
           "gnormal": {"sigma_lo2": 0.0, "sigma_hi2": 5.0e-324, "nx": 101}}
    out = tmp_path / "out"
    assert cli.main(["gnormal", "--config", str(write_config(tmp_path, raw)),
                     "--out", str(out)]) == 0
    (row,) = _read(out / "tiny_gnormal.csv")
    assert (row["sigma_hi2"], row["pde_upper"]) == ("4.94065645841e-324", "4.94065645841e-324")


def test_tol_flag_drives_block_size_search(tmp_path):
    raw = {**SMALL_CONFIG, "mode": "blocking_inspect", "n_list": [16]}
    cfg_path = write_config(tmp_path, raw)
    tight, loose = tmp_path / "tight", tmp_path / "loose"
    assert cli.main(["blocking-inspect", "--config", str(cfg_path),
                     "--out", str(tight)]) == 0
    assert cli.main(["blocking-inspect", "--config", str(cfg_path),
                     "--out", str(loose), "--tol", "1e9"]) == 0
    p_tight = _read(tight / "tiny_blocking.csv")[0]["p_n"]
    p_loose = _read(loose / "tiny_blocking.csv")[0]["p_n"]
    assert int(p_loose) >= int(p_tight)
    assert int(p_loose) == 4  # tol=inf picks the even floor of sqrt(16)


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

COMMANDS = ("eval", "gnormal", "clt-sweep", "rosenthal", "blocking-inspect", "conditions")

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_parses_all_seven_flags(command):
    args = cli._parser().parse_args([
        command, "--config", "cfg.yaml", "--experiment", "iid-peng", "--out", "reports/",
        "--grid-nx", "401", "--grid-L", "6.5", "--state-cap", "1000", "--tol", "0.25",
    ])
    assert vars(args) == {
        "command": command, "config": "cfg.yaml", "experiment": "iid-peng", "out": "reports/",
        "grid_nx": 401, "grid_L": 6.5, "state_cap": 1000, "tol": 0.25,
    }
    assert type(args.grid_nx) is int and type(args.state_cap) is int
    assert vars(cli._parser().parse_args([command, "--out", "o"])) == {
        "command": command, "config": None, "experiment": None, "out": "o",
        "grid_nx": None, "grid_L": None, "state_cap": None, "tol": None,
    }


@pytest.mark.parametrize("argv", [
    [], ["--out", "o"], ["eval", "--experiment", "iid-peng"], ["sweep", "--out", "o"],
], ids=["no-command", "only-out", "no-out", "unknown-command"])
def test_missing_command_or_out_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "usage: sublexp" in capsys.readouterr().err


def test_command_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["eval", "--help"])
    assert exc.value.code == 0
    help_text = "".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert all(flag in help_text for flag in (
        "--config", "--experiment", "--out", "--grid-nx", "--grid-L", "--state-cap", "--tol"))
    assert all(name in help_text for name in exp.reference_experiments())


def test_readme_command_lines_parse():
    lines = [shlex.split(line) for line in README.read_text().splitlines()
             if line.startswith("sublexp ")]
    assert ["sublexp", "blocking-inspect", "--experiment", "stationary-1dep",
            "--out", "reports/"] in lines
    assert {words[1] for words in lines} == set(COMMANDS)
    for words in lines:
        args = cli._parser().parse_args(words[1:])
        assert args.command == words[1] and args.out == "reports/"
